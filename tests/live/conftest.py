"""Every ``MACEngine.apply`` in this suite checks what it maintains.

The engine advances its content digest per batch from the records the
batch touched, and repairs the coreness rows of every warm filter entry
in place of a re-peel.  The autouse fixture below starts each engine's
digest before its first apply and, after every apply, compares the
maintained digest with a full recomputation of the live network, and
each warm filter entry with the live social graph induced on that
entry's filtered users (``query_distance``), which no repair touches:
the entry's CSR must read that subgraph's adjacency, and its
``core_rows`` the reference Batagelj–Zaversnik decomposition
(``tests/oracles/kcore.py``) of that subgraph.  Only the test process
checks: forked pool workers inherit the patched method but skip the
comparison, so they keep the production apply path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine.engine import MACEngine
from repro.store import fingerprint

from tests.oracles.kcore import core_decomposition


def csr_adjacency(flat) -> dict:
    """``{id: neighbor ids}`` read row by row off a CSR view."""
    ids = np.asarray(flat.ids)
    return {
        int(ids[r]): set(ids[flat.neighbor_rows(r)].tolist())
        for r in range(flat.n)
    }


@pytest.fixture(autouse=True)
def checked_apply_state(monkeypatch):
    # Captured now: a test may swap the module attributes (to count
    # full recomputations) without the check counting as one.
    full = fingerprint.network_digest
    apply, pid = MACEngine.apply, os.getpid()

    def checked_apply(engine, mutations):
        if os.getpid() != pid:
            return apply(engine, mutations)
        engine.identity()  # maintained from here on, not computed lazily
        summary = apply(engine, mutations)
        with engine._mutate_lock:
            assert engine._digest == full(engine.network), "digest drifted"
            social = engine.network.social.graph
            for key, prep in engine._filter_cache.items():
                live = social.subgraph(prep.query_distance)
                adj = {v: live.neighbors(v) for v in live.vertices()}
                assert csr_adjacency(prep.flat) == adj, f"CSR drifted in {key}"
                rows = prep.flat.relabel(prep.core_rows)
                expected = core_decomposition(live)
                assert rows == expected, f"coreness rows drifted in {key}"
        return summary

    monkeypatch.setattr(MACEngine, "apply", checked_apply)
