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
(``tests/oracles/kcore.py``) of that subgraph.  Every core entry the
footprint rules kept must still hold H^t_k: a feasible entry's CSR must
be bit-identical to the row-sorted CSR of the connected k-core
containing Q in the live social graph induced on that (Q, t)'s filtered
users (recomputed by ``query_distance_filter`` when the filter entry
was evicted), and an infeasible entry must have no such k-core.  Only
the test process checks: forked pool workers inherit the patched method
but skip the comparison, so they keep the production apply path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine.engine import MACEngine
from repro.graph.core import k_core_containing
from repro.kernels.search import search_flatgraph
from repro.store import fingerprint

from tests.oracles.kcore import core_decomposition


def csr_arrays(flat) -> tuple:
    """A CSR's ids, row pointers and neighbor rows, as plain lists."""
    return list(flat.ids), flat.indptr.tolist(), flat.indices.tolist()


def check_core_entries(engine) -> None:
    """Each kept core entry against H^t_k recomputed from the network."""
    network = engine.network
    social = network.social.graph
    filters = dict(engine._filter_cache.items())
    for key, state in engine._core_cache.items():
        query, k, t = key
        prep = filters.get((query, t))
        if prep is None:
            users = network.query_distance_filter(query, t)
        else:
            users = prep.query_distance
        htk = k_core_containing(social.subgraph(users), query, k)
        if state.flat is None:
            assert htk is None, f"infeasible core entry turned feasible: {key}"
            continue
        assert htk is not None, f"feasible core entry died: {key}"
        want = csr_arrays(search_flatgraph(htk))
        assert csr_arrays(state.flat) == want, f"H^t_k drifted in {key}"


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
            check_core_entries(engine)
        return summary

    monkeypatch.setattr(MACEngine, "apply", checked_apply)
