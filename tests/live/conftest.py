"""Every ``MACEngine.apply`` in this suite checks its maintained digest.

The engine advances its content digest per batch from the records the
batch touched; the autouse fixture below starts each engine's digest
before its first apply and, after every apply, compares the maintained
value with a full recomputation of the live network.  Only the test
process checks: forked pool workers inherit the patched method but
skip the comparison, so they keep the production apply path.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.engine import MACEngine
from repro.store import fingerprint


@pytest.fixture(autouse=True)
def checked_digest(monkeypatch):
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
        return summary

    monkeypatch.setattr(MACEngine, "apply", checked_apply)
