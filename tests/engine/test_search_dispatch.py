"""The search-loop dispatch contract.

A request runs the global search on the set-based loop below
``GS_FLAT_MIN_CORE`` vertices of H^t_k and on the flat CSR loop at or
above it; a side forced through the ``force_path`` seam is obeyed.  The
local search always runs the flat loop.  The
answers never depend on the loop: partitions are bit-identical across
the size rules and both forced sides on the served request shapes.
"""

import pytest

import repro.kernels.backend as backend_module
from repro import MACEngine, MACRequest, PreferenceRegion
from repro.datasets import load_dataset

from tests.core.test_search_backends import signature


@pytest.fixture(scope="module")
def yelp():
    """fl+yelp 0.5 (4000 users), the served benchmark dataset."""
    ds = load_dataset("fl+yelp", scale=0.5, seed=7)
    t = ds.default_t * 0.5 ** 0.5
    d = ds.network.social.dimensionality
    region = PreferenceRegion.centered([0.9 / d] * (d - 1), 0.01)
    return ds, t, region


def small_request(yelp, **knobs):
    """A ``small``-class GS request (|H^t_k| in the tens)."""
    ds, t, region = yelp
    query = ds.suggest_query(2, k=4, t=t, seed=1)
    knobs.setdefault("algorithm", "global")
    return MACRequest.make(query, 4, t, region, **knobs)


def core_state(engine, request):
    state, hit = engine._core_cache.peek(request.core_key)
    assert hit
    return state


def run(engine, request):
    result = engine.search(request)
    return result, core_state(engine, request)


class TestDispatch:
    def test_auto_small_core_runs_the_set_loop(self, yelp):
        engine = MACEngine(yelp[0].network)
        result, state = run(engine, small_request(yelp))
        assert state.flat.n < backend_module.GS_FLAT_MIN_CORE
        assert result.extra["engine"]["search_backend"] == "python"

    @pytest.mark.parametrize("offset,expected", [(0, "flat"), (1, "python")])
    def test_threshold_is_inclusive(self, yelp, monkeypatch, offset, expected):
        probe = MACEngine(yelp[0].network)
        size = run(probe, small_request(yelp))[1].flat.n
        monkeypatch.setattr(
            backend_module, "GS_FLAT_MIN_CORE", size + offset
        )
        engine = MACEngine(yelp[0].network)
        result, _state = run(engine, small_request(yelp))
        assert result.extra["engine"]["search_backend"] == expected

    @pytest.mark.parametrize("backend", ["flat", "python"])
    def test_explicit_backend_is_obeyed(self, yelp, force_path, backend):
        force_path(backend)
        engine = MACEngine(yelp[0].network)
        result, _state = run(engine, small_request(yelp))
        assert result.extra["engine"]["search_backend"] == backend

    def test_engine_default_is_obeyed(self, yelp, force_path):
        force_path("flat")
        engine = MACEngine(yelp[0].network)
        result, _state = run(engine, small_request(yelp))
        assert result.extra["engine"]["search_backend"] == "flat"

    def test_local_search_runs_the_flat_loop(self, yelp):
        engine = MACEngine(yelp[0].network)
        result, _state = run(engine, small_request(yelp, algorithm="local"))
        assert result.extra["engine"]["search_backend"] == "flat"

    def test_plan_matches_telemetry(self, yelp):
        engine = MACEngine(yelp[0].network)
        request = small_request(yelp)
        cold = engine.explain(request)
        assert cold.search_backend == "flat"
        assert any("search backend is provisional" in n for n in cold.notes)
        result = engine.search(request)
        warm = engine.explain(request)
        assert warm.search_backend == "python"
        assert warm.search_backend == result.extra["engine"]["search_backend"]
        assert not any("search backend" in n for n in warm.notes)


def served_shapes(yelp):
    """The served ``miss`` classes: small GS, LS mix, wide."""
    ds, t, region = yelp
    shapes = []
    for size, k, tmul in ((1, 4, 1.0), (2, 6, 2.0), (4, 4, 2.0)):
        query = ds.suggest_query(size, k=k, t=t * tmul, seed=1)
        shapes.append(("small", query, k, t * tmul, "auto"))
    for query_size, k, seed in ((4, 6, 1), (3, 5, 1)):
        query = ds.suggest_query(query_size, k=k, t=t, seed=seed)
        shapes.append(("ls-mix", query, k, t, "local"))
    query = ds.suggest_query(2, k=3, t=t * 2.0, seed=1)
    shapes.append(("wide", query, 3, t * 2.0, "auto"))
    return shapes


@pytest.mark.parametrize("problem,j", [("nc", 1), ("topj", 2)])
def test_partitions_identical_across_backends(yelp, force_path, problem, j):
    ds, _t, region = yelp
    algorithms = set()
    answered = 0
    for _cls, query, k, t, algorithm in served_shapes(yelp):
        outcomes = []
        for side in (None, "flat", "python"):
            force_path(side)
            result = MACEngine(ds.network).search(MACRequest.make(
                query, k, t, region, algorithm=algorithm,
                problem=problem, j=j,
            ))
            algorithms.add(result.extra["engine"]["algorithm"])
            outcomes.append(signature(result.partitions))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        answered += bool(outcomes[0])
    assert algorithms == {"global", "local"}
    assert answered >= 3
