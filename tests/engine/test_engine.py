"""MACEngine tests: correctness vs the one-shot path, cache accounting,
explain() plans, and shared G-tree state."""

import pytest

from repro import MACEngine, MACRequest, mac_search
from repro.engine.engine import QueryPlan
from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion


def _request(paper_region, **kwargs):
    kwargs.setdefault("algorithm", "global")
    return MACRequest.make([2, 3, 6], 3, 9.0, paper_region, **kwargs)


def _partition_sets(result):
    return {frozenset(e.best.members) for e in result.partitions}


class TestSearchEquivalence:
    @pytest.mark.parametrize("algorithm", ["global", "local"])
    @pytest.mark.parametrize("problem", ["nc", "topj"])
    def test_matches_free_function(
        self, paper_network, paper_region, algorithm, problem
    ):
        engine = MACEngine(paper_network)
        j = 2 if problem == "topj" else 1
        request = _request(
            paper_region, algorithm=algorithm, problem=problem, j=j
        )
        mine = engine.search(request)
        legacy = mac_search(
            paper_network, [2, 3, 6], 3, 9.0, paper_region,
            j=j, algorithm=algorithm, problem=problem,
        )
        assert mine.htk_vertices == legacy.htk_vertices == 7
        assert len(mine.partitions) == len(legacy.partitions)
        assert mine.communities() == legacy.communities()
        assert mine.nc_communities() == legacy.nc_communities()

    def test_warm_search_same_result(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = _request(paper_region)
        cold = engine.search(request)
        warm = engine.search(request)
        assert _partition_sets(cold) == _partition_sets(warm)
        assert cold.communities() == warm.communities()
        # served result is a fresh wrapper, not the cached object
        assert warm is not cold
        assert warm.partitions is not cold.partitions
        assert warm.elapsed >= 0

    def test_empty_core(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = MACRequest.make([2], 6, 9.0, paper_region)
        result = engine.search(request)
        assert result.is_empty
        assert result.htk_vertices == 0
        assert result.extra["engine"]["cache"]["dominance"] == "skipped"


class TestValidationAtSearch:
    def test_dimension_mismatch(self, paper_network):
        engine = MACEngine(paper_network)
        region = PreferenceRegion([0.2], [0.4])  # d = 2, network d = 3
        with pytest.raises(QueryError, match="d=2"):
            engine.search(MACRequest.make([2], 2, 9.0, region))

    def test_missing_query_user(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        with pytest.raises(QueryError):
            engine.search(MACRequest.make([999], 2, 9.0, paper_region))

    def test_requires_typed_request(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        with pytest.raises(QueryError, match="MACRequest"):
            engine.search({"query": [2], "k": 2})

    def test_bad_use_gtree_engine_param(self, paper_network):
        with pytest.raises(QueryError):
            MACEngine(paper_network, use_gtree="sometimes")


class TestCacheAccounting:
    def test_cold_then_warm(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = _request(paper_region)
        cold = engine.search(request)
        assert cold.extra["engine"]["cache"] == {
            "filter": "miss", "core": "miss", "dominance": "miss",
            "result": "miss",
        }
        warm = engine.search(request)
        # A byte-identical request is served from the result cache.
        assert warm.extra["engine"]["cache"] == {"result": "hit"}
        tel = engine.telemetry()
        assert tel.searches == 2
        assert tel.result.hits == 1 and tel.result.misses == 1
        assert tel.core.misses == 1 and tel.dominance.misses == 1

    def test_result_cache_can_be_disabled(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network, result_cache_size=0)
        request = _request(paper_region)
        engine.search(request)
        warm = engine.search(request)
        assert warm.extra["engine"]["cache"] == {
            "filter": "hit", "core": "hit", "dominance": "hit",
            "result": "off",
        }
        tel = engine.telemetry()
        assert tel.core.hits == 1 and tel.dominance.hits == 1
        assert tel.result.requests == 0

    def test_new_k_reuses_filter(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        engine.search(_request(paper_region))
        other_k = MACRequest.make(
            [2, 3, 6], 2, 9.0, paper_region, algorithm="global"
        )
        result = engine.search(other_k)
        cache = result.extra["engine"]["cache"]
        assert cache["filter"] == "hit"
        assert cache["core"] == "miss"
        assert cache["dominance"] == "miss"

    def test_new_region_reuses_core(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        engine.search(_request(paper_region))
        other_region = PreferenceRegion([0.15, 0.2], [0.5, 0.4])
        result = engine.search(_request(other_region))
        cache = result.extra["engine"]["cache"]
        assert cache["core"] == "hit"
        assert cache["dominance"] == "miss"

    def test_topj_after_nc_hits_everything(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        engine.search(_request(paper_region))
        result = engine.search(
            _request(paper_region, problem="topj", j=2, algorithm="local")
        )
        assert result.extra["engine"]["cache"] == {
            "filter": "hit", "core": "hit", "dominance": "hit",
            "result": "miss",
        }

    def test_warm_prepays_stages_without_searching(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        request = _request(paper_region)
        outcomes = engine.warm(request)
        assert outcomes == {
            "filter": "miss", "core": "miss", "dominance": "miss",
        }
        assert engine.telemetry().searches == 0
        result = engine.search(request)
        assert result.extra["engine"]["cache"] == {
            "filter": "hit", "core": "hit", "dominance": "hit",
            "result": "miss",
        }

    def test_warm_skips_dominance_on_empty_core(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        outcomes = engine.warm(MACRequest.make([2], 6, 9.0, paper_region))
        assert outcomes["dominance"] == "skipped"

    def test_caller_mutation_cannot_poison_result_cache(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        request = _request(paper_region)
        first = engine.search(request)
        n = len(first.partitions)
        first.partitions.clear()  # hostile caller
        second = engine.search(request)
        assert len(second.partitions) == n

    def test_clear_caches(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = _request(paper_region)
        engine.search(request)
        engine.clear_caches()
        result = engine.search(request)
        assert result.extra["engine"]["cache"]["core"] == "miss"


class TestExplain:
    def test_cold_plan(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = _request(paper_region, problem="topj", j=2)
        plan = engine.explain(request)
        assert isinstance(plan, QueryPlan)
        assert plan.searcher == "GS-T"
        assert plan.algorithm == "global"
        assert plan.filter_strategy == "dijkstra"
        assert plan.cached == {
            "filter": False, "core": False, "dominance": False,
            "result": False,
        }
        assert plan.feasible is None
        assert plan.htk_vertices is None
        assert plan.htk_upper_bound == paper_network.social.num_users
        assert "plan for" in plan.summary()

    def test_explain_runs_nothing(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        engine.explain(_request(paper_region))
        tel = engine.telemetry()
        assert tel.searches == 0
        assert tel.hits == tel.misses == 0

    def test_warm_plan_is_exact(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = _request(paper_region)
        engine.search(request)
        plan = engine.explain(request)
        assert plan.cached == {
            "filter": True, "core": True, "dominance": True,
            "result": True,
        }
        assert plan.feasible is True
        assert plan.htk_vertices == 7
        assert plan.htk_upper_bound == 7

    def test_infeasible_plan_from_filter_cache(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        request = MACRequest.make([2], 6, 9.0, paper_region)
        engine.search(request)
        plan = engine.explain(request)
        assert plan.feasible is False
        assert plan.htk_vertices == 0
        # mirrors execution: no searcher runs on an empty core
        assert plan.searcher == "none"
        assert plan.algorithm == "none"

    def test_auto_plan_from_filter_bound_is_labeled(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network, auto_local_threshold=3)
        request = MACRequest.make(
            [2, 3, 6], 3, 9.0, paper_region, algorithm="auto"
        )
        engine.warm(MACRequest.make([2, 3, 6], 3, 9.0, paper_region))
        engine.clear_caches()
        # re-warm only the filter stage, leaving core/result cold
        engine._prepared_filter(request, False, {}, {})
        plan = engine.explain(request)
        assert plan.cached["filter"] and not plan.cached["core"]
        # a bound-based resolution must say "bound", not claim exactness
        assert "bound" in plan.algorithm_reason
        assert "provisional" in plan.algorithm_reason

    def test_auto_algorithm_resolution(self, paper_network, paper_region):
        engine = MACEngine(paper_network, auto_local_threshold=3)
        request = MACRequest.make(
            [2, 3, 6], 3, 9.0, paper_region, algorithm="auto"
        )
        engine.search(request)
        plan = engine.explain(request)
        # |H^t_k| = 7 > 3, so auto resolves to the local search
        assert plan.algorithm == "local"
        assert plan.searcher == "LS-NC"

    def test_auto_runs_global_on_small_core(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        request = MACRequest.make(
            [2, 3, 6], 3, 9.0, paper_region, algorithm="auto"
        )
        result = engine.search(request)
        assert result.extra["engine"]["algorithm"] == "global"


class TestGTreeSharing:
    def test_gtree_cached_property_builds_once(self, paper_network):
        assert not paper_network.has_gtree
        first = paper_network.gtree
        assert paper_network.has_gtree
        assert paper_network.gtree is first
        assert paper_network.build_gtree() is first

    def test_engine_and_legacy_share_gtree(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network, use_gtree=True, eager=True)
        built = paper_network._gtree
        assert built is not None
        fast = engine.search(_request(paper_region))
        assert fast.extra["engine"]["filter_strategy"] == "gtree"
        legacy = mac_search(
            paper_network, [2, 3, 6], 3, 9.0, paper_region, use_gtree=True
        )
        assert paper_network._gtree is built  # no rebuild anywhere
        assert fast.nc_communities() == legacy.nc_communities()

    def test_request_overrides_engine_default(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network, use_gtree=True)
        result = engine.search(_request(paper_region, use_gtree=False))
        assert result.extra["engine"]["filter_strategy"] == "dijkstra"
        assert not paper_network.has_gtree
