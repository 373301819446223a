"""Anytime mode: deadline expiry returns a best-so-far partial result
instead of raising, partial results never enter the result cache, and
``anytime=False`` keeps the typed failure contract."""

import pytest

from repro import MACEngine, MACRequest
from repro.errors import DeadlineExceeded


def request(paper_region, **knobs):
    knobs.setdefault("algorithm", "global")
    return MACRequest.make((2, 3, 6), 3, 9.0, paper_region, **knobs)


class TestRequestSemantics:
    def test_anytime_excluded_from_identity(self, paper_region):
        soft = request(paper_region, deadline=0.5, anytime=True)
        hard = request(paper_region, deadline=0.5)
        plain = request(paper_region)
        assert soft == hard == plain
        assert soft.result_key == plain.result_key
        assert hash(soft) == hash(plain)

    def test_anytime_is_coerced_to_bool(self, paper_region):
        assert request(paper_region, anytime=1).anytime is True
        assert request(paper_region).anytime is False


class TestAnytimeSearch:
    def test_without_anytime_the_typed_error_still_raises(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        with pytest.raises(DeadlineExceeded):
            engine.search(request(paper_region, deadline=1e-9))

    def test_expiry_returns_partial_instead_of_raising(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        result = engine.search(
            request(paper_region, deadline=1e-9, anytime=True)
        )
        assert result.partial is True
        assert result.progress  # how far the pipeline got
        assert "[partial]" in result.summary()
        assert engine.telemetry().partial_results == 1

    def test_search_stage_partial_is_feasible(
        self, paper_network, paper_region
    ):
        """With prepared stages warm, expiry lands inside the search
        loop and the fallback communities still contain Q."""
        engine = MACEngine(paper_network)
        engine.warm(request(paper_region, problem="topj", j=3))
        result = engine.search(request(
            paper_region, problem="topj", j=3, deadline=1e-9, anytime=True,
        ))
        assert result.partial is True
        assert result.progress["stage"] == "search"
        assert result.partitions
        for entry in result.partitions:
            for community in entry.communities:
                assert community.partial is True
                assert {2, 3, 6} <= set(community.members)

    def test_generous_budget_is_exact_not_partial(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        soft = engine.search(
            request(paper_region, deadline=60.0, anytime=True)
        )
        exact = engine.search(request(paper_region))
        assert soft.partial is False
        assert soft.progress == {}
        assert soft.communities() == exact.communities()


class TestPartialNeverCached:
    def test_partial_result_does_not_poison_the_cache(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        partial = engine.search(
            request(paper_region, deadline=1e-9, anytime=True)
        )
        assert partial.partial is True
        # The same semantic request, unbudgeted, must recompute from
        # scratch — a cached partial would be served as the truth here.
        exact = engine.search(request(paper_region))
        assert exact.partial is False
        assert exact.extra["engine"]["cache"]["result"] == "miss"
        assert exact.communities()

    def test_complete_anytime_result_is_cached(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        first = engine.search(
            request(paper_region, deadline=60.0, anytime=True)
        )
        assert first.partial is False
        again = engine.search(request(paper_region))
        assert again.extra["engine"]["cache"]["result"] == "hit"

    def test_anytime_request_is_served_from_a_warm_cache(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        engine.search(request(paper_region))
        served = engine.search(
            request(paper_region, deadline=1e-9, anytime=True)
        )
        assert served.partial is False
        assert served.extra["engine"]["cache"]["result"] == "hit"

    def test_cache_off_partial_still_works(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network, result_cache_size=0)
        result = engine.search(
            request(paper_region, deadline=1e-9, anytime=True)
        )
        assert result.partial is True
        assert engine.telemetry().partial_results == 1


class TestExplainSearchPlan:
    def test_plan_reports_search_backend_and_frontier(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        plan = engine.explain(request(paper_region, refinement="envelope"))
        assert plan.search_backend in ("flat", "python")
        assert plan.frontier == "peel-envelope"
        assert f"backend={plan.search_backend}" in plan.summary()
        warm = request(paper_region, refinement="envelope")
        ran = engine.search(warm).extra["engine"]["search_backend"]
        assert engine.explain(warm).search_backend == ran
        local = engine.explain(request(
            paper_region, algorithm="local", strategy="eq4",
        ))
        assert local.frontier == "push-eq4"

    def test_infeasible_plan_has_no_search_backend(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        infeasible = MACRequest.make((2,), 6, 9.0, paper_region)
        engine.search(infeasible)
        plan = engine.explain(infeasible)
        assert plan.algorithm == "none"
        assert plan.search_backend == "none"
        assert plan.frontier == "none"
