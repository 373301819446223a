"""Wire-codec tests: requests, results, plans, telemetry, errors."""

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import (
    DeadlineExceeded,
    QueryError,
    ReproError,
    ServiceError,
    ServiceOverloaded,
    SnapshotError,
)
from repro.service.protocol import (
    error_from_wire,
    error_to_wire,
    plan_from_wire,
    plan_to_wire,
    request_from_wire,
    request_to_wire,
    result_from_wire,
    result_to_wire,
    telemetry_to_wire,
)


@pytest.fixture
def region():
    return PreferenceRegion([0.1, 0.2], [0.5, 0.4])


class TestRequestWire:
    def test_round_trip_minimal(self, region):
        request = MACRequest.make((2, 3, 6), 3, 9.0, region)
        wire = request_to_wire(request)
        assert wire == {
            "query": [2, 3, 6],
            "k": 3,
            "t": 9.0,
            "region": {"lows": [0.1, 0.2], "highs": [0.5, 0.4]},
        }
        assert request_from_wire(wire) == request

    def test_round_trip_full(self, region):
        request = MACRequest.make(
            (6, 3, 2), 3, 9.0, region,
            j=2, problem="topj", algorithm="global", use_gtree=True,
            max_partitions=100, strategy="eq4",
            max_candidates=5, refinement="envelope", certification="chain",
            time_budget=10.0, deadline=2.5, label="x",
        )
        restored = request_from_wire(request_to_wire(request))
        assert restored == request
        # identity-excluded fields still travel
        assert restored.deadline == 2.5
        assert restored.label == "x"

    def test_json_round_trip_is_stable(self, region):
        import json

        request = MACRequest.make((2, 3), 4, 120.0, region, j=3,
                                  problem="topj", deadline=1.0)
        dumped = json.dumps(request_to_wire(request))
        assert request_from_wire(json.loads(dumped)) == request

    @pytest.mark.parametrize("broken, complaint", [
        ("not a dict", "JSON object"),
        ({"k": 3}, "missing required field"),
        ({"query": 5, "k": 3, "t": 1.0,
          "region": {"lows": [0.2], "highs": [0.3]}}, "array of user ids"),
        ({"query": [1], "k": 3, "t": 1.0, "region": [0.1, 0.5]},
         "'lows' and 'highs'"),
        ({"query": [1], "k": 3, "t": 1.0,
          "region": {"lows": [0.2], "highs": [0.3]}, "nope": 1},
         "unknown request field"),
    ])
    def test_malformed_requests_are_typed(self, broken, complaint):
        with pytest.raises(QueryError, match=complaint):
            request_from_wire(broken)

    def test_bad_field_values_stay_typed(self):
        with pytest.raises(ReproError):
            request_from_wire({
                "query": [1], "k": "three", "t": 1.0,
                "region": {"lows": [0.2], "highs": [0.3]},
            })
        with pytest.raises(ReproError):
            request_from_wire({
                "query": [1], "k": 3, "t": 1.0,
                "region": {"lows": ["a"], "highs": [0.3]},
            })


class TestResultWire:
    def test_round_trip(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = MACRequest.make(
            (2, 3, 6), 3, 9.0, paper_region,
            j=2, problem="topj", algorithm="global",
        )
        result = engine.search(request)
        wire = result_to_wire(result)
        view = result_from_wire(wire)
        assert view.htk_vertices == result.htk_vertices
        assert view.htk_edges == result.htk_edges
        assert not view.is_empty
        assert len(view.partitions) == len(result.partitions)
        for entry, got in zip(result.partitions, view.partitions):
            assert [frozenset(c.members) for c in entry.communities] == \
                list(got.communities)
            assert got.best == frozenset(entry.best.members)
        assert view.communities() == {
            frozenset(c.members) for c in result.communities()
        }
        assert view.nc_communities() == {
            frozenset(c.members) for c in result.nc_communities()
        }
        assert view.extra["engine"]["algorithm"] == "global"
        assert view.stats["partitions"] == result.stats.partitions

    def test_empty_result(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        result = engine.search(
            MACRequest.make((2, 3, 6), 9, 9.0, paper_region)
        )
        view = result_from_wire(result_to_wire(result))
        assert view.is_empty and view.communities() == set()

    def test_malformed_payload(self):
        with pytest.raises(ServiceError):
            result_from_wire("nope")
        with pytest.raises(ServiceError):
            result_from_wire({"partitions": [{"weight": "x"}]})


class TestPlanWire:
    def test_round_trip(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = MACRequest.make((2, 3, 6), 3, 9.0, paper_region)
        engine.warm(request)
        plan = engine.explain(request)
        view = plan_from_wire(plan_to_wire(plan))
        assert view.searcher == plan.searcher
        assert view.algorithm == plan.algorithm
        assert view.cached == plan.cached
        assert view.htk_vertices == plan.htk_vertices
        assert view.summary() == plan.summary()

    def test_malformed_payload(self):
        with pytest.raises(ServiceError):
            plan_from_wire({"problem": "nc"})


class TestTelemetryWire:
    def test_counters_survive(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        request = MACRequest.make((2, 3, 6), 3, 9.0, paper_region)
        engine.search(request)
        engine.search(request)
        wire = telemetry_to_wire(engine.telemetry())
        assert wire["searches"] == 2
        assert wire["caches"]["result"]["hits"] == 1
        assert wire["cache_hits"] == engine.telemetry().hits
        assert set(wire["stage_seconds"]) == {
            "filter", "core", "dominance", "search",
        }
        assert wire["deadline_exceeded"] == 0


class TestErrorWire:
    @pytest.mark.parametrize("exc", [
        QueryError("bad k"),
        DeadlineExceeded("too slow"),
        SnapshotError("stale"),
        ServiceError("transport"),
    ])
    def test_typed_round_trip(self, exc):
        rebuilt = error_from_wire(error_to_wire(exc))
        assert type(rebuilt) is type(exc)
        assert str(rebuilt) == str(exc)

    def test_overloaded_carries_retry_after(self):
        wire = error_to_wire(ServiceOverloaded("full", retry_after=7.5))
        assert wire["retry_after"] == 7.5
        rebuilt = error_from_wire(wire)
        assert isinstance(rebuilt, ServiceOverloaded)
        assert rebuilt.retry_after == 7.5

    def test_unknown_types_degrade_to_service_error(self):
        rebuilt = error_from_wire({"type": "Exotic", "message": "m"})
        assert isinstance(rebuilt, ServiceError)
        assert "Exotic" in str(rebuilt)
        assert isinstance(error_from_wire(None), ServiceError)

    def test_non_repro_exception_is_not_impersonated(self):
        wire = error_to_wire(ValueError("x"))
        assert wire["type"] == "ServiceError"
