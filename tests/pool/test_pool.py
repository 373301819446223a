"""Functional tests of the worker tier: dispatch, equivalence, telemetry."""

import time

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import ServiceError
from repro.pool import WorkerPool
from repro.road.network import SpatialPoint
from repro.service.protocol import result_to_wire
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store.fingerprint import network_fingerprint

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

#: Stable result fields: everything except per-call metadata (elapsed,
#: cache hit/miss annotations, stage timings).
STABLE = ("query", "partitions", "htk_vertices", "htk_edges")


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


def make_request(k: int = 3, t: float = 9.0, **knobs) -> MACRequest:
    return MACRequest.make((2, 3, 6), k, t, REGION, **knobs)


def stable(wire: dict) -> dict:
    return {key: wire[key] for key in STABLE}


@pytest.fixture(scope="module")
def engine():
    return MACEngine(make_network())


@pytest.fixture(scope="module")
def pool(engine):
    with WorkerPool(engine, 2, spill_depth=2) as p:
        yield p


class TestValidation:
    def test_rejects_zero_workers(self, engine):
        with pytest.raises(ServiceError, match="num_workers"):
            WorkerPool(engine, 0)

    def test_rejects_bad_spill_depth(self, engine):
        with pytest.raises(ServiceError, match="spill_depth"):
            WorkerPool(engine, 1, spill_depth=0)

    def test_double_start_raises(self, pool):
        with pytest.raises(ServiceError, match="already started"):
            pool.start()


class TestDispatch:
    def test_search_matches_in_process_engine(self, pool):
        request = make_request(algorithm="global")
        expected = result_to_wire(MACEngine(make_network()).search(request))
        assert stable(pool.search_wire(request)) == stable(expected)

    def test_route_is_stable_and_in_range(self, pool):
        request = make_request()
        slot = pool.route_for(request)
        assert 0 <= slot < pool.num_workers
        assert all(pool.route_for(request) == slot for _ in range(5))

    def test_affinity_follows_the_stage_cache_prefix(self, pool):
        # Same (Q, k, t) prefix => same worker, whatever the rest of the
        # request looks like: siblings reuse that worker's stage caches.
        base = make_request()
        sibling = make_request(j=2, problem="topj", label="sibling")
        assert base.core_key == sibling.core_key
        assert pool.route_for(base) == pool.route_for(sibling)
        other = make_request(k=4)
        assert base.core_key != other.core_key  # may still collide mod N

    def test_repeat_search_hits_the_workers_result_cache(self, pool):
        request = make_request(algorithm="local", label="repeat")
        pool.search_wire(request)
        again = pool.search_wire(request)
        assert again["engine"]["cache"] == {"result": "hit"}

    def test_explain(self, pool):
        wire = pool.explain_wire(make_request(algorithm="global"))
        assert wire["searcher"] == "GS-NC"

    def test_unknown_op_surfaces_typed(self, pool):
        with pytest.raises(ServiceError, match="unknown worker op"):
            pool.submit_op(0, "bogus").result(timeout=30)

    def test_spills_off_a_deep_affinity_queue(self, pool):
        request = make_request()
        target = pool.route_for(request)
        before = dict(pool._dispatched)
        # Occupy the affinity worker beyond spill_depth; the other
        # worker is idle, so the next choice must spill to it.
        holds = [
            pool.submit_op(target, "sleep", 0.4)
            for _ in range(pool.spill_depth)
        ]
        chosen = pool._choose(request)
        assert chosen.slot != target
        assert pool._dispatched["spill"] == before["spill"] + 1
        for hold in holds:
            hold.result(timeout=30)
        # Queue drained: affinity routing resumes.
        assert pool._choose(request).slot == target


class TestTelemetry:
    def test_workers_wire_reports_liveness(self, pool, engine):
        wire = pool.workers_wire()
        assert wire["alive"] == wire["total"] == 2
        assert wire["restarts"] == 0
        fingerprint = network_fingerprint(engine.network)
        for entry in wire["workers"]:
            assert entry["alive"] is True
            assert entry["fingerprint"] == fingerprint
        assert pool.fingerprint == fingerprint

    def test_merged_telemetry_counts_fleet_searches(self, pool):
        before = pool.telemetry_wire()["searches"]
        # Distinct result keys (time_budget is part of the key but does
        # not change the local search) => real engine work on whichever
        # workers the requests land on.
        for budget in (111.0, 222.0):
            pool.search_wire(make_request(time_budget=budget))
        after = pool.telemetry_wire()["searches"]
        assert after >= before + 2

    def test_pool_wire_shape(self, pool):
        wire = pool.pool_wire()
        assert wire["num_workers"] == 2
        assert set(wire["dispatched"]) == {"affinity", "spill", "failover"}
        assert len(wire["workers"]) == 2
        for entry in wire["workers"]:
            assert entry["alive"] is True
            assert entry["queue_depth"] == 0
            assert entry["uptime_s"] > 0
            assert entry["qps"] >= 0

    def test_served_counter_advances(self, pool):
        slot = 0
        before = pool.pool_wire()["workers"][slot]["served"]
        pool.submit_op(slot, "ping").result(timeout=30)
        assert pool.pool_wire()["workers"][slot]["served"] == before + 1


class TestDeadlines:
    def test_queue_wait_charged_across_the_process_boundary(self, pool):
        request = make_request(deadline=0.2, label="budgeted")
        slot = pool.route_for(request)
        # Wedge the affinity worker *and* the spill target so the
        # budget burns in the pipe, not in the engine.
        holds = [
            pool.submit_op(s, "sleep", 0.6)
            for s in range(pool.num_workers)
            for _ in range(pool.spill_depth)
        ]
        from repro.errors import DeadlineExceeded

        with pytest.raises(DeadlineExceeded, match="queued for a worker"):
            pool.search_wire(request)
        for hold in holds:
            hold.result(timeout=30)
        del slot


class TestStop:
    def test_stop_is_idempotent_and_fails_late_submissions(self, engine):
        from repro.errors import WorkerCrashed

        pool = WorkerPool(engine, 1).start()
        assert stable(pool.search_wire(make_request())) is not None
        pool.stop()
        pool.stop()  # second stop is a no-op
        with pytest.raises(WorkerCrashed):
            pool.search_wire(make_request())

    def test_stop_fails_in_flight_requests_typed(self, engine):
        from repro.errors import WorkerCrashed

        pool = WorkerPool(engine, 1).start()
        hold = pool.submit_op(0, "sleep", 30.0)
        time.sleep(0.05)
        pool.stop(timeout=0.3)
        with pytest.raises(WorkerCrashed, match="was stopped with the pool"):
            hold.result(timeout=30)
