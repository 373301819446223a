"""Zero-downtime operations: live snapshot swap and dynamic resizing."""

import threading
import time

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import ReloadError, ServiceError, WorkerCrashed
from repro.pool import WorkerPool
from repro.pool.pool import _MAX_FAST_CRASHES, _backoff_delay
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


def make_request(seed: int = 0, **knobs) -> MACRequest:
    return MACRequest.make((2, 3, 6), 3, 9.0, REGION, **knobs)


def wait_until(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached before timeout")


class PoisonedEngine:
    """Delegates everything, but dies at worker boot: the forked child
    calls ``reset_telemetry`` before its ready handshake."""

    def __init__(self, engine: MACEngine) -> None:
        self._engine = engine

    def reset_telemetry(self) -> None:
        raise RuntimeError("poisoned engine: refuses to boot in a worker")

    def __getattr__(self, name):
        return getattr(self._engine, name)


@pytest.fixture
def network():
    return make_network()


@pytest.fixture
def engine(network):
    return MACEngine(network)


class TestLiveSwap:
    def test_swap_loses_no_request_and_flips_atomically(self, network, engine):
        with WorkerPool(engine, 2) as pool:
            assert pool.search_wire(make_request())["partitions"]
            assert pool.generation == 0
            before_tel = pool.telemetry_wire()["searches"]

            failures: list[BaseException] = []
            served = [0]
            stop = threading.Event()

            def hammer() -> None:
                while not stop.is_set():
                    try:
                        pool.search_wire(make_request())
                        served[0] += 1
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            try:
                summary = pool.swap(
                    MACEngine(network), source="swap-test", index_digest="b2"
                )
            finally:
                stop.set()
                for t in threads:
                    t.join()

            # The invariants of the tentpole: nothing lost, identity
            # flipped atomically, telemetry monotone across generations.
            assert failures == []
            assert served[0] > 0
            assert summary["generation"] == 1
            assert summary["drained"] + summary["terminated"] == 2
            wire = pool.snapshot_wire()
            assert wire == {
                "fingerprint": summary["fingerprint"],
                "generation": 1,
                "source": "swap-test",
                "index_digest": "b2",
                "delta_seq": 0,
            }
            assert all(
                w["generation"] == 1 for w in pool.workers_wire()["workers"]
            )
            after_tel = pool.telemetry_wire()["searches"]
            assert after_tel >= before_tel + served[0]
            assert pool.search_wire(make_request())["partitions"]

    def test_failed_swap_rolls_back_and_keeps_serving(self, network, engine):
        with WorkerPool(engine, 2) as pool:
            before = pool.snapshot_wire()
            with pytest.raises(ReloadError, match="rolled back"):
                pool.swap(PoisonedEngine(MACEngine(network)))
            assert pool.snapshot_wire() == before
            assert pool.workers_wire()["alive"] == 2
            assert pool.search_wire(make_request())["partitions"]
            # A good swap afterwards still lands on generation 1: the
            # failed attempt consumed no generation number.
            assert pool.swap(MACEngine(network))["generation"] == 1

    def test_swap_requires_a_started_pool(self, engine):
        pool = WorkerPool(engine, 1)
        with pytest.raises(ReloadError, match="not started"):
            pool.swap(engine)

    def test_in_flight_drain_casualty_is_typed(self, network, engine):
        with WorkerPool(engine, 1) as pool:
            stuck = pool.submit_op(0, "sleep", 60.0)
            summary = pool.swap(MACEngine(network), drain_timeout=0.3)
            # The sleeper could not drain in time: it was terminated and
            # its in-flight request failed typed — never silently lost.
            assert summary["terminated"] == 1
            with pytest.raises(
                WorkerCrashed, match="was retired by a live snapshot swap"
            ):
                stuck.result(timeout=30)
            assert pool.search_wire(make_request())["partitions"]


class TestResize:
    def test_grow_then_shrink(self, engine):
        with WorkerPool(engine, 2) as pool:
            grown = pool.resize(4)
            assert grown == {
                "workers": 4, "previous": 2, "grown": 2, "retired": 0,
                "drained": 0, "terminated": 0,
                "elapsed_s": grown["elapsed_s"],
            }
            assert pool.num_workers == 4
            assert pool.workers_wire()["alive"] == 4
            assert {
                w["generation"] for w in pool.workers_wire()["workers"]
            } == {0}
            for _ in range(4):
                assert pool.search_wire(make_request())["partitions"]

            shrunk = pool.resize(2)
            assert shrunk["retired"] == 2
            assert shrunk["drained"] + shrunk["terminated"] == 2
            assert pool.num_workers == 2
            wait_until(lambda: pool.workers_wire()["alive"] == 2)
            assert pool.search_wire(make_request())["partitions"]

    def test_shrink_finishes_in_flight_requests(self, engine):
        with WorkerPool(engine, 2) as pool:
            stuck = pool.submit_op(1, "sleep", 0.4)
            summary = pool.resize(1)
            assert summary["drained"] == 1
            assert stuck.result(timeout=30) == {"slept": 0.4}

    def test_in_flight_shrink_casualty_is_typed(self, engine):
        with WorkerPool(engine, 2) as pool:
            stuck = pool.submit_op(1, "sleep", 60.0)
            summary = pool.resize(1, drain_timeout=0.3)
            assert summary["terminated"] == 1
            with pytest.raises(WorkerCrashed, match="was retired by a fleet shrink"):
                stuck.result(timeout=30)
            assert pool.workers_wire()["draining"] == 0
            assert pool.search_wire(make_request())["partitions"]

    def test_resize_validates_num_workers(self, engine):
        with WorkerPool(engine, 1) as pool:
            with pytest.raises(ServiceError, match="num_workers"):
                pool.resize(0)

    def test_noop_resize(self, engine):
        with WorkerPool(engine, 2) as pool:
            summary = pool.resize(2)
            assert summary["grown"] == 0 and summary["retired"] == 0
            assert pool.workers_wire()["alive"] == 2

    def test_telemetry_monotone_across_shrink(self, engine):
        with WorkerPool(engine, 2) as pool:
            pool.search_wire(make_request())
            before = pool.telemetry_wire()["searches"]
            pool.resize(1)
            assert pool.telemetry_wire()["searches"] >= before


class TestCrashLoopBackoff:
    def test_backoff_schedule_is_exponential_and_capped(self):
        delays = [_backoff_delay(n) for n in range(1, _MAX_FAST_CRASHES + 1)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[-1] == 2.0  # capped
        assert _backoff_delay(100) == 2.0

    def test_crash_loop_backs_off_and_reports_state(self, engine):
        # Kill every incarnation on its first ping: a crash loop.
        from repro.pool import FaultPlan

        plan = FaultPlan.parse(
            {"kind": "kill", "slot": 0, "op": "ping", "after": 1,
             "incarnation": None}
        )
        with WorkerPool(engine, 1, fault_plan=plan) as pool:
            for _ in range(2):
                wait_until(lambda: pool.pool_wire()["workers"][0]["alive"])
                with pytest.raises(WorkerCrashed):
                    pool.submit_op(0, "ping").result(timeout=30)
            wait_until(
                lambda: pool.pool_wire()["workers"][0]["crash_loops"] >= 2
            )
            slot = pool.pool_wire()["workers"][0]
            assert slot["restarts"] >= 2
            # The supervisor is backing off, not fork-bombing: the
            # pending respawn carries a positive delay.
            assert (
                slot["restart_backoff_remaining"] > 0.0 or slot["alive"]
            )
