"""Worker lifecycle: the transition table, and a chaos property test that
drives the pool through random operation sequences under a FaultPlan."""

import itertools
import os
import time
from collections import Counter
from concurrent.futures import wait
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import ReproError
from repro.pool import FaultPlan, WorkerPool
from repro.pool.pool import (
    DEAD,
    DRAINING,
    SERVING,
    STALLED,
    STARTING,
    WorkerState,
)
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

LEGAL = {
    (STARTING, SERVING),
    (STARTING, DRAINING),
    (STARTING, STALLED),
    (STARTING, DEAD),
    (SERVING, DRAINING),
    (SERVING, STALLED),
    (SERVING, DEAD),
    (DRAINING, DEAD),
    (STALLED, DEAD),
}


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


def make_request(t: float = 9.0) -> MACRequest:
    return MACRequest.make((2, 3, 6), 3, t, REGION, algorithm="local")


def wait_until(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached before timeout")


@pytest.fixture(scope="module")
def engine():
    return MACEngine(make_network())


class TestTransitionTable:
    @pytest.mark.parametrize(
        "old, new",
        list(itertools.product(WorkerState, WorkerState)),
        ids=lambda s: s.name,
    )
    def test_every_edge(self, engine, old, new):
        pool = WorkerPool(engine, 1)  # never started: the table only
        worker = SimpleNamespace(state=old, slot=0)
        with pool._lock:
            if (old, new) in LEGAL:
                pool._transition(worker, new)
                assert worker.state is new
            else:
                with pytest.raises(RuntimeError, match="illegal worker transition"):
                    pool._transition(worker, new)
                assert worker.state is old


FAULTS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["kill", "hang", "stall_drain"]),
        "slot": st.sampled_from([None, 0, 1]),
        "op": st.sampled_from(["search", "ping"]),
        "after": st.integers(1, 2),
        "incarnation": st.sampled_from([0, None]),
    }
)

SEARCH = st.tuples(st.just("search"), st.integers(0, 2), st.integers(0, 3))
STEPS = st.one_of(
    SEARCH,
    SEARCH,  # twice: searches are what faults fire on
    st.tuples(st.just("sleep"), st.integers(0, 2)),
    st.tuples(st.just("swap")),
    st.tuples(st.just("resize"), st.integers(1, 3)),
    st.tuples(st.just("mutate")),
)


def fault(kind: str, slot=None, op: str = "search", incarnation=0) -> dict:
    return {
        "kind": kind,
        "slot": slot,
        "op": op,
        "after": 1,
        "incarnation": incarnation,
    }


def fault_spec(drawn: dict) -> dict:
    spec = dict(drawn)
    if spec["kind"] == "stall_drain":
        del spec["op"], spec["after"]
        spec["seconds"] = 0.6
    return spec


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    faults=st.lists(FAULTS, max_size=2),
    steps=st.lists(STEPS, min_size=1, max_size=6),
)
@example(  # a wedged search, killed by the watchdog, then swap and shrink
    faults=[fault("hang")],
    steps=[("search", 0, 0), ("sleep", 1), ("swap",), ("resize", 1)],
)
@example(  # drains that time out, a heartbeat crash, a broadcast
    faults=[fault("stall_drain", incarnation=None), fault("kill", 1, op="ping")],
    steps=[
        ("sleep", 0),
        ("sleep", 1),
        ("resize", 1),
        ("mutate",),
        ("resize", 2),
        ("swap",),
    ],
)
def test_random_operations_keep_the_invariants(faults, steps):
    plan = FaultPlan.parse([fault_spec(spec) for spec in faults])
    pool = WorkerPool(
        MACEngine(make_network()),  # mutated in place: one per example
        2,
        drain_timeout=0.3,
        stall_timeout=0.5,
        fault_plan=plan,
    )
    pids: list[int] = []
    real_fork = pool._fork

    def tracking_fork(*args):
        worker = real_fork(*args)
        pids.append(worker.process.pid)
        return worker

    pool._fork = tracking_fork
    futures = []
    outcomes = []
    edge_present = False
    last_restarts = last_searches = 0

    def check_monotone() -> None:
        nonlocal last_restarts, last_searches
        restarts = pool.workers_wire()["restarts"]
        searches = pool.telemetry_wire(timeout=0.3)["searches"]
        assert restarts >= last_restarts
        assert searches >= last_searches
        last_restarts, last_searches = restarts, searches

    pool.start()
    try:
        for step in steps:
            kind = step[0]
            try:
                if kind == "search":
                    payload = (make_request(9.0 + step[2] / 10), time.monotonic())
                    futures.append(pool.submit_op(step[1], "search", payload))
                elif kind == "sleep":
                    futures.append(pool.submit_op(step[1], "sleep", 0.2))
                elif kind == "swap":
                    pool.swap(MACEngine(make_network()), drain_timeout=0.3)
                    edge_present = False
                elif kind == "resize":
                    pool.resize(step[1], drain_timeout=0.3)
                else:
                    op = "remove_social_edge" if edge_present else "add_social_edge"
                    pool.mutate_wire([{"op": op, "u": 1, "v": 4}])
                    edge_present = not edge_present
            except ReproError as exc:
                outcomes.append(exc)  # typed: a dead slot or a rolled-back op
            with pool._lock:
                serving = Counter(w.slot for w in pool._procs if w.state is SERVING)
            assert all(count <= 1 for count in serving.values()), serving
            check_monotone()
    finally:
        pool.stop(timeout=0.5)

    done, not_done = wait(futures, timeout=10)
    assert not not_done
    for future in done:
        exc = future.exception()
        assert exc is None or isinstance(exc, ReproError), exc
    assert all(isinstance(exc, ReproError) for exc in outcomes)
    wait_until(lambda: not pool._procs, timeout=10)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
