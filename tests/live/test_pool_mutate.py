"""Fleet-wide mutation broadcast across the worker-process tier."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.engine.engine as engine_module
import repro.store.fingerprint as fp_module
from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import MutationError, ReloadError
from repro.live import add_social_edge, remove_social_edge, update_attributes
from repro.pool import WorkerPool
from repro.road.network import SpatialPoint
from repro.service.protocol import result_to_wire
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store.fingerprint import network_fingerprint

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

STABLE = ("query", "partitions", "htk_vertices", "htk_edges")


def make_network(mutate=None) -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    network = RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )
    if mutate is not None:
        mutate(network)
    return network


def make_request(**knobs) -> MACRequest:
    knobs.setdefault("algorithm", "global")
    return MACRequest.make((2, 3, 6), 3, 9.0, REGION, **knobs)


def stable(wire: dict) -> dict:
    return {key: wire[key] for key in STABLE}


def add_1_4(network) -> None:
    network.social.graph.add_edge(1, 4)


def respawned(pool: WorkerPool, slot: int, old_pid: int) -> dict:
    """Wait for ``slot``'s replacement worker to be up; its entry."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        entry = pool.workers_wire()["workers"][slot]
        if entry["alive"] and entry["pid"] not in (None, old_pid):
            return entry
        time.sleep(0.02)
    raise AssertionError(f"worker {slot} was never respawned")


class ContendedLock:
    """A mutex that signals once some thread has to wait for it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.contended = threading.Event()

    def __enter__(self) -> "ContendedLock":
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestBroadcast:
    def test_batch_reaches_every_worker_uniformly(self):
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            summary = pool.mutate_wire([{"op": "add_social_edge", "u": 1, "v": 4}])
            assert summary["applied"] == 1
            assert summary["workers"] == 2
            assert summary["applied_workers"] == 2
            assert summary["uniform"] is True
            assert summary["respawned"] == 0
            assert summary["delta_seq"] == 1
            mutated = make_network(add_1_4)
            assert summary["fingerprint"] == network_fingerprint(mutated)
            assert pool.snapshot_wire()["delta_seq"] == 1
            assert pool.fingerprint == summary["fingerprint"]
            for entry in pool.workers_wire()["workers"]:
                assert entry["fingerprint"] == summary["fingerprint"]

            # post-mutation, every query answers from the mutated graph
            request = make_request()
            expected = result_to_wire(MACEngine(mutated).search(request))
            for _ in range(4):  # both workers take a turn
                assert stable(pool.search_wire(request)) == stable(expected)
            assert pool.pool_wire()["mutations"] == 1

    def test_rejected_batch_leaves_the_fleet_serving(self):
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            with pytest.raises(MutationError, match="already exists"):
                pool.mutate_wire([add_social_edge(2, 3)])
            assert pool.snapshot_wire()["delta_seq"] == 0
            request = make_request()
            expected = result_to_wire(MACEngine(make_network()).search(request))
            assert stable(pool.search_wire(request)) == stable(expected)

    def test_unstarted_pool_is_typed(self):
        pool = WorkerPool(MACEngine(make_network()), 1)
        with pytest.raises(ReloadError, match="not started"):
            pool.mutate_wire([add_social_edge(1, 4)])

    def test_sequential_batches_advance_delta_seq(self):
        with WorkerPool(MACEngine(make_network()), 1) as pool:
            pool.mutate_wire([add_social_edge(1, 4)])
            summary = pool.mutate_wire([{"op": "remove_social_edge", "u": 1, "v": 4}])
            assert summary["delta_seq"] == 2
            assert summary["uniform"] is True
            assert pool.snapshot_wire()["delta_seq"] == 2
            # add + remove round-trips to the original content
            assert summary["fingerprint"] == network_fingerprint(make_network())


class TestRespawnRace:
    def test_respawn_held_between_fork_and_slot_gets_the_batch(self):
        """A respawn forked before a mutation and placed in its slot
        after it must still serve post-mutation content and report the
        post-mutation fingerprint: fork + placement and apply + the
        broadcast list are one critical section each."""
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            request = make_request()
            victim = pool.route_for(request)
            forked = threading.Event()
            gate = threading.Event()
            real_fork = pool._fork

            def held_fork(slot, *args):
                worker = real_fork(slot, *args)
                if slot == victim:
                    forked.set()
                    gate.wait(timeout=30)
                return worker

            pool._fork = held_fork
            fork_lock = pool._fork_lock = ContendedLock()
            pid = pool.workers_wire()["workers"][victim]["pid"]
            os.kill(pid, signal.SIGKILL)
            assert forked.wait(timeout=30), "supervisor never respawned"

            summaries = []

            def mutate():
                summaries.append(pool.mutate_wire([add_social_edge(1, 4)]))

            mutator = threading.Thread(target=mutate)
            mutator.start()
            # The held respawn owns the fork lock: release it only once
            # the mutation is provably waiting on it.
            assert fork_lock.contended.wait(timeout=30)
            gate.set()
            mutator.join(timeout=30)
            assert summaries and summaries[0]["uniform"] is True
            summary = summaries[0]
            mutated = make_network(add_1_4)
            assert summary["fingerprint"] == network_fingerprint(mutated)
            entry = respawned(pool, victim, pid)
            assert entry["fingerprint"] == summary["fingerprint"]
            expected = result_to_wire(MACEngine(mutated).search(request))
            reply = pool.submit_op(victim, "search", (request, time.monotonic()))
            assert stable(reply.result(timeout=30)) == stable(expected)


class TestDivergence:
    """The parent kills a worker whose digest disagrees or whose apply
    fails, and refills the slot from the mutated parent engine."""

    def assert_refilled(self, pool: WorkerPool, slot: int, pid: int, summary):
        assert summary["uniform"] is False
        assert summary["respawned"] == 1
        assert summary["applied_workers"] == 1
        mutated = make_network(add_1_4)
        assert summary["fingerprint"] == network_fingerprint(mutated)
        entry = respawned(pool, slot, pid)
        assert entry["fingerprint"] == summary["fingerprint"]
        request = make_request()
        expected = result_to_wire(MACEngine(mutated).search(request))
        reply = pool.submit_op(slot, "search", (request, time.monotonic()))
        assert stable(reply.result(timeout=30)) == stable(expected)
        # The refilled worker's engine maintains the fleet digest too.
        follow_up = pool.mutate_wire([remove_social_edge(1, 4)])
        assert follow_up["uniform"] is True
        assert follow_up["applied_workers"] == 2
        assert follow_up["fingerprint"] == network_fingerprint(make_network())

    def test_worker_a_batch_ahead_is_killed(self):
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            ahead = [update_attributes(3, [9.5, 9.5, 9.5])]
            pool.submit_op(0, "mutate", ahead).result(timeout=30)
            pid = pool.workers_wire()["workers"][0]["pid"]
            summary = pool.mutate_wire([add_social_edge(1, 4)])
            self.assert_refilled(pool, 0, pid, summary)

    def test_worker_whose_apply_fails_is_killed(self):
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            # Worker 1 already holds the edge: its copy of the fleet
            # batch fails validation while the parent's applies.
            pool.submit_op(1, "mutate", [add_social_edge(1, 4)]).result(timeout=30)
            pid = pool.workers_wire()["workers"][1]["pid"]
            summary = pool.mutate_wire([add_social_edge(1, 4)])
            self.assert_refilled(pool, 1, pid, summary)


class TestMutationCost:
    def test_mutate_wire_never_recomputes_a_digest(self, monkeypatch):
        """Neither the parent nor any worker hashes the whole network
        on the mutation path; each engine advances its own digest."""
        calls = multiprocessing.Value("i", 0)  # shared with the forks
        real = fp_module.network_digest

        def counting(network):
            with calls.get_lock():
                calls.value += 1
            return real(network)

        for module in (fp_module, engine_module):
            monkeypatch.setattr(module, "network_digest", counting)
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            assert calls.value == 1  # start(): once, before forking
            for n in range(4):
                toggle = add_social_edge if n % 2 == 0 else remove_social_edge
                summary = pool.mutate_wire([toggle(1, 4)])
                assert summary["uniform"] is True
                assert summary["applied_workers"] == 2
                assert summary["broadcast_s"] >= summary["worker_apply_s"] > 0
            assert calls.value == 1
        assert summary["fingerprint"] == network_fingerprint(make_network())
