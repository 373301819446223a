"""Fleet-wide mutation broadcast across the worker-process tier."""

import os
import signal
import threading
import time

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import MutationError, ReloadError
from repro.live import add_social_edge
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


class TestBroadcast:
    def test_batch_reaches_every_worker_uniformly(self):
        with WorkerPool(MACEngine(make_network()), 2) as pool:
            summary = pool.mutate_wire(
                [{"op": "add_social_edge", "u": 1, "v": 4}]
            )
            assert summary["applied"] == 1
            assert summary["workers"] == 2
            assert summary["applied_workers"] == 2
            assert summary["uniform"] is True
            assert summary["respawned"] == 0
            assert summary["delta_seq"] == 1

            def mutate(network):
                network.social.graph.add_edge(1, 4)

            mutated = make_network(mutate)
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
            summary = pool.mutate_wire(
                [{"op": "remove_social_edge", "u": 1, "v": 4}]
            )
            assert summary["delta_seq"] == 2
            assert summary["uniform"] is True
            assert pool.snapshot_wire()["delta_seq"] == 2
            # add + remove round-trips to the original content
            assert summary["fingerprint"] == network_fingerprint(
                make_network()
            )


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
            pid = pool.workers_wire()["workers"][victim]["pid"]
            os.kill(pid, signal.SIGKILL)
            assert forked.wait(timeout=30), "supervisor never respawned"

            summaries = []
            mutator = threading.Thread(
                target=lambda: summaries.append(
                    pool.mutate_wire([add_social_edge(1, 4)])
                )
            )
            mutator.start()
            time.sleep(0.3)  # let a racing mutation finish first, if it can
            gate.set()
            mutator.join(timeout=30)
            assert summaries and summaries[0]["uniform"] is True
            summary = summaries[0]

            def mutate(network):
                network.social.graph.add_edge(1, 4)

            mutated = make_network(mutate)
            assert summary["fingerprint"] == network_fingerprint(mutated)

            def respawned() -> dict | None:
                entry = pool.workers_wire()["workers"][victim]
                alive = entry["alive"] and entry["pid"] not in (None, pid)
                return entry if alive else None

            deadline = time.monotonic() + 30
            while respawned() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            entry = respawned()
            assert entry is not None, "respawned worker never became ready"
            assert entry["fingerprint"] == summary["fingerprint"]
            expected = result_to_wire(MACEngine(mutated).search(request))
            reply = pool.submit_op(
                victim, "search", (request, time.monotonic())
            ).result(timeout=30)
            assert stable(reply) == stable(expected)
