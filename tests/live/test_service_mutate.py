"""`POST /v1/admin/mutate` end to end: client, telemetry, delta logging."""

import sys
import threading

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import MutationError, QueryError
from repro.live import add_social_edge, update_attributes
from repro.road.network import SpatialPoint
from repro.service import MACService, ServiceClient
from repro.service.executor import EngineExecutor
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store import fingerprint as fp_module
from repro.store import read_deltas

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])


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


class TestMutateEndpoint:
    def test_mutate_and_serve_from_the_mutated_graph(self):
        svc = MACService(MACEngine(make_network()), port=0, max_concurrency=2)
        with svc, ServiceClient(port=svc.port) as client:
            summary = client.mutate([
                add_social_edge(1, 4),
                {"op": "update_attributes", "user": 3,
                 "attributes": [9.5, 9.5, 9.5]},
            ])
            assert summary["applied"] == 2
            assert summary["delta_seq"] == 1
            assert summary["logged"] is False  # no snapshot behind this server

            def mutate(network):
                network.social.graph.add_edge(1, 4)
                network.social.set_attributes(3, (9.5, 9.5, 9.5))

            request = make_request()
            expected = MACEngine(make_network(mutate)).search(request)
            served = client.search(request)
            assert served.htk_vertices == expected.htk_vertices
            assert [sorted(p.best) for p in served.partitions] == \
                [sorted(e.best.members) for e in expected.partitions]

            health = client.healthz()
            assert health["snapshot"]["delta_seq"] == 1
            metrics = client.metrics()
            assert metrics["service"]["mutations"] == 1
            assert metrics["service"]["deltas_logged"] == 0
            assert metrics["engine"]["mutations"] == 2
            assert metrics["engine"]["mutations_by_kind"] == {
                "add_social_edge": 1, "update_attributes": 1,
            }

    def test_invalid_batch_is_a_typed_400(self):
        svc = MACService(MACEngine(make_network()), port=0, max_concurrency=2)
        with svc, ServiceClient(port=svc.port) as client:
            with pytest.raises(MutationError, match="already exists"):
                client.mutate([add_social_edge(2, 3)])
            assert client.healthz()["snapshot"]["delta_seq"] == 0

    def test_empty_batch_is_a_query_error(self):
        svc = MACService(MACEngine(make_network()), port=0, max_concurrency=2)
        with svc, ServiceClient(port=svc.port) as client:
            with pytest.raises(QueryError, match="non-empty"):
                client._call("POST", "/v1/admin/mutate", {"mutations": []})
            with pytest.raises(QueryError, match="mutations"):
                client._call("POST", "/v1/admin/mutate", {"batch": []})

    def test_mutations_are_logged_beside_the_snapshot(self, tmp_path):
        snapshot = tmp_path / "snap"
        network = make_network()
        MACEngine(network).save(snapshot)
        engine = MACEngine.load(snapshot, network)
        svc = MACService(
            engine, port=0, max_concurrency=2, snapshot_path=str(snapshot)
        )
        with svc, ServiceClient(port=svc.port) as client:
            summary = client.mutate([update_attributes(3, [9.5, 9.5, 9.5])])
            assert summary["logged"] is True
            assert client.metrics()["service"]["deltas_logged"] == 1
        records = read_deltas(snapshot)
        assert [r["seq"] for r in records] == [1]
        assert records[0]["mutations"] == [{
            "op": "update_attributes", "user": 3,
            "attributes": [9.5, 9.5, 9.5],
        }]
        # a later boot from the same snapshot replays the mutation
        replayed = MACEngine.load(snapshot, make_network())
        assert replayed.delta_seq == 1
        assert list(
            replayed.network.social.attributes[3]
        ) == [9.5, 9.5, 9.5]


class TestThreadsTierFingerprint:
    def test_hash_overlapping_an_apply_is_never_cached(self, monkeypatch):
        """A digest whose hashing started before an apply and finished
        after it must not be cached as the post-mutation fingerprint."""
        network = make_network()
        applying, finish_apply = threading.Event(), threading.Event()
        hashed, finish_hash = threading.Event(), threading.Event()

        class GatedEngine:
            """Half-applies, waits on a gate, then finishes the batch."""

            def __init__(self):
                self.network = network

            def apply(self, _mutations):
                network.social.graph.add_edge(1, 4)
                applying.set()
                assert finish_apply.wait(timeout=30)
                network.social.graph.add_edge(1, 15)
                return {"applied": 2}

        real = fp_module.network_fingerprint

        def gated_fingerprint(net):
            digest = real(net)
            if not hashed.is_set():
                hashed.set()
                assert finish_hash.wait(timeout=30)
            return digest

        monkeypatch.setattr(fp_module, "network_fingerprint", gated_fingerprint)
        executor = EngineExecutor(GatedEngine())
        mutator = threading.Thread(target=executor.mutate_wire, args=([],))
        mutator.start()
        assert applying.wait(timeout=30)
        # Hash the mid-mutation state, then hold the result until the
        # apply and the cache reset that follows it have both finished.
        hasher = threading.Thread(target=executor.fingerprint)
        hasher.start()
        assert hashed.wait(timeout=30)
        finish_apply.set()
        mutator.join(timeout=30)
        finish_hash.set()
        hasher.join(timeout=30)
        assert not mutator.is_alive() and not hasher.is_alive()

        def mutate(net):
            net.social.graph.add_edge(1, 4)
            net.social.graph.add_edge(1, 15)

        assert executor.fingerprint() == real(make_network(mutate))
        assert executor.snapshot_wire()["fingerprint"] == real(
            make_network(mutate)
        )

    def test_concurrent_hashing_never_caches_a_stale_digest(self):
        """Stress: hashers racing a stream of real applies; once the
        writes stop, the reported digest is the live network's."""
        engine = MACEngine(make_network())
        executor = EngineExecutor(engine)
        done = threading.Event()

        def hash_loop():
            while not done.is_set():
                executor.fingerprint()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        hashers = [threading.Thread(target=hash_loop) for _ in range(4)]
        try:
            for thread in hashers:
                thread.start()
            for n in range(30):
                op = "add_social_edge" if n % 2 == 0 else "remove_social_edge"
                executor.mutate_wire([{"op": op, "u": 1, "v": 4}])
            executor.mutate_wire([add_social_edge(1, 15)])
        finally:
            done.set()
            for thread in hashers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in hashers)
        assert executor.fingerprint() == fp_module.network_fingerprint(
            engine.network
        )
