"""Live-server tests: a background `MACService` driven by `ServiceClient`."""

import http.client
import json
import threading
import time

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import (
    DeadlineExceeded,
    QueryError,
    ServiceError,
    ServiceOverloaded,
)
from repro.road.network import SpatialPoint
from repro.service import MACService, ServiceClient
from repro.service.protocol import request_to_wire, result_from_wire
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


def make_request(k: int = 3, **knobs) -> MACRequest:
    return MACRequest.make((2, 3, 6), k, 9.0, REGION, **knobs)


class SlowEngine:
    """Engine wrapper that stalls requests labelled ``"slow"``."""

    def __init__(self, engine: MACEngine, delay: float) -> None:
        self._engine = engine
        self.delay = delay

    def search(self, request):
        if request.label == "slow":
            time.sleep(self.delay)
        return self._engine.search(request)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@pytest.fixture(scope="module")
def service():
    svc = MACService(
        MACEngine(make_network()),
        port=0, max_concurrency=2, queue_depth=8,
    )
    with svc:
        yield svc


@pytest.fixture
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


class TestLegacyBackendField:
    """Protocol v3 still accepts the removed ``backend`` knob and drops it."""

    def search(self, client, wire):
        return result_from_wire(
            client._call("POST", "/v1/search", wire)["result"]
        )

    def test_backend_is_dropped_from_the_result_identity(self, client):
        wire = request_to_wire(
            make_request(algorithm="local", max_candidates=23, label="legacy")
        )
        legacy = self.search(client, {**wire, "backend": "python"})
        assert legacy.extra["engine"]["cache"]["result"] == "miss"
        plain = self.search(client, wire)
        assert plain.communities() == legacy.communities()
        assert plain.extra["engine"]["cache"] == {"result": "hit"}

    def test_unknown_backend_is_a_400_query_error(self, service):
        wire = request_to_wire(make_request())
        conn = http.client.HTTPConnection("127.0.0.1", service.port)
        try:
            conn.request(
                "POST", "/v1/search",
                body=json.dumps({**wire, "backend": "numpy"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "QueryError"
        assert "backend" in payload["error"]["message"]


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol_version"] == 3
        assert health["admission"]["capacity"] == 2

    def test_search_matches_in_process_engine(self, client):
        request = make_request(algorithm="global")
        served = client.search(request)
        local = MACEngine(make_network()).search(request)
        assert served.htk_vertices == local.htk_vertices
        assert [sorted(p.best) for p in served.partitions] == \
            [sorted(e.best.members) for e in local.partitions]

    def test_repeat_search_hits_result_cache(self, client):
        request = make_request(algorithm="local", label="warmup")
        client.search(request)
        again = client.search(request)
        assert again.extra["engine"]["cache"] == {"result": "hit"}

    def test_batch_preserves_order(self, client):
        requests = [
            make_request(algorithm="global", label="g"),
            make_request(algorithm="local", label="l"),
            make_request(k=9, label="infeasible"),
        ]
        results = client.search_batch(requests, workers=2)
        assert [r.extra["engine"]["label"] for r in results] == \
            ["g", "l", "infeasible"]
        assert results[2].is_empty

    def test_batch_item_error_raises_typed_by_default(self, client):
        good = make_request(algorithm="local")
        # A partition budget of 1 makes the global search raise QueryError.
        bad = make_request(algorithm="global", max_partitions=1)
        with pytest.raises(QueryError, match="partition budget"):
            client.search_batch([good, bad])

    def test_batch_return_errors_collects_partial_results(self, client):
        good = make_request(algorithm="local")
        bad = make_request(algorithm="global", max_partitions=1)
        out = client.search_batch([good, bad], return_errors=True)
        assert not out[0].is_empty
        assert isinstance(out[1], QueryError)

    def test_explain(self, client):
        plan = client.explain(make_request(algorithm="global"))
        assert plan.searcher == "GS-NC"
        assert "plan for" in plan.summary()
        # explain after the earlier searches sees the cached stages
        assert plan.cached["filter"] is True

    def test_metrics_counters(self, client):
        before = client.metrics()
        client.search(make_request(algorithm="local"))
        after = client.metrics()
        assert after["service"]["served"] == before["service"]["served"] + 1
        assert after["engine"]["searches"] >= before["engine"]["searches"] + 1
        assert after["service"]["rejected"] >= 0
        assert set(after["engine"]["caches"]) == {
            "filter", "core", "dominance", "result",
        }


class TestDeadlines:
    def test_deadline_returns_typed_error_not_a_hang(self, client, service):
        rejected_before = service.engine.telemetry().deadline_exceeded
        with pytest.raises(DeadlineExceeded, match="deadline"):
            client.search(
                make_request(algorithm="global", deadline=1e-7, label="doom")
            )
        metrics = client.metrics()
        assert metrics["service"]["deadline_exceeded"] >= 1
        # the engine may or may not have been reached before the queue
        # check fired; either way nothing hung and the counter moved
        assert service.engine.telemetry().deadline_exceeded >= rejected_before

    def test_batch_deadline_is_per_item(self, client):
        out = client.search_batch(
            [
                make_request(algorithm="local", label="ok"),
                make_request(algorithm="global", deadline=1e-7, label="doom"),
            ],
            return_errors=True,
        )
        assert not out[0].is_empty
        assert isinstance(out[1], DeadlineExceeded)

    def test_pool_queue_wait_counts_against_budget(self):
        """A budgeted search queued behind a batch's pool items must
        fail typed — the semaphore can be free while the pool is full."""
        engine = SlowEngine(MACEngine(make_network()), delay=1.2)
        svc = MACService(engine, port=0, max_concurrency=2, queue_depth=8)
        with svc:
            batch_done: dict = {}

            def batch_worker() -> None:
                with ServiceClient(port=svc.port) as c:
                    batch_done["results"] = c.search_batch(
                        [
                            make_request(label="slow", algorithm="local"),
                            make_request(
                                k=2, label="slow", algorithm="local"
                            ),
                        ],
                        workers=2,
                    )

            thread = threading.Thread(target=batch_worker)
            thread.start()
            time.sleep(0.3)  # the batch now occupies both pool workers
            with ServiceClient(port=svc.port) as c:
                with pytest.raises(DeadlineExceeded):
                    c.search(make_request(algorithm="local", deadline=0.2))
            thread.join(timeout=15)
            assert len(batch_done["results"]) == 2

    def test_default_deadline_is_stamped_server_side(self):
        svc = MACService(
            MACEngine(make_network()),
            port=0, max_concurrency=1, default_deadline=1e-7,
        )
        with svc, ServiceClient(port=svc.port) as c:
            with pytest.raises(DeadlineExceeded):
                c.search(make_request(algorithm="global"))


class TestAdmissionControl:
    def test_queue_overflow_yields_429_retry_after(self):
        svc = MACService(
            MACEngine(make_network(), result_cache_size=0),
            port=0, max_concurrency=1, queue_depth=0,
        )
        with svc:
            served, rejected = [], []

            def worker(i):
                with ServiceClient(port=svc.port) as c:
                    try:
                        served.append(
                            c.search(make_request(algorithm="global"))
                        )
                    except ServiceOverloaded as exc:
                        rejected.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # capacity 1 + queue 0: at least one served, at least one
            # shed, every shed response carries a backoff hint
            assert served and rejected
            assert all(exc.retry_after >= 1.0 for exc in rejected)
            with ServiceClient(port=svc.port) as c:
                assert c.metrics()["service"]["rejected"] == len(rejected)

    def test_bad_config_is_typed(self):
        with pytest.raises(ServiceError, match="max_concurrency"):
            MACService(MACEngine(make_network()), max_concurrency=0)
        with pytest.raises(ServiceError, match="queue_depth"):
            MACService(MACEngine(make_network()), queue_depth=-1)


class TestHTTPEdges:
    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError, match="unknown endpoint"):
            client._call("GET", "/v1/nope")

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError, match="expects POST"):
            client._call("GET", "/v1/search")

    def test_invalid_json_body_is_400(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port)
        try:
            conn.request(
                "POST", "/v1/search", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "QueryError"
        assert "not valid JSON" in payload["error"]["message"]

    def test_missing_body_is_400(self, client):
        with pytest.raises(QueryError, match="JSON object"):
            client._call("POST", "/v1/search")

    def test_validation_error_is_typed_query_error(self, client):
        with pytest.raises(QueryError, match="missing required field"):
            client._call("POST", "/v1/search", {"k": 3})

    def test_client_rejects_non_request(self, client):
        with pytest.raises(ServiceError, match="MACRequest"):
            client.search({"query": [1]})

    def test_unreachable_server_is_typed(self):
        with ServiceClient(port=1, timeout=1.0) as c:
            with pytest.raises(ServiceError, match="cannot reach"):
                c.healthz()

    def test_client_survives_server_restart_between_calls(self):
        engine = MACEngine(make_network())
        svc1 = MACService(engine, port=0, max_concurrency=1)
        svc1.start_background()
        port = svc1.port
        client = ServiceClient(port=port)
        try:
            assert client.healthz()["status"] == "ok"
            svc1.shutdown()
            svc2 = MACService(engine, port=port, max_concurrency=1)
            svc2.start_background()
            try:
                # the stale keep-alive connection is retried once
                assert client.healthz()["status"] == "ok"
            finally:
                svc2.shutdown()
        finally:
            client.close()


class TestGracefulShutdown:
    def test_in_flight_request_is_drained_on_shutdown(self):
        """stop() must let a mid-request handler deliver its response."""
        engine = SlowEngine(MACEngine(make_network()), delay=1.0)
        svc = MACService(engine, port=0, max_concurrency=2)
        svc.start_background()
        outcome: dict = {}

        def worker() -> None:
            with ServiceClient(port=svc.port) as c:
                outcome["result"] = c.search(
                    make_request(label="slow", algorithm="local")
                )

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.4)  # the request is now executing on the pool
        svc.shutdown()
        thread.join(timeout=10)
        assert "result" in outcome
        assert not outcome["result"].is_empty


class TestConcurrentClients:
    def test_parallel_mixed_load_matches_reference(self, service):
        requests = [
            make_request(algorithm="global", label="g"),
            make_request(algorithm="local", label="l"),
            make_request(k=2, algorithm="local", label="k2"),
            make_request(j=2, problem="topj", algorithm="global", label="j2"),
        ]
        reference = {
            r.label: [sorted(e.best.members) for e in
                      MACEngine(make_network()).search(r).partitions]
            for r in requests
        }
        failures: list = []

        def worker(worker_id):
            try:
                with ServiceClient(port=service.port) as c:
                    for request in requests:
                        got = c.search(request)
                        want = reference[request.label]
                        if [sorted(p.best) for p in got.partitions] != want:
                            failures.append((worker_id, request.label))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((worker_id, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
