"""Deadline-aware shedding and brownout degradation under pressure."""

import threading
import time

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import (
    DeadlineExceeded,
    ServiceError,
    ServiceOverloaded,
)
from repro.road.network import SpatialPoint
from repro.service import MACService, ServiceClient
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


def wait_until(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition not reached before timeout")


class CountingEngine:
    """Engine wrapper that records which labels reached ``search``
    and stalls requests labelled ``"slow"``."""

    def __init__(self, engine: MACEngine, delay: float = 0.0) -> None:
        self._engine = engine
        self.delay = delay
        self.labels: list = []

    def search(self, request):
        self.labels.append(request.label)
        if request.label == "slow":
            time.sleep(self.delay)
        return self._engine.search(request)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def occupy_slots(port: int, count: int) -> list:
    """Fill ``count`` compute slots with slow searches; returns threads."""
    threads = []
    for i in range(count):
        def run(k=2 + i):
            with ServiceClient(port=port) as c:
                c.search(make_request(k=k, label="slow", algorithm="local"))
        t = threading.Thread(target=run)
        t.start()
        threads.append(t)
    return threads


class TestQueueExpiryShedding:
    def test_expired_in_queue_never_reaches_a_worker(self):
        """A request whose deadline died in the admission queue is
        failed typed before dispatch — the engine never sees it."""
        engine = CountingEngine(MACEngine(make_network()), delay=1.0)
        svc = MACService(engine, port=0, max_concurrency=1, queue_depth=8)
        with svc:
            threads = occupy_slots(svc.port, 1)
            time.sleep(0.3)  # the slow search now holds the only slot
            with ServiceClient(port=svc.port) as c:
                with pytest.raises(DeadlineExceeded, match="queue"):
                    c.search(
                        make_request(
                            label="doomed", algorithm="local", deadline=0.2
                        )
                    )
                metrics = c.metrics()
            for t in threads:
                t.join(timeout=15)
            assert "doomed" not in engine.labels
            assert metrics["degradation"]["shed_expired"] >= 1

    def test_expired_anytime_request_still_serves_partial(self):
        """The PR-8 contract survives the shed path: an anytime request
        whose budget died queueing is clamped, not rejected."""
        engine = CountingEngine(MACEngine(make_network()), delay=1.0)
        svc = MACService(engine, port=0, max_concurrency=1, queue_depth=8)
        with svc:
            threads = occupy_slots(svc.port, 1)
            time.sleep(0.3)
            with ServiceClient(port=svc.port) as c:
                result = c.search(
                    make_request(
                        label="best-effort", algorithm="global",
                        deadline=0.2, anytime=True,
                    )
                )
            for t in threads:
                t.join(timeout=15)
            assert "best-effort" in engine.labels
            assert result.partial is True


class TestPredictiveShedding:
    def test_hopeless_budget_is_rejected_at_admission(self):
        """With every slot busy, a request whose predicted queue wait
        already exceeds its budget gets 429 + Retry-After, not a slot."""
        engine = CountingEngine(MACEngine(make_network()), delay=1.0)
        svc = MACService(engine, port=0, max_concurrency=1, queue_depth=8)
        with svc:
            threads = occupy_slots(svc.port, 1)
            time.sleep(0.3)
            with ServiceClient(port=svc.port) as c:
                # The EWMA seed is 0.1s; a 0.01s budget is hopeless.
                with pytest.raises(ServiceOverloaded, match="shed") as info:
                    c.search(
                        make_request(
                            label="hopeless", algorithm="local",
                            deadline=0.01,
                        )
                    )
                assert info.value.retry_after >= 1.0
                metrics = c.metrics()
            for t in threads:
                t.join(timeout=15)
            assert "hopeless" not in engine.labels
            assert metrics["degradation"]["shed_predicted"] >= 1

    def test_idle_server_never_sheds_predictively(self):
        svc = MACService(MACEngine(make_network()), port=0, max_concurrency=2)
        with svc, ServiceClient(port=svc.port) as c:
            # Warm the result cache first (``deadline`` is not part of
            # the result key), so the tight-deadline call below is a
            # cache hit and never races a cold search against 10ms.
            c.search(make_request(algorithm="local", label="tight"))
            result = c.search(
                make_request(algorithm="local", deadline=0.01, label="tight")
            )
            assert result.partitions is not None
            assert c.metrics()["degradation"]["shed_predicted"] == 0


class TestBrownout:
    def test_bad_config_is_typed(self):
        engine = MACEngine(make_network())
        with pytest.raises(ServiceError, match="brownout_exit"):
            MACService(engine, brownout_enter=2, brownout_exit=2)
        with pytest.raises(ServiceError, match="brownout_hold"):
            MACService(engine, brownout_hold=0.0)

    def test_fresh_server_reports_normal_mode(self):
        svc = MACService(MACEngine(make_network()), port=0)
        with svc, ServiceClient(port=svc.port) as c:
            assert c.healthz()["mode"] == "normal"
            degradation = c.metrics()["degradation"]
            assert degradation["mode"] == "normal"
            assert degradation["brownouts"] == 0
            assert degradation["brownout_degraded"] == 0

    def test_overload_enters_brownout_serves_partials_and_exits(self):
        """The ISSUE acceptance scenario: synthetic overload flips the
        server to brownout (hysteretic), deadline-bearing requests are
        degraded to marked partials instead of a 5xx storm, and calm
        flips it back to normal."""
        engine = CountingEngine(MACEngine(make_network()), delay=0.5)
        svc = MACService(
            engine, port=0, max_concurrency=1, queue_depth=16,
            brownout_enter=2, brownout_exit=0, brownout_hold=0.15,
        )
        with svc:
            outcomes: list = []

            def flood(i: int) -> None:
                # Anytime pressure generators: each occupies the single
                # compute slot for the full 0.5s delay, so the backlog
                # (and the in-flight count) stays high for seconds.
                with ServiceClient(port=svc.port) as c:
                    try:
                        outcomes.append(
                            c.search(make_request(
                                k=2 + (i % 2), label="slow",
                                algorithm="local", deadline=0.4,
                                anytime=True,
                            ))
                        )
                    except Exception as exc:
                        outcomes.append(exc)

            threads = [
                threading.Thread(target=flood, args=(i,)) for i in range(7)
            ]
            for t in threads:
                t.start()
            with ServiceClient(port=svc.port) as c:
                # Sustained pressure: healthz polls advance the state
                # machine past the hysteresis hold.
                wait_until(
                    lambda: c.healthz()["mode"] == "brownout", timeout=10.0
                )
                # A budgeted request arriving mid-brownout is degraded
                # to anytime: its queue wait exceeds the budget, so it
                # serves its best-so-far answer marked partial.
                browned = c.search(make_request(
                    label="browned", algorithm="global",
                    problem="topj", j=3, deadline=0.4,
                ))
                assert browned.partial is True
                metrics = c.metrics()
                assert metrics["degradation"]["mode"] == "brownout"
                assert metrics["degradation"]["brownouts"] >= 1
                assert metrics["degradation"]["brownout_degraded"] >= 1
                for t in threads:
                    t.join(timeout=30)
                # Calm: the backlog is gone, so the hold elapses and the
                # mode returns to normal (again via poll dispatches).
                wait_until(
                    lambda: c.healthz()["mode"] == "normal", timeout=10.0
                )
                assert c.metrics()["degradation"]["brownouts"] == 1
            # No untyped failures anywhere in the flood: every outcome
            # is a result (possibly partial) or a typed deadline error.
            for out in outcomes:
                assert not isinstance(out, Exception) or isinstance(
                    out, (DeadlineExceeded, ServiceOverloaded)
                ), out

    def test_brownout_leaves_unbudgeted_requests_alone(self):
        """Degradation only touches deadline-bearing requests; one with
        no budget runs exactly as submitted even in brownout."""
        engine = CountingEngine(MACEngine(make_network()), delay=0.5)
        svc = MACService(
            engine, port=0, max_concurrency=1, queue_depth=16,
            brownout_enter=1, brownout_exit=0, brownout_hold=0.05,
        )
        with svc:
            threads = occupy_slots(svc.port, 2)
            with ServiceClient(port=svc.port) as c:
                wait_until(
                    lambda: c.healthz()["mode"] == "brownout", timeout=10.0
                )
                result = c.search(
                    make_request(label="unbudgeted", algorithm="global")
                )
                assert result.partial is False
            for t in threads:
                t.join(timeout=15)
