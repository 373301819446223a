"""`WorkerPool`: dispatcher + supervisor over N forked engine processes.

The parent loads (or is handed) one warm :class:`~repro.engine.MACEngine`
and forks ``num_workers`` children from it.  Fork gives copy-on-write
sharing of everything the engine already built — G-tree matrices, CSR
views, coreness arrays, warmed stage caches — so N workers do not pay
N× memory; snapshot payloads loaded with ``mmap=True`` are additionally
file-backed and page-shared.  The parent engine is never queried in
pool mode (its locks are free at every fork, which is what makes
restart-time forking from a threaded parent safe).

**Affinity dispatch.**  A request's affinity worker is a stable hash of
its ``(Q, k, t)`` stage-cache prefix, so repeats and siblings of a query
land on the worker whose per-process LRU caches already hold their
filter/core/dominance state.  When the affinity target's queue is
``spill_depth`` deep and a strictly shallower worker exists, the request
spills to the least-loaded worker — latency beats cache locality once a
queue forms.  A dead target fails over the same way.

**Supervision.**  A supervisor thread waits on the process sentinels.
When a worker dies (crash, SIGKILL, OOM), only the requests in flight on
that worker fail — typed :class:`~repro.errors.WorkerCrashed` — and a
replacement is forked from the parent engine, with per-slot exponential
backoff if a worker crash-loops at boot.  Requests on other workers are
untouched; the pool never hangs on a dead process.

**Stall watchdog.**  Process sentinels only see *dead* workers; a
*wedged* one (infinite loop, stuck syscall) would silently blackhole
its queue.  With ``stall_timeout`` set, the supervisor tick also checks
every busy worker's time-since-last-reply (clamped to the oldest
request's deadline plus a grace window, so a budgeted request never
waits much past its own budget) and pings idle workers so a wedge is
detected even without traffic.  A worker over budget is declared
stalled, SIGKILLed, and refilled through the normal respawn path; only
its in-flight requests fail, with the typed — and retryable —
:class:`~repro.errors.WorkerStalled`.

**Hedged dispatch.**  Searches are pure, so with ``hedge_after`` set a
search still unanswered after that delay (or, with ``"auto"``, after an
EWMA-derived p95-ish latency) is re-dispatched to a second worker and
the first reply wins — one slow-but-alive worker no longer sets the
tail latency.  ``hedges`` / ``hedge_wins`` / ``hedge_discarded``
counters ride in :meth:`pool_wire`.

**Zero-downtime operations.**  :meth:`swap` forks a full replacement
fleet from a freshly loaded engine on a new snapshot *generation*,
atomically redirects new dispatch to it, and gracefully drains the old
generation (in-flight requests complete; the externally reported
snapshot identity flips only once the drain finishes).  A swap that
fails validation is rolled back with a typed
:class:`~repro.errors.ReloadError` and the serving fleet untouched.
:meth:`resize` grows or shrinks the fleet the same way, draining
retired slots.  Both are exercised under deterministic chaos via
:class:`~repro.pool.faults.FaultPlan`.

**Live mutations.**  :meth:`mutate_wire` applies one
:mod:`repro.live` batch fleet-wide without a swap: the parent engine
is mutated first (so validation failures touch nothing and every
future respawn forks consistent state), then the batch is broadcast to
every live worker over the same FIFO pipes as queries — a worker
serves every query it received before the batch against pre-mutation
state and everything after against post-mutation state, so answers are
always internally consistent.  Each worker proves convergence by
returning its recomputed network fingerprint; a worker that failed the
batch or diverged is killed and respawned from the mutated parent
rather than ever serving stale answers.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
import warnings
import zlib
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures import wait as _future_wait
from multiprocessing.connection import wait as _sentinel_wait

from repro.engine import merge_telemetry
from repro.engine.request import MACRequest
from repro.errors import ReloadError, ServiceError, WorkerCrashed, WorkerStalled
from repro.pool.faults import FaultPlan
from repro.pool.worker import worker_main
from repro.service.protocol import (
    error_from_wire,
    telemetry_from_wire,
    telemetry_to_wire,
)
from repro.store.fingerprint import network_fingerprint

_MAX_FAST_CRASHES = 6

#: Grace added on top of a request's deadline when it clamps the stall
#: watchdog budget: an anytime search legitimately runs right up to its
#: deadline before replying partial, so the watchdog must not beat it.
_STALL_GRACE = 1.0


def _backoff_delay(fast_crashes: int) -> float:
    """Supervisor restart backoff: 0.1s, 0.2s, ... capped at 2.0s."""
    return min(0.05 * 2**fast_crashes, 2.0)


class _PipeDied(Exception):
    """Internal: a send failed because the worker's pipe is gone."""


class _Worker:
    """Parent-side state of one worker process.

    A worker belongs to a snapshot *generation* (bumped by every live
    swap) and is one *incarnation* of its slot (bumped by every fork
    into that slot).  ``retired`` flips when the worker leaves the
    dispatchable fleet (swap or shrink) and is thereafter only drained.
    """

    def __init__(
        self, slot: int, process, conn, generation: int, incarnation: int
    ) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.generation = generation
        self.incarnation = incarnation
        self.send_lock = threading.Lock()
        self.pending: dict[int, Future] = {}
        # req_id -> (op, watchdog budget or None, sent_at); parallel to
        # ``pending`` and maintained under the pool lock.
        self.op_meta: dict[int, tuple[str, float | None, float]] = {}
        self.ready = threading.Event()
        self.info: dict = {}
        self.alive = True
        self.retired = False
        self.stalled = False  # wedged per the watchdog; being killed
        self.busy_since: float | None = None  # first unanswered send
        self.last_tel: dict | None = None
        self.started_at = time.monotonic()
        self.last_ping = self.started_at
        self.served = 0
        self.receiver: threading.Thread | None = None

    @property
    def depth(self) -> int:
        return len(self.pending)


class WorkerPool:
    """A supervised tier of ``num_workers`` engine processes.

    Parameters
    ----------
    engine:
        The warm parent engine every worker is forked from.  In pool
        mode the parent must not run searches on it — it exists to be
        forked (copy-on-write) at start and on every restart.
    num_workers:
        Worker processes (slots).  Slots are stable across restarts, so
        affinity routing survives a crash.  :meth:`resize` changes the
        count at runtime.
    spill_depth:
        In-flight requests on the affinity worker before new arrivals
        spill to the least-loaded worker.
    start_timeout:
        Seconds to wait for every worker's ready handshake in
        :meth:`start` (and for a replacement generation in
        :meth:`swap` / :meth:`resize`).
    drain_timeout:
        Default seconds a retiring worker gets to finish its in-flight
        requests before it is terminated (its leftovers fail typed).
    stall_timeout:
        Seconds a busy worker may go without replying before the
        watchdog declares it wedged and SIGKILLs it (in-flight requests
        fail with the retryable :class:`WorkerStalled`).  Clamped per
        request to its deadline plus a grace window.  ``None`` (the
        default) disables the watchdog.
    hedge_after:
        Seconds an in-flight search may go unanswered before it is
        re-dispatched to a second worker, first reply wins; ``"auto"``
        derives the delay from the reply-latency EWMA (mean + 3
        deviations, a p95-ish cutoff).  ``None`` (the default) disables
        hedging.  Searches are pure, so the duplicate is safe.
    fault_plan:
        Deterministic chaos hooks (:class:`FaultPlan`); defaults to the
        plan injected via ``REPRO_FAULT_PLAN`` (inert when unset).
    source / index_digest:
        Operator-facing identity of the snapshot the engine was loaded
        from, reported by :meth:`snapshot_wire` and flipped atomically
        by :meth:`swap`.
    """

    def __init__(
        self,
        engine,
        num_workers: int,
        *,
        spill_depth: int = 4,
        start_timeout: float = 120.0,
        drain_timeout: float = 5.0,
        stall_timeout: float | None = None,
        hedge_after: float | str | None = None,
        fault_plan: FaultPlan | None = None,
        source: str | None = None,
        index_digest: str | None = None,
    ) -> None:
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        if spill_depth < 1:
            raise ServiceError(f"spill_depth must be >= 1, got {spill_depth}")
        if drain_timeout <= 0:
            raise ServiceError(f"drain_timeout must be > 0, got {drain_timeout}")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ServiceError(
                f"stall_timeout must be > 0 (or None to disable the "
                f"watchdog), got {stall_timeout}"
            )
        if isinstance(hedge_after, str):
            if hedge_after != "auto":
                raise ServiceError(
                    f"hedge_after must be seconds > 0, 'auto', or None, "
                    f"got {hedge_after!r}"
                )
        elif hedge_after is not None and hedge_after <= 0:
            raise ServiceError(
                f"hedge_after must be seconds > 0, 'auto', or None, "
                f"got {hedge_after}"
            )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-unix
            raise ServiceError(
                "the worker tier needs the fork start method (unix only); "
                "serve with --worker-processes 0 (threads) instead"
            ) from exc
        self._engine = engine
        self.num_workers = num_workers
        self.spill_depth = spill_depth
        self.start_timeout = start_timeout
        self.drain_timeout = drain_timeout
        self.stall_timeout = stall_timeout
        self.hedge_after = hedge_after
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._source = source
        self._index_digest = index_digest
        self._engine_fp: str | None = None
        self._generation = 0
        self._active: dict | None = None  # reported identity; flips post-drain
        self._lock = threading.Lock()
        self._admin_lock = threading.Lock()  # serializes swap/resize/mutate
        # Forking a worker while a live mutation is rewriting the parent
        # engine in place would copy a torn half-applied state into the
        # child; this lock makes fork and in-place apply mutually
        # exclusive.  A respawn holds it from reading the fingerprint
        # through slot placement, a mutation from the parent apply
        # through publishing its fingerprint and taking the broadcast
        # list, so every child either inherits the mutated engine with
        # its new fingerprint or is in a slot to receive the batch.
        self._fork_lock = threading.Lock()
        self._mutations = 0
        self._workers: list[_Worker | None] = [None] * num_workers
        self._retiring: set[_Worker] = set()
        self._req_ids = itertools.count(1)
        self._started = False
        self._stopping = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._restarts = [0] * num_workers
        self._retired_restarts = 0
        self._incarnations = [0] * num_workers
        self._fast_crashes = [0] * num_workers
        self._backoff_until = [0.0] * num_workers
        self._pending_respawn: set[int] = set()
        self._crashed_requests = 0
        self._stalled_workers = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._hedge_discarded = 0
        self._search_ewma: float | None = None  # ok-search reply latency
        self._search_dev = 0.0  # its mean absolute deviation
        self._dispatched = {"affinity": 0, "spill": 0, "failover": 0}
        self._retired_tel = None  # EngineTelemetry of dead/drained workers
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str | None:
        """Content fingerprint of the *reported* snapshot generation."""
        return self._active["fingerprint"] if self._active else None

    @property
    def generation(self) -> int:
        """The generation new dispatch goes to (bumped by every swap)."""
        return self._generation

    @property
    def network(self):
        """The parent engine's network (reload paths re-use its object)."""
        return self._engine.network

    def snapshot_wire(self) -> dict:
        """The reported snapshot identity: fingerprint + generation +
        provenance.  Flips atomically when a swap's drain completes —
        an observer never sees a half-flipped identity."""
        if self._active is None:
            return {
                "fingerprint": None,
                "generation": 0,
                "source": self._source,
                "index_digest": self._index_digest,
                "delta_seq": getattr(self._engine, "delta_seq", 0),
            }
        return dict(self._active)

    def start(self) -> WorkerPool:
        """Fork the workers, wait for their ready handshakes, supervise."""
        if self._started:
            raise ServiceError("worker pool already started")
        self._started = True
        self._started_at = time.monotonic()
        self._engine_fp = network_fingerprint(self._engine.network)
        for slot in range(self.num_workers):
            self._spawn(slot)
        try:
            self._await_ready(
                [w for w in self._workers if w is not None], self.start_timeout
            )
        except ServiceError:
            self.stop()
            raise
        self._active = {
            "fingerprint": self._engine_fp,
            "generation": 0,
            "source": self._source,
            "index_digest": self._index_digest,
            "delta_seq": getattr(self._engine, "delta_seq", 0),
        }
        self._supervisor = threading.Thread(
            target=self._supervise, name="mac-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def _fork(
        self, slot: int, engine, fingerprint: str, generation: int, incarnation: int
    ) -> _Worker:
        """Fork one worker process; the caller decides where it lives.

        The caller holds ``_fork_lock``.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork() from a multi-threaded
            # process.  Safe here by construction: the child touches
            # only the pre-fork engine — whose locks the parent is not
            # holding, because the parent never searches in pool mode
            # (and ``_fork_lock`` keeps a live mutation from rewriting
            # it mid-fork) — and its own pipe end.
            warnings.simplefilter("ignore", DeprecationWarning)
            process = self._ctx.Process(
                target=worker_main,
                args=(
                    slot,
                    child_conn,
                    engine,
                    fingerprint,
                    generation,
                    incarnation,
                    self.fault_plan if self.fault_plan else None,
                ),
                name=f"mac-pool-worker-{slot}",
                daemon=True,
            )
            process.start()
        child_conn.close()
        worker = _Worker(slot, process, parent_conn, generation, incarnation)
        worker.receiver = threading.Thread(
            target=self._receive,
            args=(worker,),
            name=f"mac-pool-recv-{slot}",
            daemon=True,
        )
        worker.receiver.start()
        return worker

    def _spawn(self, slot: int) -> None:
        """Fork a worker of the *current* generation into a fleet slot."""
        with self._fork_lock:
            with self._lock:
                engine = self._engine
                fingerprint = self._engine_fp
                generation = self._generation
                incarnation = self._incarnations[slot]
                self._incarnations[slot] += 1
            worker = self._fork(slot, engine, fingerprint, generation, incarnation)
            with self._lock:
                stale = (
                    self._stopping.is_set()
                    or slot >= self.num_workers
                    or (
                        self._workers[slot] is not None
                        and self._workers[slot].alive
                    )
                )
                if not stale:
                    self._workers[slot] = worker
        if stale:
            # The slot was filled or retired while we forked (a swap,
            # shrink, or stop raced the respawn): discard quietly.
            self._discard([worker])

    def _await_ready(self, workers: list[_Worker], timeout: float) -> None:
        """Wait for ready handshakes, failing fast on a dead process."""
        deadline = time.monotonic() + timeout
        for worker in workers:
            while not worker.ready.wait(timeout=0.05):
                if not worker.process.is_alive():
                    raise ServiceError(
                        f"worker {worker.slot} (generation "
                        f"{worker.generation}) died during start with exit "
                        f"code {worker.process.exitcode}"
                    )
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"worker {worker.slot} did not become ready within "
                        f"{timeout:g}s"
                    )

    def _discard(self, workers: list[_Worker]) -> None:
        """Kill workers that never joined the fleet (rollback path)."""
        for worker in workers:
            worker.alive = False
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join(timeout=1.0)

    def stop(self, timeout: float = 5.0) -> None:
        """Drain and stop every worker; fail leftover in-flight requests.

        Workers serve their queued ops before the stop sentinel (the
        pipe is FIFO), so a normal stop loses nothing; a wedged worker
        is terminated after ``timeout`` and its pending requests fail
        with :class:`WorkerCrashed`.  Idempotent.
        """
        self._stopping.set()
        with self._lock:
            workers = [
                w for w in [*self._workers, *self._retiring] if w is not None
            ]
        self._drain(workers, timeout, reason="was stopped with the pool")
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
            self._supervisor = None

    def __enter__(self) -> WorkerPool:
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # zero-downtime operations
    # ------------------------------------------------------------------
    def swap(
        self,
        engine,
        *,
        source: str | None = None,
        index_digest: str | None = None,
        drain_timeout: float | None = None,
    ) -> dict:
        """Live snapshot swap: replace the fleet with workers forked
        from ``engine``, without dropping a request.

        Stages a full replacement generation first (fork + ready
        handshake); any validation failure rolls back with a typed
        :class:`ReloadError` and the serving fleet untouched.  On
        success, new dispatch flips to the new generation atomically,
        the old generation drains (in-flight requests complete, FIFO
        before the stop sentinel), and only then does the reported
        snapshot identity (:meth:`snapshot_wire`) flip — also
        atomically.
        """
        if not self._started:
            raise ReloadError("cannot swap: the worker pool is not started")
        if not self._admin_lock.acquire(blocking=False):
            raise ReloadError(
                "another admin operation (swap or resize) is in progress; "
                "retry when it completes"
            )
        try:
            return self._swap_locked(engine, source, index_digest, drain_timeout)
        finally:
            self._admin_lock.release()

    def _swap_locked(self, engine, source, index_digest, drain_timeout) -> dict:
        started = time.monotonic()
        if self._stopping.is_set():
            raise ReloadError("cannot swap: the worker pool is stopping")
        fingerprint = network_fingerprint(engine.network)
        generation = self._generation + 1
        staged: list[_Worker] = []
        try:
            for slot in range(self.num_workers):
                with self._lock:
                    incarnation = self._incarnations[slot]
                    self._incarnations[slot] += 1
                with self._fork_lock:
                    staged.append(
                        self._fork(slot, engine, fingerprint, generation, incarnation)
                    )
            self._await_ready(staged, self.start_timeout)
            if self._stopping.is_set():
                raise ServiceError("the worker pool began stopping mid-swap")
        except Exception as exc:
            self._discard(staged)
            raise ReloadError(
                f"snapshot swap to generation {generation} rolled back "
                f"({len(staged)} staged worker(s) discarded, serving fleet "
                f"untouched): {exc}"
            ) from exc
        # Install: from here on every new dispatch goes to the new
        # generation; the old one only finishes what it already holds.
        with self._lock:
            retired = [w for w in self._workers if w is not None]
            for worker in staged:
                self._workers[worker.slot] = worker
            self._engine = engine
            self._engine_fp = fingerprint
            self._generation = generation
            for worker in retired:
                worker.retired = True
                if worker.alive:
                    self._retiring.add(worker)
        drain = self._drain(
            retired,
            self.drain_timeout if drain_timeout is None else drain_timeout,
            reason="was retired by a live snapshot swap",
        )
        # The reported identity flips only now — after the old
        # generation fully drained — and atomically (one dict swap).
        self._active = {
            "fingerprint": fingerprint,
            "generation": generation,
            "source": source,
            "index_digest": index_digest,
            "delta_seq": getattr(engine, "delta_seq", 0),
        }
        return {
            "generation": generation,
            "fingerprint": fingerprint,
            "source": source,
            "index_digest": index_digest,
            "workers": self.num_workers,
            "drained": drain["drained"],
            "terminated": drain["terminated"],
            "elapsed_s": round(time.monotonic() - started, 3),
        }

    def resize(self, num_workers: int, *, drain_timeout: float | None = None) -> dict:
        """Grow or shrink the fleet at runtime.

        Growing stages the new slots first (ready handshake, rollback on
        failure); shrinking removes the retired slots from dispatch
        immediately, then drains them gracefully — their in-flight
        requests complete.
        """
        if num_workers < 1:
            raise ServiceError(f"num_workers must be >= 1, got {num_workers}")
        if not self._started:
            raise ReloadError("cannot resize: the worker pool is not started")
        if not self._admin_lock.acquire(blocking=False):
            raise ReloadError(
                "another admin operation (swap or resize) is in progress; "
                "retry when it completes"
            )
        try:
            return self._resize_locked(num_workers, drain_timeout)
        finally:
            self._admin_lock.release()

    def _resize_locked(self, num_workers: int, drain_timeout) -> dict:
        started = time.monotonic()
        if self._stopping.is_set():
            raise ReloadError("cannot resize: the worker pool is stopping")
        old_n = self.num_workers
        drain = {"drained": 0, "terminated": 0}
        if num_workers > old_n:
            staged: list[_Worker] = []
            try:
                for slot in range(old_n, num_workers):
                    with self._fork_lock:
                        staged.append(
                            self._fork(
                                slot, self._engine, self._engine_fp, self._generation, 0
                            )
                        )
                self._await_ready(staged, self.start_timeout)
            except Exception as exc:
                self._discard(staged)
                raise ReloadError(
                    f"fleet grow {old_n} -> {num_workers} rolled back "
                    f"(fleet unchanged): {exc}"
                ) from exc
            grow = num_workers - old_n
            with self._lock:
                self._workers.extend(staged)
                self._restarts.extend([0] * grow)
                self._incarnations.extend([1] * grow)
                self._fast_crashes.extend([0] * grow)
                self._backoff_until.extend([0.0] * grow)
                self.num_workers = num_workers
        elif num_workers < old_n:
            with self._lock:
                retired = [
                    w for w in self._workers[num_workers:] if w is not None
                ]
                self._retired_restarts += sum(self._restarts[num_workers:])
                self._workers = self._workers[:num_workers]
                self._restarts = self._restarts[:num_workers]
                self._incarnations = self._incarnations[:num_workers]
                self._fast_crashes = self._fast_crashes[:num_workers]
                self._backoff_until = self._backoff_until[:num_workers]
                self._pending_respawn = {
                    s for s in self._pending_respawn if s < num_workers
                }
                self.num_workers = num_workers
                for worker in retired:
                    worker.retired = True
                    if worker.alive:
                        self._retiring.add(worker)
            drain = self._drain(
                retired,
                self.drain_timeout if drain_timeout is None else drain_timeout,
                reason="was retired by a fleet shrink",
            )
        return {
            "workers": num_workers,
            "previous": old_n,
            "grown": max(0, num_workers - old_n),
            "retired": max(0, old_n - num_workers),
            "drained": drain["drained"],
            "terminated": drain["terminated"],
            "elapsed_s": round(time.monotonic() - started, 3),
        }

    def mutate_wire(self, mutations: list) -> dict:
        """Apply one live mutation batch to the whole fleet.

        The batch hits the *parent* engine first — validation failures
        (typed :class:`~repro.errors.MutationError`) happen there,
        before any worker sees the batch, so a rejected batch leaves
        the fleet untouched and future respawns fork consistent state.
        On success the batch is broadcast to every live worker; each
        reply carries the worker's recomputed network fingerprint, and
        any worker that failed the batch or landed on different content
        is SIGKILLed — the supervisor refills its slot by forking the
        already-mutated parent, so divergence is never served.  No
        generation bump: the fleet stays on its snapshot generation,
        with the reported identity's ``fingerprint``/``delta_seq``
        advanced in one atomic flip.
        """
        if not self._started:
            raise ReloadError("cannot mutate: the worker pool is not started")
        if not self._admin_lock.acquire(blocking=False):
            raise ReloadError(
                "another admin operation (swap, resize, or mutate) is in "
                "progress; retry when it completes"
            )
        try:
            return self._mutate_locked(mutations)
        finally:
            self._admin_lock.release()

    def _mutate_locked(self, mutations: list) -> dict:
        started = time.monotonic()
        if self._stopping.is_set():
            raise ReloadError("cannot mutate: the worker pool is stopping")
        with self._fork_lock:
            # Parent first, and atomically with respect to respawn
            # forks: a child must never copy a half-applied engine, nor
            # be labelled with, or miss the broadcast of, the wrong side
            # of this batch.
            summary = self._engine.apply(mutations)
            fingerprint = network_fingerprint(self._engine.network)
            with self._lock:
                self._engine_fp = fingerprint
                self._mutations += 1
                workers = [
                    w
                    for w in self._workers
                    if w is not None and w.alive and not w.retired and not w.stalled
                ]
        futures: dict[_Worker, Future] = {}
        for worker in workers:
            try:
                futures[worker] = self._submit(worker, "mutate", mutations)
            except _PipeDied:
                continue
        divergent: list[_Worker] = []
        applied_workers = 0
        deadline = time.monotonic() + self.start_timeout
        for worker, future in futures.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                reply = future.result(timeout=remaining)
            except Exception:
                # Typed apply failure, crash, or a wedged pipe: this
                # worker's state can no longer be trusted to match.
                divergent.append(worker)
                continue
            if reply.get("fingerprint") != fingerprint:
                divergent.append(worker)
                continue
            applied_workers += 1
            with self._lock:
                # Keep the per-worker identity in /v1/healthz honest:
                # this worker now serves the mutated content.
                worker.info["fingerprint"] = fingerprint
        for worker in divergent:
            # SIGKILL, never serve from divergence: the sentinel path
            # fails its in-flight requests typed and the supervisor
            # refills the slot from the mutated parent engine.
            if worker.alive and worker.process.is_alive():
                worker.process.kill()
        if self._active is not None:
            active = dict(self._active)
            active["fingerprint"] = fingerprint
            active["delta_seq"] = summary["delta_seq"]
            self._active = active
        return {
            **summary,
            "fingerprint": fingerprint,
            "workers": len(workers),
            "applied_workers": applied_workers,
            "respawned": len(divergent),
            "uniform": not divergent,
            "elapsed_s": round(time.monotonic() - started, 3),
        }

    def _drain(self, workers: list[_Worker], timeout: float, *, reason: str) -> dict:
        """Gracefully retire workers: final telemetry poll, stop
        sentinel, bounded join, terminate stragglers, finalize.

        The telemetry poll is submitted *before* the sentinel, so the
        FIFO pipe guarantees it reflects every request the worker ever
        served; it becomes the worker's folded contribution to the
        merged fleet counters (telemetry stays monotone across
        generations).
        """
        workers = [w for w in workers if w is not None]
        tel_futures: dict[_Worker, Future] = {}
        for worker in workers:
            if not worker.alive or worker.stalled:
                # A stalled worker is not reading its pipe; its last
                # collected snapshot stands.
                continue
            try:
                tel_futures[worker] = self._submit(
                    worker, "telemetry", None, allow_retired=True
                )
            except _PipeDied:
                continue
        for worker in workers:
            if not worker.alive:
                continue
            try:
                with worker.send_lock:
                    worker.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker, future in tel_futures.items():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                tel = future.result(timeout=remaining)
            except Exception:
                continue  # crashed or wedged: its last snapshot stands
            with self._lock:
                if worker.alive:
                    worker.last_tel = tel
        drained = terminated = 0
        for worker in workers:
            # The exit sentinel, not join()/is_alive(): the supervisor
            # may reap this child concurrently, and a child reaped by
            # another thread can read as alive here.
            remaining = max(0.1, deadline - time.monotonic())
            if not _sentinel_wait([worker.process.sentinel], timeout=remaining):
                worker.process.terminate()
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
                terminated += 1
            else:
                worker.process.join(timeout=1.0)  # reap; returns at once
                drained += 1
            if worker.receiver is not None:
                # Let the receive thread drain any replies still
                # buffered in the dead worker's pipe (it exits on EOF)
                # before failing what genuinely never answered.
                worker.receiver.join(timeout=1.0)
            self._finalize(
                worker,
                WorkerCrashed(
                    f"worker {worker.slot} {reason} with this request still "
                    f"in flight; a retry is safe"
                ),
            )
        return {"drained": drained, "terminated": terminated}

    def _finalize(self, worker: _Worker, error: WorkerCrashed) -> bool:
        """Idempotently mark a worker dead: fail its pending requests
        with ``error``, fold its last telemetry into the retired
        totals, close its pipe.  Returns whether it still held a fleet
        slot (i.e. whether the caller should consider a respawn)."""
        with self._lock:
            if not worker.alive:
                return False
            worker.alive = False
            pending = list(worker.pending.values())
            worker.pending.clear()
            worker.op_meta.clear()
            worker.busy_since = None
            self._retiring.discard(worker)
            in_slot = (
                worker.slot < len(self._workers)
                and self._workers[worker.slot] is worker
            )
            if pending:
                self._crashed_requests += len(pending)
            last_tel = worker.last_tel
            worker.last_tel = None
            if last_tel is not None:
                # Keep the worker's last-seen counters in the merged
                # fleet telemetry so restarts and swaps never march
                # totals backwards.  Folded under the lock so a
                # concurrent telemetry_wire never misses the hand-off.
                tel = telemetry_from_wire(last_tel)
                self._retired_tel = (
                    tel
                    if self._retired_tel is None
                    else merge_telemetry([self._retired_tel, tel])
                )
        for future in pending:
            if not future.done():
                future.set_exception(error)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        return in_slot

    # ------------------------------------------------------------------
    # receive / supervise
    # ------------------------------------------------------------------
    def _receive(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # worker exited, or the pool closed the pipe
            except TypeError:
                # The pipe handle was closed mid-recv (finalize racing
                # this thread): same meaning as the OSError path.
                return
            if message[0] == "__ready__":
                worker.info = message[1]
                worker.ready.set()
                continue
            req_id, ok, payload = message
            now = time.monotonic()
            with self._lock:
                future = worker.pending.pop(req_id, None)
                meta = worker.op_meta.pop(req_id, None)
                worker.served += 1
                # Any reply proves liveness: the watchdog clock restarts
                # (or stops, if the queue just went idle).
                worker.busy_since = now if worker.pending else None
                if ok and meta is not None and meta[0] == "telemetry":
                    # Recorded here (not just by the poller waiting on
                    # the future) so a worker that answers its final
                    # drain poll and exits has the fresh counters on it
                    # by the time the post-receiver-join finalize folds
                    # them — however the poller/supervisor race lands.
                    worker.last_tel = payload
                if ok and meta is not None and meta[0] == "search":
                    elapsed = now - meta[2]
                    if self._search_ewma is None:
                        self._search_ewma = elapsed
                    else:
                        self._search_dev += 0.2 * (
                            abs(elapsed - self._search_ewma) - self._search_dev
                        )
                        self._search_ewma += 0.2 * (elapsed - self._search_ewma)
            if future is None:
                continue  # abandoned (e.g. a timed-out telemetry poll)
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(error_from_wire(payload))

    def _supervise(self) -> None:
        while not self._stopping.is_set():
            self._respawn_due()
            if self.stall_timeout is not None:
                self._watchdog_check()
                self._heartbeat()
            with self._lock:
                sentinels = {
                    w.process.sentinel: w
                    for w in [*self._workers, *self._retiring]
                    if w is not None and w.alive
                }
            if not sentinels:
                self._stopping.wait(0.1)
                continue
            for sentinel in _sentinel_wait(list(sentinels), timeout=0.1):
                self._on_death(sentinels[sentinel])

    def _watchdog_check(self) -> None:
        """SIGKILL workers that have been busy past their stall budget.

        Runs on the supervisor tick.  A worker is wedged when its
        oldest unanswered op has waited longer than its watchdog budget
        (``stall_timeout``, deadline-clamped at submit time) since the
        worker last replied anything.  SIGKILL is the only lever that
        works on a process stuck in an infinite loop or a syscall; the
        process sentinel then fires :meth:`_on_death`, which fails the
        in-flight requests with :class:`WorkerStalled` and refills the
        slot through the normal respawn path.
        """
        now = time.monotonic()
        victims: list[_Worker] = []
        with self._lock:
            for worker in [*self._workers, *self._retiring]:
                if (
                    worker is None
                    or not worker.alive
                    or worker.stalled
                    or worker.busy_since is None
                ):
                    continue
                oldest = next(iter(worker.pending), None)
                meta = worker.op_meta.get(oldest) if oldest is not None else None
                budget = self.stall_timeout
                if meta is not None and meta[1] is not None:
                    budget = meta[1]
                if now - worker.busy_since > budget:
                    worker.stalled = True
                    self._stalled_workers += 1
                    victims.append(worker)
        for worker in victims:
            worker.process.kill()

    def _heartbeat(self) -> None:
        """Ping idle workers so a wedge is detected without traffic.

        The ping is just another op with the full ``stall_timeout``
        budget: a worker that wedged while its queue was empty (or that
        swallows the ping itself) accrues an unanswered op, and the
        watchdog catches it on a later tick.  Replies are abandoned —
        :meth:`_receive` pops them and resets the busy clock.
        """
        now = time.monotonic()
        with self._lock:
            idle = [
                w
                for w in self._workers
                if w is not None
                and w.alive
                and not w.retired
                and not w.stalled
                and not w.pending
                and now - w.last_ping >= self.stall_timeout / 2
            ]
            for worker in idle:
                worker.last_ping = now
        for worker in idle:
            try:
                self._submit(worker, "ping", None)
            except _PipeDied:
                pass

    def _on_death(self, worker: _Worker) -> None:
        """Fail the dead worker's in-flight requests; schedule a
        replacement fork (with crash-loop backoff) if it held a slot."""
        worker.process.join(timeout=1.0)
        # The sentinel can fire before the receive thread has drained
        # the pipe: a worker that replied and exited cleanly may still
        # look "in flight" here.  The dead process's pipe end is closed,
        # so the receiver is guaranteed to consume every buffered reply
        # and hit EOF — wait for it so delivered results beat the
        # synthetic crash error.
        if worker.receiver is not None:
            worker.receiver.join(timeout=1.0)
        pid = worker.info.get("pid", worker.process.pid)
        if worker.stalled:
            error = WorkerStalled(
                f"worker {worker.slot} (pid {pid}) stopped replying for "
                f"longer than its stall budget and was killed by the "
                f"watchdog with this request in flight; the supervisor is "
                f"refilling the slot — a retry is safe"
            )
        elif worker.retired:
            error = WorkerCrashed(
                f"worker {worker.slot} (pid {pid}) died with exit code "
                f"{worker.process.exitcode} while draining with this "
                f"request in flight; a retry is safe"
            )
        else:
            error = WorkerCrashed(
                f"worker {worker.slot} (pid {pid}) died with exit code "
                f"{worker.process.exitcode} while the request was in "
                f"flight; the supervisor is restarting it — a retry is safe"
            )
        in_slot = self._finalize(worker, error)
        if not in_slot or worker.retired or self._stopping.is_set():
            return
        slot = worker.slot
        now = time.monotonic()
        uptime = now - worker.started_at
        with self._lock:
            if slot >= self.num_workers:  # pragma: no cover - shrink raced us
                return
            if uptime < 1.0:
                # Crash loop (e.g. a poisoned engine): back off
                # exponentially instead of fork-bombing; a worker that
                # survived >= 1s resets the penalty.
                self._fast_crashes[slot] = min(
                    self._fast_crashes[slot] + 1, _MAX_FAST_CRASHES
                )
                delay = _backoff_delay(self._fast_crashes[slot])
            else:
                self._fast_crashes[slot] = 0
                delay = 0.0
            self._backoff_until[slot] = now + delay
            self._restarts[slot] += 1
            self._pending_respawn.add(slot)
        self._respawn_due()

    def _respawn_due(self) -> None:
        """Fork replacements for slots whose backoff window has passed."""
        if self._stopping.is_set():
            return
        now = time.monotonic()
        due: list[int] = []
        with self._lock:
            for slot in sorted(self._pending_respawn):
                if slot >= self.num_workers:
                    self._pending_respawn.discard(slot)
                elif self._backoff_until[slot] <= now:
                    self._pending_respawn.discard(slot)
                    due.append(slot)
        for slot in due:
            self._spawn(slot)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def route_for(self, request: MACRequest) -> int:
        """The affinity slot of a request: stable hash of its core key.

        ``(Q, k, t)`` is the prefix every stage-cache key extends, so
        all requests sharing prepared state share a slot — their
        worker's LRU caches stay hot.
        """
        return zlib.crc32(repr(request.core_key).encode()) % self.num_workers

    def _choose(self, request: MACRequest) -> _Worker:
        affinity = self.route_for(request)
        with self._lock:
            alive = [
                w
                for w in self._workers
                if w is not None and w.alive and not w.stalled
            ]
            if not alive:
                raise WorkerCrashed(
                    f"all {self.num_workers} worker process(es) are down; "
                    f"the supervisor is restarting them — retry shortly"
                )
            least = min(alive, key=lambda w: (w.depth, w.slot))
            target = (
                self._workers[affinity]
                if affinity < len(self._workers)
                else None
            )
            if target is None or not target.alive or target.stalled:
                self._dispatched["failover"] += 1
                return least
            if target.depth >= self.spill_depth and least.depth < target.depth:
                self._dispatched["spill"] += 1
                return least
            self._dispatched["affinity"] += 1
            return target

    def _submit(
        self, worker: _Worker, op: str, payload, *, allow_retired: bool = False
    ) -> Future:
        req_id = next(self._req_ids)
        future: Future = Future()
        budget = self.stall_timeout
        if budget is not None and op == "search":
            deadline = payload[0].deadline
            if deadline is not None:
                # A budgeted request must not wait for the full watchdog
                # window: clamp to its own deadline (plus grace for the
                # anytime path, which replies partial *at* the deadline).
                budget = min(budget, deadline + _STALL_GRACE)
        with self._lock:
            if not worker.alive:
                raise _PipeDied()
            worker.pending[req_id] = future
            worker.op_meta[req_id] = (op, budget, time.monotonic())
            if worker.busy_since is None:
                worker.busy_since = time.monotonic()
        died = stale = False
        with worker.send_lock:
            # Re-checked under the send lock: a worker retired by a
            # concurrent swap/shrink gets its stop sentinel under this
            # same lock, so an op observed as non-retired here is
            # guaranteed to be sent before the sentinel (FIFO: it will
            # be served, not silently dropped).
            if not worker.alive or (worker.retired and not allow_retired):
                stale = True
            else:
                try:
                    worker.conn.send((req_id, op, payload))
                except (OSError, ValueError):
                    died = True
        if stale or died:
            with self._lock:
                worker.pending.pop(req_id, None)
                worker.op_meta.pop(req_id, None)
                if not worker.pending:
                    worker.busy_since = None
            if died:
                # The pipe died under us: handle the crash immediately
                # instead of waiting for the supervisor's sentinel pass.
                self._on_death(worker)
            raise _PipeDied()
        return future

    def _dispatch(self, op: str, payload, request: MACRequest):
        """Route + submit; returns ``(future, worker)`` for hedging."""
        for _ in range(self.num_workers + 1):
            worker = self._choose(request)
            try:
                return self._submit(worker, op, payload), worker
            except _PipeDied:
                continue  # that worker just died or retired; re-route
        raise WorkerCrashed(
            f"could not dispatch to any of {self.num_workers} worker "
            f"process(es); the supervisor is restarting them"
        )

    def submit_op(self, slot: int, op: str, payload=None) -> Future:
        """Send a raw op to one specific worker (introspection surface).

        ``telemetry``/``ping`` are the production users; ``sleep`` and
        ``exit`` exist for supervision tests and benchmarks.  Searches
        go through :meth:`search_wire`, which routes by affinity.
        """
        with self._lock:
            worker = (
                self._workers[slot] if 0 <= slot < len(self._workers) else None
            )
            if worker is None or not worker.alive:
                raise WorkerCrashed(f"worker {slot} is not running")
        try:
            return self._submit(worker, op, payload)
        except _PipeDied as exc:
            raise WorkerCrashed(
                f"worker {slot} died while accepting {op!r}"
            ) from exc

    # ------------------------------------------------------------------
    # the executor surface
    # ------------------------------------------------------------------
    def _hedge_delay(self) -> float | None:
        """Seconds before an unanswered search is hedged, or ``None``.

        ``"auto"`` derives the delay from the reply-latency EWMA (mean
        plus three mean-absolute-deviations — a p95-ish cutoff) and
        stays disabled until the first sample lands.
        """
        if self.hedge_after is None:
            return None
        if self.hedge_after == "auto":
            with self._lock:
                if self._search_ewma is None:
                    return None
                return max(0.005, self._search_ewma + 3.0 * self._search_dev)
        return self.hedge_after

    def _hedge_submit(self, payload, primary: _Worker) -> Future | None:
        """Re-dispatch a slow search to the least-loaded other worker.

        Returns ``None`` when no second worker is available (single
        slot, everyone else dead/retiring/stalled) — the caller then
        just keeps waiting on the primary.
        """
        with self._lock:
            candidates = [
                w
                for w in self._workers
                if w is not None
                and w.alive
                and not w.retired
                and not w.stalled
                and w is not primary
            ]
            if not candidates:
                return None
            worker = min(candidates, key=lambda w: (w.depth, w.slot))
        try:
            future = self._submit(worker, "search", payload)
        except _PipeDied:
            return None
        with self._lock:
            self._hedges += 1
        return future

    def search_wire(self, request: MACRequest) -> dict:
        """Run one search on the tier; returns the result in wire form.

        Blocks until the routed worker answers.  If that worker dies
        first, raises the typed :class:`WorkerCrashed` the supervisor
        set — never hangs on a dead process.  With hedging enabled, a
        search unanswered after the hedge delay is re-sent (same
        payload, same submit timestamp, so worker-side queue-wait
        charging stays honest) to a second worker and the first
        successful reply wins; the loser's reply is discarded.
        """
        payload = (request, time.monotonic())
        future, primary = self._dispatch("search", payload, request)
        delay = self._hedge_delay()
        if delay is None:
            return future.result()
        try:
            return future.result(timeout=delay)
        except _FutureTimeout:
            pass
        hedge = self._hedge_submit(payload, primary)
        if hedge is None:
            return future.result()
        pair = {future: "primary", hedge: "hedge"}
        remaining = dict(pair)
        while remaining:
            done, _ = _future_wait(list(remaining), return_when=FIRST_COMPLETED)
            for finished in done:
                remaining.pop(finished, None)
            winner = next(
                (f for f in done if f.exception() is None), None
            )
            if winner is not None:
                with self._lock:
                    if pair[winner] == "hedge":
                        self._hedge_wins += 1
                    if remaining:
                        # The loser is still in flight; its eventual
                        # reply is dropped by design (searches are pure).
                        self._hedge_discarded += 1
                return winner.result()
        # Both attempts failed: surface the primary's error.
        return future.result()

    def explain_wire(self, request: MACRequest) -> dict:
        """Resolve a plan on the request's affinity worker (wire form)."""
        return self._dispatch("explain", request, request)[0].result()

    def telemetry_wire(self, timeout: float = 1.0) -> dict:
        """Merged engine telemetry across the fleet, in wire form.

        Polls every live worker concurrently — including retiring ones
        still draining a swap or shrink; one that is busy past
        ``timeout`` (or mid-restart) contributes its last collected
        snapshot instead, so metrics stay responsive under load.  Dead
        and drained workers' final snapshots stay folded in (counters
        are totals for the tier's lifetime across generations, not just
        the current processes).
        """
        with self._lock:
            workers = [
                w
                for w in [*self._workers, *self._retiring]
                # A stalled worker would never answer the poll: skip it
                # (its last snapshot is merged below) so the endpoint
                # degrades instead of burning the whole timeout.
                if w is not None and w.alive and not w.stalled
            ]
        futures: dict[_Worker, Future] = {}
        for worker in workers:
            try:
                futures[worker] = self._submit(
                    worker, "telemetry", None, allow_retired=True
                )
            except _PipeDied:
                continue
        deadline = time.monotonic() + timeout
        for worker, future in futures.items():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                tel = future.result(timeout=remaining)
            except Exception:
                continue  # busy or just crashed: merge its last snapshot
            with self._lock:
                if worker.alive:
                    worker.last_tel = tel
        with self._lock:
            snapshots = [
                telemetry_from_wire(w.last_tel)
                for w in [*self._workers, *self._retiring]
                if w is not None and w.last_tel is not None
            ]
            if self._retired_tel is not None:
                snapshots.append(self._retired_tel)
        return telemetry_to_wire(merge_telemetry(snapshots))

    def workers_wire(self) -> dict:
        """Liveness summary for ``/v1/healthz``: who is up, who restarted."""
        with self._lock:
            entries = []
            alive = 0
            for slot, worker in enumerate(self._workers):
                up = worker is not None and worker.alive
                alive += 1 if up else 0
                entries.append({
                    "worker": slot,
                    "alive": up,
                    "stalled": bool(worker and worker.stalled),
                    "pid": worker.info.get("pid") if worker else None,
                    "restarts": self._restarts[slot],
                    "generation": worker.generation if worker else None,
                    "fingerprint": (
                        worker.info.get("fingerprint") if worker else None
                    ),
                })
            return {
                "alive": alive,
                "total": self.num_workers,
                "restarts": sum(self._restarts) + self._retired_restarts,
                "generation": self._generation,
                "draining": len(self._retiring),
                "stalled_workers": self._stalled_workers,
                "workers": entries,
            }

    def pool_wire(self) -> dict:
        """Dispatch + per-worker serving stats for ``/v1/metrics``."""
        now = time.monotonic()
        with self._lock:
            entries = []
            for slot, worker in enumerate(self._workers):
                backoff = max(0.0, self._backoff_until[slot] - now)
                if worker is None:
                    entries.append({
                        "worker": slot,
                        "alive": False,
                        "stalled": False,
                        "restarts": self._restarts[slot],
                        "crash_loops": self._fast_crashes[slot],
                        "restart_backoff_remaining": backoff,
                    })
                    continue
                uptime = max(now - worker.started_at, 1e-9)
                entries.append({
                    "worker": slot,
                    "alive": worker.alive,
                    "stalled": worker.stalled,
                    "pid": worker.info.get("pid"),
                    "restarts": self._restarts[slot],
                    "generation": worker.generation,
                    "incarnation": worker.incarnation,
                    "crash_loops": self._fast_crashes[slot],
                    "restart_backoff_remaining": backoff,
                    "queue_depth": worker.depth,
                    "served": worker.served,
                    "qps": worker.served / uptime,
                    "uptime_s": uptime,
                })
            return {
                "num_workers": self.num_workers,
                "spill_depth": self.spill_depth,
                "restarts": sum(self._restarts) + self._retired_restarts,
                "generation": self._generation,
                "draining": len(self._retiring),
                "crashed_requests": self._crashed_requests,
                "mutations": self._mutations,
                "stall_timeout": self.stall_timeout,
                "stalled_workers": self._stalled_workers,
                "hedge_after": self.hedge_after,
                "hedges": self._hedges,
                "hedge_wins": self._hedge_wins,
                "hedge_discarded": self._hedge_discarded,
                "dispatched": dict(self._dispatched),
                "fault_plan": self.fault_plan.to_wire(),
                "workers": entries,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        w = self.workers_wire()
        return (
            f"WorkerPool(workers={w['alive']}/{w['total']}, "
            f"generation={w['generation']}, restarts={w['restarts']})"
        )
