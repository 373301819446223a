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

**Supervision.**  Each worker has one state, ``STARTING → SERVING →
DRAINING | STALLED → DEAD`` (``STARTING → DEAD`` for a failed start),
changed only by :meth:`WorkerPool._transition`; each slot has one
:class:`_Slot` record.  Every forked process is registered with the
supervisor thread from fork until exit, and only that thread reaps: it
records the exit code, moves the worker to ``DEAD``, fails the requests
in flight on it with the one error its last state implies, and sets the
worker's exit event.  Every other path only signals and waits on that
event.  A dead serving worker fails them with
:class:`~repro.errors.WorkerCrashed` and is refilled from the parent
engine (with per-slot exponential backoff if it crash-loops at boot); a
draining one with the reason its swap, shrink or stop recorded.
Requests on other workers are untouched; nothing hangs on a dead
process.

**Stall watchdog.**  Process sentinels only see *dead* workers; a
*wedged* one (infinite loop, stuck syscall) would silently blackhole
its queue.  With ``stall_timeout`` set, the supervisor tick also checks
every busy worker's time-since-last-reply (clamped to the oldest
request's deadline plus a grace window, so a budgeted request never
waits much past its own budget) and pings idle workers so a wedge is
detected even without traffic.  A worker over budget is declared
stalled, SIGKILLed, and refilled through the normal respawn path; only
its in-flight requests fail, with the typed — and retryable —
:class:`~repro.errors.WorkerStalled`.  A draining worker is bounded by
its drain timeout instead.

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
returning its engine's content digest, which every engine keeps current
per batch from the records the batch touched, read back from its own
network after its own apply — so a missed, duplicated or failed batch
shows as a mismatch against the parent's.  A worker that failed the
batch or diverged is killed and respawned from the mutated parent
rather than ever serving stale answers.
"""

from __future__ import annotations

import enum
import itertools
import multiprocessing
import threading
import time
import warnings
import zlib
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures import wait as _future_wait
from dataclasses import dataclass
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
# Never called here — engines keep their digest current — but kept a
# module attribute: ``perfbench/launcher.py`` wraps it under
# ``--trace 1`` so a full recompute on the pool path would show up.
from repro.store.fingerprint import network_fingerprint  # noqa: F401

_MAX_FAST_CRASHES = 6

#: Grace added on top of a request's deadline when it clamps the stall
#: watchdog budget: an anytime search legitimately runs right up to its
#: deadline before replying partial, so the watchdog must not beat it.
_STALL_GRACE = 1.0


def _backoff_delay(fast_crashes: int) -> float:
    """Supervisor restart backoff: 0.1s, 0.2s, ... capped at 2.0s."""
    return min(0.05 * 2**fast_crashes, 2.0)


def _identity(engine, generation: int, source, index_digest) -> dict:
    """A reported snapshot identity (:meth:`WorkerPool.snapshot_wire`)."""
    fingerprint, delta_seq = engine.identity()
    return {
        "fingerprint": fingerprint,
        "generation": generation,
        "source": source,
        "index_digest": index_digest,
        "delta_seq": delta_seq,
    }


class _PipeDied(Exception):
    """Internal: a send failed because the worker's pipe is gone."""


class WorkerState(enum.Enum):
    """Lifecycle of one worker process (see :data:`_EDGES`)."""

    STARTING = "starting"  # forked; ready handshake not yet received
    SERVING = "serving"  # handshake received; takes new work
    DRAINING = "draining"  # retired by swap/shrink/stop; finishes its queue
    STALLED = "stalled"  # wedged per the watchdog; SIGKILLed
    DEAD = "dead"  # reaped by the supervisor and finalized


STARTING, SERVING, DRAINING, STALLED, DEAD = WorkerState

#: The legal transitions.  A retire or a watchdog verdict can reach a
#: worker still in its boot window (a respawn not yet handshaken), so
#: ``STARTING`` may skip ``SERVING``; nothing leaves ``DEAD``.
_EDGES = {
    STARTING: {SERVING, DRAINING, STALLED, DEAD},
    SERVING: {DRAINING, STALLED, DEAD},
    DRAINING: {DEAD},
    STALLED: {DEAD},
    DEAD: set(),
}

#: States that take new dispatch (a booting worker queues FIFO).
_DISPATCHABLE = (STARTING, SERVING)


class _Worker:
    """Parent-side state of one worker process.

    A worker belongs to a snapshot *generation* (bumped by every live
    swap) and is one *incarnation* of its slot (bumped by every fork
    into that slot).  ``state`` changes only through
    :meth:`WorkerPool._transition`; ``exit_code`` and ``exited`` are set
    by the supervisor alone, once it has reaped and finalized the
    process.
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
        self.info: dict = {}
        self.state = STARTING
        self.drain_reason = ""  # why it was retired; its casualties' error
        self.exit_code: int | None = None
        self.exited = threading.Event()
        self.busy_since: float | None = None  # first unanswered send
        self.last_tel: dict | None = None
        self.started_at = time.monotonic()
        self.last_ping = self.started_at
        self.served = 0
        self.receiver: threading.Thread | None = None

    @property
    def depth(self) -> int:
        return len(self.pending)


@dataclass
class _Slot:
    """One fleet slot: its occupant and its restart bookkeeping."""

    worker: _Worker | None = None
    restarts: int = 0
    incarnations: int = 0  # processes forked into this slot so far
    fast_crashes: int = 0  # consecutive deaths within 1s of boot
    respawn_at: float | None = None  # a replacement fork is due then


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
        self._generation = 0
        self._active: dict | None = None  # reported identity; flips post-drain
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)  # any transition
        self._admin_lock = threading.Lock()  # serializes swap/resize/mutate
        # Forking a worker while a live mutation is rewriting the parent
        # engine in place would copy a torn half-applied state into the
        # child; this lock makes fork and in-place apply mutually
        # exclusive.  A respawn holds it from reading the engine's
        # fingerprint through slot placement, a mutation from the parent
        # apply through taking the broadcast list, so every child either
        # inherits the mutated engine with its new fingerprint or is in
        # a slot to receive the batch.
        self._fork_lock = threading.Lock()
        self._mutations = 0
        self._slots = [_Slot() for _ in range(num_workers)]
        # Every forked process not yet reaped — staged, serving,
        # draining and discarded alike; the supervisor's watch list.
        self._procs: set[_Worker] = set()
        self._req_ids = itertools.count(1)
        self._started = False
        self._stopping = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._retired_restarts = 0
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
            return _identity(self._engine, 0, self._source, self._index_digest)
        return dict(self._active)

    def start(self) -> WorkerPool:
        """Fork the workers, wait for their ready handshakes, supervise."""
        if self._started:
            raise ServiceError("worker pool already started")
        self._started = True
        self._started_at = time.monotonic()
        # Read before any fork: the digest is computed (once per engine)
        # here, so every worker inherits a current digest to maintain,
        # and no engine lock is taken while a respawn may be forking.
        active = _identity(self._engine, 0, self._source, self._index_digest)
        # The supervisor runs first: it is the only reaper, including
        # of a worker that dies before its handshake.
        self._supervisor = threading.Thread(
            target=self._supervise, name="mac-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        try:
            staged = self._stage(range(self.num_workers), self._engine, 0)
        except Exception:
            self.stop()
            raise
        with self._lock:
            for worker in staged:
                self._slots[worker.slot].worker = worker
        self._active = active
        return self

    def _transition(self, worker: _Worker, new: WorkerState) -> None:
        """Move ``worker`` to ``new``; the caller holds ``_lock``."""
        if new not in _EDGES[worker.state]:
            raise RuntimeError(
                f"illegal worker transition {worker.state.name} -> {new.name} "
                f"(worker {worker.slot})"
            )
        worker.state = new
        self._changed.notify_all()

    def _fork(self, slot: int, engine, generation: int, incarnation: int) -> _Worker:
        """Fork one worker process and register it with the supervisor;
        the caller decides where it lives.

        The caller holds ``_fork_lock``, which the supervisor also takes
        before it exits on stop: a fork either registers in time to be
        reaped or sees the stop and refuses.
        """
        if self._stopping.is_set():
            raise ServiceError("the worker pool is stopping")
        fingerprint = engine.identity()[0]
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
        with self._lock:
            self._procs.add(worker)
        worker.receiver = threading.Thread(
            target=self._receive,
            args=(worker,),
            name=f"mac-pool-recv-{slot}",
            daemon=True,
        )
        worker.receiver.start()
        return worker

    def _stage(self, slots, engine, generation: int) -> list:
        """Fork workers for ``slots`` outside the fleet and wait for
        their handshakes; on any failure discard them and re-raise."""
        staged: list[_Worker] = []
        try:
            for slot in slots:
                incarnation = self._next_incarnation(slot)
                with self._fork_lock:
                    staged.append(self._fork(slot, engine, generation, incarnation))
            self._await_ready(staged, self.start_timeout)
            if self._stopping.is_set():
                raise ServiceError("the worker pool began stopping")
        except Exception:
            self._terminate(staged)
            raise
        return staged

    def _spawn(self, slot: int) -> None:
        """Fork a worker of the *current* generation into a fleet slot.

        Runs on the supervisor thread, so it never waits for an exit: a
        fork that lost its slot meanwhile is only signalled.
        """
        with self._fork_lock:
            with self._lock:
                engine, generation = self._engine, self._generation
            incarnation = self._next_incarnation(slot)
            try:
                worker = self._fork(slot, engine, generation, incarnation)
            except ServiceError:
                return  # the pool began stopping
            with self._lock:
                record = self._slots[slot] if slot < len(self._slots) else None
                stale = self._stopping.is_set() or record is None
                if record is not None and record.worker is not None:
                    stale = stale or record.worker.state is not DEAD
                if not stale:
                    record.worker = worker
        if stale:
            # The slot was filled or retired while we forked (a swap,
            # shrink, or stop raced the respawn): the reaper collects it.
            worker.process.terminate()

    def _next_incarnation(self, slot: int) -> int:
        """Claim the next incarnation number of ``slot`` (0 if new)."""
        with self._lock:
            if slot >= len(self._slots):
                return 0
            self._slots[slot].incarnations += 1
            return self._slots[slot].incarnations - 1

    def _await_ready(self, workers: list[_Worker], timeout: float) -> None:
        """Wait for ready handshakes, failing fast on a dead process."""
        with self._lock:
            self._changed.wait_for(
                lambda: all(w.state is not STARTING for w in workers), timeout
            )
            for worker in workers:
                if worker.state is STARTING:
                    raise ServiceError(
                        f"worker {worker.slot} did not become ready within "
                        f"{timeout:g}s"
                    )
                if worker.state is DEAD:
                    raise ServiceError(
                        f"worker {worker.slot} (generation "
                        f"{worker.generation}) died during start with exit "
                        f"code {worker.exit_code}"
                    )
                if worker.state is not SERVING:
                    raise ServiceError(f"worker {worker.slot} was stopped during start")

    def _terminate(self, workers: list[_Worker]) -> None:
        """SIGTERM workers and wait for the supervisor to reap them,
        escalating to SIGKILL for any that outlive a grace second."""
        for worker in workers:
            worker.process.terminate()
        for worker in workers:
            if not worker.exited.wait(timeout=1.0):
                worker.process.kill()
                worker.exited.wait(timeout=1.0)

    def stop(self, timeout: float = 5.0) -> None:
        """Drain and stop every worker; fail leftover in-flight requests.

        Workers serve their queued ops before the stop sentinel (the
        pipe is FIFO), so a normal stop loses nothing; a wedged worker
        is terminated after ``timeout`` and its pending requests fail
        with :class:`WorkerCrashed`.  Idempotent.
        """
        self._stopping.set()
        with self._lock:
            workers = list(self._procs)
            self._retire(workers, "was stopped with the pool")
        self._drain(workers, timeout)
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
        return self._admin(
            "swap", self._swap_locked, engine, source, index_digest, drain_timeout
        )

    def _admin(self, verb: str, operation, *args) -> dict:
        """Run one admin operation (swap, resize, mutate) exclusively."""
        if not self._started:
            raise ReloadError(f"cannot {verb}: the worker pool is not started")
        if not self._admin_lock.acquire(blocking=False):
            raise ReloadError(
                "another admin operation (swap, resize, or mutate) is in "
                "progress; retry when it completes"
            )
        try:
            if self._stopping.is_set():
                raise ReloadError(f"cannot {verb}: the worker pool is stopping")
            return operation(*args)
        finally:
            self._admin_lock.release()

    def _swap_locked(self, engine, source, index_digest, drain_timeout) -> dict:
        started = time.monotonic()
        generation = self._generation + 1
        active = _identity(engine, generation, source, index_digest)
        try:
            staged = self._stage(range(self.num_workers), engine, generation)
        except Exception as exc:
            raise ReloadError(
                f"snapshot swap to generation {generation} rolled back "
                f"(staged workers discarded, serving fleet untouched): {exc}"
            ) from exc
        # Install: from here on every new dispatch goes to the new
        # generation; the old one only finishes what it already holds.
        with self._lock:
            retired = [s.worker for s in self._slots if s.worker is not None]
            for worker in staged:
                record = self._slots[worker.slot]
                record.worker = worker
                record.respawn_at = None  # the staged worker fills it
            self._engine = engine
            self._generation = generation
            self._retire(retired, "was retired by a live snapshot swap")
        drain = self._drain(
            retired, self.drain_timeout if drain_timeout is None else drain_timeout
        )
        # The reported identity flips only now — after the old
        # generation fully drained — and atomically (one dict swap).
        self._active = active
        return {
            "generation": generation,
            "fingerprint": active["fingerprint"],
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
        return self._admin("resize", self._resize_locked, num_workers, drain_timeout)

    def _resize_locked(self, num_workers: int, drain_timeout) -> dict:
        started = time.monotonic()
        old_n = self.num_workers
        drain = {"drained": 0, "terminated": 0}
        if num_workers > old_n:
            try:
                staged = self._stage(
                    range(old_n, num_workers), self._engine, self._generation
                )
            except Exception as exc:
                raise ReloadError(
                    f"fleet grow {old_n} -> {num_workers} rolled back "
                    f"(fleet unchanged): {exc}"
                ) from exc
            with self._lock:
                self._slots.extend(_Slot(worker=w, incarnations=1) for w in staged)
                self.num_workers = num_workers
        elif num_workers < old_n:
            with self._lock:
                removed = self._slots[num_workers:]
                retired = [s.worker for s in removed if s.worker is not None]
                self._retired_restarts += sum(s.restarts for s in removed)
                self._slots = self._slots[:num_workers]
                self.num_workers = num_workers
                self._retire(retired, "was retired by a fleet shrink")
            drain = self._drain(
                retired,
                self.drain_timeout if drain_timeout is None else drain_timeout,
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
        reply carries the digest its engine maintains (see
        :meth:`~repro.engine.MACEngine.identity`) and its apply time,
        and any worker that failed the batch or landed on different
        content is SIGKILLed — the supervisor refills its slot by
        forking the already-mutated parent, so divergence is never
        served.  No
        generation bump: the fleet stays on its snapshot generation,
        with the reported identity's ``fingerprint``/``delta_seq``
        advanced in one atomic flip.  ``broadcast_s`` runs from the
        first send to the last reply; ``worker_apply_s`` is the slowest
        worker's own apply time.
        """
        return self._admin("mutate", self._mutate_locked, mutations)

    def _mutate_locked(self, mutations: list) -> dict:
        started = time.monotonic()
        with self._fork_lock:
            # Parent first, and atomically with respect to respawn
            # forks: a child must never copy a half-applied engine, nor
            # be labelled with, or miss the broadcast of, the wrong side
            # of this batch.
            summary = self._engine.apply(mutations)
            fingerprint = self._engine.identity()[0]
            with self._lock:
                self._mutations += 1
                workers = self._dispatchable()
        sent = time.monotonic()
        futures: dict[_Worker, Future] = {}
        for worker in workers:
            try:
                futures[worker] = self._submit(worker, "mutate", mutations)
            except _PipeDied:
                continue
        divergent: list[_Worker] = []
        applied_workers = 0
        worker_apply_s = 0.0
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
            worker_apply_s = max(worker_apply_s, reply["elapsed_s"])
            with self._lock:
                # Keep the per-worker identity in /v1/healthz honest:
                # this worker now serves the mutated content.
                worker.info["fingerprint"] = fingerprint
        broadcast_s = time.monotonic() - sent
        for worker in divergent:
            # SIGKILL, never serve from divergence: the supervisor reaps
            # it, fails its in-flight requests typed and refills the
            # slot from the mutated parent engine.
            worker.process.kill()
        if self._active is not None:
            self._active = {
                **self._active,
                "fingerprint": fingerprint,
                "delta_seq": summary["delta_seq"],
            }
        return {
            **summary,
            "fingerprint": fingerprint,
            "workers": len(workers),
            "applied_workers": applied_workers,
            "respawned": len(divergent),
            "uniform": not divergent,
            "broadcast_s": round(broadcast_s, 4),
            "worker_apply_s": round(worker_apply_s, 4),
            "elapsed_s": round(time.monotonic() - started, 3),
        }

    def _retire(self, workers: list[_Worker], reason: str) -> None:
        """Move workers out of dispatch into ``DRAINING``; ``reason``
        becomes their in-flight casualties' error.  Holds ``_lock``."""
        for worker in workers:
            if worker.state in _DISPATCHABLE:
                worker.drain_reason = reason
                self._transition(worker, DRAINING)

    def _drain(self, workers: list[_Worker], timeout: float) -> dict:
        """Gracefully stop retired workers: final telemetry poll, stop
        sentinel, wait for the supervisor to reap each, terminate the
        stragglers.

        The telemetry poll is submitted *before* the sentinel, so the
        FIFO pipe guarantees it reflects every request the worker ever
        served; the receive thread records the reply, and the reaper
        folds it into the merged fleet counters (telemetry stays
        monotone across generations).
        """
        for worker in workers:
            if worker.state is not DRAINING:
                continue  # stalled or dead: not reading its pipe
            try:
                self._submit(worker, "telemetry", None, allow_retired=True)
                with worker.send_lock:
                    worker.conn.send(None)
            except (_PipeDied, OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        stragglers = [
            w
            for w in workers
            if not w.exited.wait(timeout=max(0.1, deadline - time.monotonic()))
        ]
        self._terminate(stragglers)
        return {
            "drained": len(workers) - len(stragglers),
            "terminated": len(stragglers),
        }

    def _death_error(self, worker: _Worker) -> WorkerCrashed:
        """The one error a dead worker's in-flight requests get, decided
        by the state it died in."""
        pid = worker.info.get("pid", worker.process.pid)
        if worker.state is STALLED:
            return WorkerStalled(
                f"worker {worker.slot} (pid {pid}) stopped replying for "
                f"longer than its stall budget and was killed by the "
                f"watchdog with this request in flight; the supervisor is "
                f"refilling the slot — a retry is safe"
            )
        if worker.state is DRAINING:
            return WorkerCrashed(
                f"worker {worker.slot} {worker.drain_reason} with this "
                f"request still in flight; a retry is safe"
            )
        return WorkerCrashed(
            f"worker {worker.slot} (pid {pid}) died with exit code "
            f"{worker.exit_code} while the request was in flight; the "
            f"supervisor is restarting it — a retry is safe"
        )

    def _finalize(self, worker: _Worker) -> None:
        """Move a reaped worker to ``DEAD``: fail its pending requests
        with the error of the state it died in, fold its last telemetry
        into the retired totals, schedule a replacement fork (with
        crash-loop backoff) if it still held a fleet slot, close its
        pipe."""
        now = time.monotonic()
        with self._lock:
            error = self._death_error(worker)
            record = (
                self._slots[worker.slot] if worker.slot < len(self._slots) else None
            )
            if (
                record is not None
                and record.worker is worker
                and worker.state is not DRAINING
                and not self._stopping.is_set()
            ):
                if now - worker.started_at < 1.0:
                    # Crash loop (e.g. a poisoned engine): back off
                    # exponentially instead of fork-bombing; a worker
                    # that survived >= 1s resets the penalty.
                    record.fast_crashes = min(
                        record.fast_crashes + 1, _MAX_FAST_CRASHES
                    )
                    delay = _backoff_delay(record.fast_crashes)
                else:
                    record.fast_crashes = 0
                    delay = 0.0
                record.respawn_at = now + delay
                record.restarts += 1
            self._transition(worker, DEAD)
            self._procs.discard(worker)
            pending = list(worker.pending.values())
            worker.pending.clear()
            worker.op_meta.clear()
            worker.busy_since = None
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
                with self._lock:
                    worker.info = message[1]
                    if worker.state is STARTING:
                        self._transition(worker, SERVING)
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
                    # Recorded here, not by whoever polled, so a worker
                    # that answers its final drain poll and exits has
                    # the fresh counters on it when the reaper (which
                    # joins this thread first) folds them.
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
        """The reaper: runs from :meth:`start` until the pool is stopping
        and no forked process is left unreaped."""
        while True:
            if self._stopping.is_set():
                with self._fork_lock, self._lock:
                    if not self._procs:
                        return
            else:
                self._respawn_due()
                if self.stall_timeout is not None:
                    self._watchdog_check()
                    self._heartbeat()
            with self._lock:
                sentinels = {w.process.sentinel: w for w in self._procs}
            for sentinel in _sentinel_wait(list(sentinels), timeout=0.1):
                self._reap(sentinels[sentinel])

    def _dispatchable(self) -> list[_Worker]:
        """Slot workers that take new work; the caller holds ``_lock``."""
        return [
            s.worker
            for s in self._slots
            if s.worker is not None and s.worker.state in _DISPATCHABLE
        ]

    def _watchdog_check(self) -> None:
        """SIGKILL workers that have been busy past their stall budget.

        Runs on the supervisor tick.  A worker is wedged when its
        oldest unanswered op has waited longer than its watchdog budget
        (``stall_timeout``, deadline-clamped at submit time) since the
        worker last replied anything.  SIGKILL is the only lever that
        works on a process stuck in an infinite loop or a syscall; the
        reaper then fails the in-flight requests of the ``STALLED``
        worker with :class:`WorkerStalled` and refills the slot through
        the normal respawn path.
        """
        now = time.monotonic()
        victims: list[_Worker] = []
        with self._lock:
            for worker in self._dispatchable():
                if worker.busy_since is None:
                    continue
                oldest = next(iter(worker.pending), None)
                meta = worker.op_meta.get(oldest) if oldest is not None else None
                budget = self.stall_timeout
                if meta is not None and meta[1] is not None:
                    budget = meta[1]
                if now - worker.busy_since > budget:
                    self._transition(worker, STALLED)
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
                for w in self._dispatchable()
                if not w.pending and now - w.last_ping >= self.stall_timeout / 2
            ]
            for worker in idle:
                worker.last_ping = now
        for worker in idle:
            try:
                self._submit(worker, "ping", None)
            except _PipeDied:
                pass

    def _reap(self, worker: _Worker) -> None:
        """Collect one exited child (the pool's only process ``join``),
        then finalize it and set its exit event."""
        worker.process.join()
        while worker.process.exitcode is None:  # pragma: no cover
            # ``Process.start()`` polls every known child, so a fork
            # elsewhere in this process can win the waitpid; it stores
            # the status on the same Popen an instant later.
            time.sleep(0.001)
        worker.exit_code = worker.process.exitcode
        # The sentinel can fire before the receive thread has drained
        # the pipe: a worker that replied and exited cleanly may still
        # look "in flight" here.  The dead process's pipe end is closed,
        # so the receiver is guaranteed to consume every buffered reply
        # and hit EOF — wait for it so delivered results beat the
        # synthetic crash error.
        if worker.receiver is not None:
            worker.receiver.join(timeout=1.0)
        self._finalize(worker)
        worker.exited.set()

    def _respawn_due(self) -> None:
        """Fork replacements for slots whose backoff window has passed."""
        now = time.monotonic()
        with self._lock:
            due = [
                slot
                for slot, record in enumerate(self._slots)
                if record.respawn_at is not None and record.respawn_at <= now
            ]
            for slot in due:
                self._slots[slot].respawn_at = None
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
            live = self._dispatchable()
            if not live:
                raise WorkerCrashed(
                    f"all {self.num_workers} worker process(es) are down; "
                    f"the supervisor is restarting them — retry shortly"
                )
            least = min(live, key=lambda w: (w.depth, w.slot))
            target = (
                self._slots[affinity].worker if affinity < len(self._slots) else None
            )
            if target is None or target.state not in _DISPATCHABLE:
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
        accepts = (*_DISPATCHABLE, DRAINING) if allow_retired else _DISPATCHABLE
        with self._lock:
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
            if worker.state not in accepts:
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
                # The pipe died with its process: give the supervisor a
                # moment to reap it, so the re-route skips this worker.
                worker.exited.wait(timeout=1.0)
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
            worker = self._slots[slot].worker if 0 <= slot < len(self._slots) else None
            if worker is None or worker.state is DEAD:
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
            candidates = [w for w in self._dispatchable() if w is not primary]
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
            # A stalled worker would never answer the poll: skip it (its
            # last snapshot is merged below) so the endpoint degrades
            # instead of burning the whole timeout.
            workers = [w for w in self._procs if w.state is not STALLED]
        futures: list[Future] = []
        for worker in workers:
            try:
                futures.append(
                    self._submit(worker, "telemetry", None, allow_retired=True)
                )
            except _PipeDied:
                continue
        # The receive thread records each reply on its worker; one that
        # is busy past the timeout or just crashed keeps its last one.
        _future_wait(futures, timeout=timeout)
        with self._lock:
            snapshots = [
                telemetry_from_wire(w.last_tel)
                for w in self._procs
                if w.last_tel is not None
            ]
            if self._retired_tel is not None:
                snapshots.append(self._retired_tel)
        return telemetry_to_wire(merge_telemetry(snapshots))

    def _total_restarts(self) -> int:
        """Restarts over the tier's lifetime; the caller holds ``_lock``."""
        return sum(s.restarts for s in self._slots) + self._retired_restarts

    def _draining(self) -> int:
        """Retired workers not yet reaped; the caller holds ``_lock``."""
        return sum(w.state is DRAINING for w in self._procs)

    def workers_wire(self) -> dict:
        """Liveness summary for ``/v1/healthz``: who is up, who restarted."""
        with self._lock:
            entries = []
            alive = 0
            for slot, record in enumerate(self._slots):
                worker = record.worker
                up = worker is not None and worker.state is not DEAD
                alive += 1 if up else 0
                entries.append({
                    "worker": slot,
                    "alive": up,
                    "stalled": worker is not None and worker.state is STALLED,
                    "pid": worker.info.get("pid") if worker else None,
                    "restarts": record.restarts,
                    "generation": worker.generation if worker else None,
                    "fingerprint": (
                        worker.info.get("fingerprint") if worker else None
                    ),
                })
            return {
                "alive": alive,
                "total": self.num_workers,
                "restarts": self._total_restarts(),
                "generation": self._generation,
                "draining": self._draining(),
                "stalled_workers": self._stalled_workers,
                "workers": entries,
            }

    def pool_wire(self) -> dict:
        """Dispatch + per-worker serving stats for ``/v1/metrics``."""
        now = time.monotonic()
        with self._lock:
            entries = []
            for slot, record in enumerate(self._slots):
                worker = record.worker
                backoff = max(0.0, (record.respawn_at or now) - now)
                if worker is None:
                    entries.append({
                        "worker": slot,
                        "alive": False,
                        "stalled": False,
                        "restarts": record.restarts,
                        "crash_loops": record.fast_crashes,
                        "restart_backoff_remaining": backoff,
                    })
                    continue
                uptime = max(now - worker.started_at, 1e-9)
                entries.append({
                    "worker": slot,
                    "alive": worker.state is not DEAD,
                    "stalled": worker.state is STALLED,
                    "pid": worker.info.get("pid"),
                    "restarts": record.restarts,
                    "generation": worker.generation,
                    "incarnation": worker.incarnation,
                    "crash_loops": record.fast_crashes,
                    "restart_backoff_remaining": backoff,
                    "queue_depth": worker.depth,
                    "served": worker.served,
                    "qps": worker.served / uptime,
                    "uptime_s": uptime,
                })
            return {
                "num_workers": self.num_workers,
                "spill_depth": self.spill_depth,
                "restarts": self._total_restarts(),
                "generation": self._generation,
                "draining": self._draining(),
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
