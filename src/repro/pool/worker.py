"""The worker-process side of the :mod:`repro.pool` tier.

Each worker is a forked child that inherited the parent's fully-loaded
:class:`~repro.engine.MACEngine` — G-tree, CSR views, warm stage caches
— via copy-on-write memory, with the snapshot's array payloads
additionally backed by shared read-only memory maps when the parent
loaded with ``mmap=True``.  The worker serves ops from one duplex pipe,
single-threaded and strictly FIFO: ``(req_id, op, payload)`` in,
``(req_id, ok, wire_payload)`` out.  Replies are wire-form dicts
(:func:`result_to_wire` et al.) so they pickle cheaply and the parent
can forward them to HTTP clients without touching engine objects.

A worker belongs to one snapshot *generation* (incremented by every
live swap) and is one *incarnation* of its slot (incremented by every
restart); both ride in the ready handshake so the dispatcher can prove
the fleet is never mixed-generation.  An optional
:class:`~repro.pool.faults.FaultPlan` is consulted on every received
op and on the stop sentinel — the deterministic chaos hooks.

A worker never initiates shutdown: it exits on the ``None`` sentinel
(graceful stop), on pipe EOF (the dispatcher went away), or abruptly
when crashed/killed — which the parent-side supervisor detects through
the process sentinel.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace

from repro.errors import DeadlineExceeded, ReproError, ServiceError
from repro.service.protocol import (
    error_to_wire,
    plan_to_wire,
    result_to_wire,
    telemetry_to_wire,
)


def _charged_search(engine, request, submitted_at: float):
    """Run one search, charging cross-process queue wait to the budget.

    ``submitted_at`` is the dispatcher's ``time.monotonic()`` at send
    time — comparable across processes on the same host — so a budgeted
    request that expired while queued in the worker's pipe fails typed
    before touching the engine, mirroring the server's admission-queue
    charge.
    """
    if request.deadline is not None:
        waited = time.monotonic() - submitted_at
        remaining = request.deadline - waited
        if remaining <= 0:
            if request.anytime:
                # Anytime requests still run: the engine turns the dead
                # budget into a best-so-far partial answer.
                remaining = 1e-3
            else:
                raise DeadlineExceeded(
                    f"request spent its {request.deadline:g}s deadline "
                    f"queued for a worker process ({waited:.3f}s queued)"
                )
        request = replace(request, deadline=remaining)
    return engine.search(request)


def _handle(worker_id: int, engine, op: str, payload):
    if op == "search":
        request, submitted_at = payload
        return result_to_wire(_charged_search(engine, request, submitted_at))
    if op == "explain":
        return plan_to_wire(engine.explain(payload))
    if op == "telemetry":
        return telemetry_to_wire(engine.telemetry())
    if op == "mutate":
        # A live-mutation broadcast: apply the batch to this worker's
        # engine copy and report the digest that apply just advanced
        # from this process's own network — the dispatcher asserts
        # every worker (and the parent) landed on the same content, and
        # kills any that diverged instead of serving from it.
        started = time.monotonic()
        summary = engine.apply(payload)
        summary["fingerprint"] = engine.identity()[0]
        summary["elapsed_s"] = time.monotonic() - started
        return summary
    if op == "ping":
        return {"worker": worker_id, "pid": os.getpid()}
    if op == "sleep":
        # Supervision hook for tests and benchmarks: occupy this worker
        # for a deterministic window (e.g. to SIGKILL it mid-request).
        time.sleep(float(payload))
        return {"slept": float(payload)}
    if op == "exit":
        # Supervision hook: die abruptly, skipping all cleanup — the
        # scriptable stand-in for a segfault or OOM kill.
        os._exit(int(payload))
    raise ServiceError(f"unknown worker op {op!r}")


def worker_main(
    worker_id: int,
    conn,
    engine,
    fingerprint: str,
    generation: int = 0,
    incarnation: int = 0,
    fault_plan=None,
) -> None:
    """Serve ops from the dispatcher pipe until EOF or the stop sentinel.

    Runs inside the forked child.  Telemetry counters are reset at boot
    (the inherited cache *contents* stay warm) so this worker's numbers
    mean "traffic served here" and the parent can merge them cleanly.
    """
    # Ctrl-C goes to the whole foreground process group; orderly
    # shutdown is the dispatcher's job (stop sentinel, then SIGTERM).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    engine.reset_telemetry()
    conn.send((
        "__ready__",
        {
            "worker": worker_id,
            "pid": os.getpid(),
            "fingerprint": fingerprint,
            "generation": generation,
            "incarnation": incarnation,
        },
    ))
    op_counts: dict[str, int] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # dispatcher went away; nothing left to serve
        if message is None:
            if fault_plan:
                stall = fault_plan.drain_stall(worker_id, incarnation)
                if stall > 0:
                    time.sleep(stall)
            break
        req_id, op, payload = message
        delay = 0.0
        if fault_plan:
            nth = op_counts[op] = op_counts.get(op, 0) + 1
            code = fault_plan.kill_code(worker_id, incarnation, op, nth)
            if code is not None:
                os._exit(code)  # before serving: the request dies in flight
            wedge = fault_plan.wedge_kind(worker_id, incarnation, op, nth)
            if wedge == "hang":
                # Wedge forever in a blocking sleep: the pipe stops being
                # read, the request never answers — only SIGKILL (from
                # the parent's stall watchdog) gets this process back.
                while True:
                    time.sleep(60.0)
            if wedge == "busy_loop":
                # Wedge spinning the CPU — an infinite loop rather than
                # a stuck syscall; equally invisible to process sentinels.
                x = 0
                while True:
                    x = (x + 1) % 1_000_003
            delay = fault_plan.reply_delay(worker_id, incarnation, op, nth)
        try:
            reply = (req_id, True, _handle(worker_id, engine, op, payload))
        except ReproError as exc:
            reply = (req_id, False, error_to_wire(exc))
        except Exception as exc:  # pragma: no cover - defensive
            reply = (req_id, False, {
                "type": "ServiceError",
                "message": f"worker {worker_id} failed on {op!r}: "
                           f"{type(exc).__name__}: {exc}",
            })
        if delay > 0:
            time.sleep(delay)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()
