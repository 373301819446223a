#!/usr/bin/env python3
"""Served-workload benchmark: boot ``repro serve``, drive it over HTTP.

    python3 perfbench/run.py --workload hot|miss|fleet --seed N \
        --seconds S --trace 0|1

Boots the real server (``perfbench/launcher.py`` -> ``repro serve``) in
its own session, drives it closed-loop from this process with
one or two blocking ``ServiceClient`` threads for ``--seconds``,
checks every answer against an in-process ``MACEngine`` reference
(outside the timed window), tears the server's process group down and
fails if any process survives.  Human-readable lines go to stdout; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Server boots per ``--trace 0`` run; ``setup_s`` is their median and
#: the last boot serves the measured window.
SETUP_BOOTS = 3
#: Single-edge mutations timed per set-up boot on the threads tier
#: (four add/remove cycles of the three toggle edges).
MUTATE_PROBE = 24

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("mutate_p50_ms", "ms"),
    ("setup_s", "s"),
    ("mem_mb", "MB"),
)

PER_LAYER = (
    ("service.inbound_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.executor_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("service.outbound_ms", "ms"),
    ("protocol.reply_bytes", "bytes"),
    ("service.rejected", "count"),
    ("pool.dispatch_ms", "ms"),
    ("pool.affinity_share", "ratio"),
    ("pool.mutate_ms", "ms"),
    ("pool.start_s", "s"),
    ("engine.search_ms", "ms"),
    ("engine.result_hit_ratio", "ratio"),
    ("engine.filter_hit_ratio", "ratio"),
    ("engine.core_hit_ratio", "ratio"),
    ("engine.dominance_hit_ratio", "ratio"),
    ("engine.evicted_by_mutation", "count"),
    ("road.filter_ms", "ms"),
    ("road.gtree_build_s", "s"),
    ("graph.core_ms", "ms"),
    ("dominance.build_ms", "ms"),
    ("core.gs_ms", "ms"),
    ("core.ls_ms", "ms"),
    ("core.ls_candidates", "count"),
    ("core.gs_tasks", "count"),
    ("core.gs_peel_rounds", "count"),
    ("core.gs_answered_ratio", "ratio"),
    ("core.ls_answered_ratio", "ratio"),
    ("live.apply_ms", "ms"),
    ("live.repaired_entries", "count"),
    ("store.fingerprint_ms", "ms"),
    ("store.load_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    out = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            out.append(int(entry.name))
    return out


def pss_mb(pids: list[int]) -> float:
    """Summed proportional set size of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` process group, booted through the launcher."""

    def __init__(self, workdir: Path, tag: str, serve_args: list[str],
                 spans: Path | None = None) -> None:
        self.log_path = workdir / f"{tag}.log"
        self.serve_args = serve_args
        self.spans = spans
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.launched = 0.0
        self.notes: list[str] = []

    def start(self) -> None:
        cmd = [sys.executable, str(HERE / "launcher.py")]
        if self.spans is not None:
            cmd += ["--spans", str(self.spans)]
        cmd += ["serve", *self.serve_args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "wb")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait_ready(self, timeout: float = 120.0) -> None:
        from repro.service import ServiceClient

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited with {self.proc.returncode} during "
                    f"boot:\n{self.log_tail()}"
                )
            match = re.search(
                r"serving on http://[^:\s]+:(\d+)",
                self.log_path.read_text(errors="replace"),
            )
            if match:
                self.port = int(match.group(1))
                break
            if time.monotonic() > deadline:
                raise BenchError(f"server not listening after {timeout}s")
            time.sleep(0.005)
        with ServiceClient(port=self.port, timeout=30) as client:
            while client.healthz()["status"] != "ok":
                if time.monotonic() > deadline:
                    raise BenchError("server never reported healthz ok")
                time.sleep(0.005)

    def members(self) -> list[int]:
        return group_members(self.proc.pid) if self.proc else []

    def stop(self) -> None:
        """SIGTERM the server, wait, SIGKILL its group; raise if anything
        lives.  The server alone gets SIGTERM so it can drain its pool
        workers itself (and write its spans)."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        pgid = proc.pid
        try:
            os.kill(pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        if not _wait_group_empty(pgid, 5.0) or proc.poll() is None:
            self.notes.append("needed SIGKILL")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        self._log.close()
        if not _wait_group_empty(pgid, 5.0):
            raise BenchError(
                f"processes {group_members(pgid)} survived teardown of "
                f"server group {pgid}"
            )


def _wait_group_empty(pgid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while group_members(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
@dataclass
class Sample:
    op: object  # workloads.Op
    t0: float
    t1: float
    result: object  # ServiceResult | mutate summary dict | None
    error: str | None


def run_ops(client, ops, until: float | None = None) -> list:
    from repro.errors import ReproError

    out = []
    for op in ops:
        t0 = time.monotonic()
        if until is not None and t0 >= until:
            break
        try:
            if op.kind == "search":
                result = client.search(op.request)
            else:
                result = client.mutate([op.mutation])
            error = None
        except ReproError as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        out.append(Sample(op, t0, time.monotonic(), result, error))
    return out


def drive(port: int, streams: list, seconds: float):
    """Closed loop: one thread + keep-alive connection per stream."""
    from repro.service import ServiceClient

    barrier = threading.Barrier(len(streams) + 1)
    window: dict[str, float] = {}
    results: list[list] = [[] for _ in streams]
    crashes: list[str] = []

    def worker(conn: int, stream) -> None:
        try:
            with ServiceClient(port=port, timeout=120) as client:
                client.healthz()  # open the connection before the window
                barrier.wait(timeout=60)
                results[conn] = run_ops(client, stream, window["end"])
        except Exception as exc:  # surfaced below as a failed run
            crashes.append(f"connection {conn}: {type(exc).__name__}: {exc}")
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i, s), daemon=True)
        for i, s in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    window["start"] = time.monotonic()
    window["end"] = window["start"] + seconds
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join(timeout=seconds + 180)
    if crashes or any(t.is_alive() for t in threads):
        raise BenchError("load generator failed: " + "; ".join(crashes))
    samples = sorted((s for r in results for s in r), key=lambda s: s.t0)
    return samples, window["start"]


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------
class Bench:
    def __init__(self, args, workdir: Path) -> None:
        import workloads

        self.args = args
        self.workdir = workdir
        self.wl = workloads
        self.workload = args.workload
        self.tier = "pool" if args.workload == "fleet" else "threads"
        self.servers: list[Server] = []
        self.ds = workloads.load_dataset()
        if self.workload == "hot":
            self.population = workloads.hot_population(self.ds)
            requests = self.population
        elif self.workload == "miss":
            self.population = workloads.miss_population(self.ds)
            requests = [r for _, r in self.population]
        else:
            self.population = workloads.fleet_population(self.ds)
            requests = self.population
        self.edges = workloads.toggle_edges(self.ds, requests)
        self.base_snapshot: Path | None = None
        self.boots = 0
        # Reference engines per toggle state, and their answers per
        # (state, population key): shared by every verified window.
        self.ref_engines: dict[int, object] = {}
        self.ref_answers: dict[tuple, tuple] = {}

    # -- servers -------------------------------------------------------
    def serve_args(self, snapshot: Path | None) -> list[str]:
        wl = self.wl
        args = ["--dataset", wl.DATASET, "--scale", str(wl.SCALE),
                "--seed", str(wl.DATA_SEED), "--port", "0"]
        if snapshot is None:
            return args + ["--eager"]
        return args + ["--snapshot", str(snapshot), "--worker-processes", "2"]

    def build_snapshot(self) -> None:
        """``repro index build --no-compress --warm``: the served snapshot,
        its stage caches pre-built for the warm-up identities."""
        from repro.service.protocol import request_to_wire

        wl = self.wl
        out = self.workdir / "base.snapshot"
        warm = self.workdir / "warm.jsonl"
        warm.write_text("".join(
            json.dumps(request_to_wire(r)) + "\n"
            for r in self.population[:wl.FLEET_WARM]
        ))
        cmd = [sys.executable, "-m", "repro.cli", "index", "build",
               "--dataset", wl.DATASET, "--scale", str(wl.SCALE),
               "--seed", str(wl.DATA_SEED), "--out", str(out),
               "--no-compress", "--warm", str(warm)]
        done = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.DEVNULL, capture_output=True, timeout=170,
        )
        if done.returncode != 0:
            raise BenchError(
                f"snapshot build failed: {done.stderr.decode()[-2000:]}"
            )
        self.base_snapshot = out

    def boot(self, spans: Path | None = None) -> tuple[Server, float]:
        """Launch, wait for healthz, run the warm-up pass: set-up time."""
        self.boots += 1
        tag = f"boot{self.boots}"
        snapshot = None
        if self.tier == "pool":
            # A fresh copy per boot: /v1/admin/mutate appends to the
            # copy's deltas.jsonl, which every later load would replay.
            snapshot = self.workdir / f"{tag}.snapshot"
            shutil.copytree(self.base_snapshot, snapshot)
        server = Server(self.workdir, tag, self.serve_args(snapshot), spans)
        self.servers.append(server)
        server.start()
        server.wait_ready()
        self.warm(server)
        return server, time.monotonic() - server.launched

    def warm(self, server: Server) -> None:
        """The workload's untimed warm-up pass."""
        from repro.service import ServiceClient

        with ServiceClient(port=server.port, timeout=120) as client:
            warm = run_ops(client, self.wl.warmup_ops(
                self.workload, self.population
            ))
        failed = [s.error for s in warm if s.error]
        if failed:
            raise BenchError(f"warm-up failed: {failed[:3]}")

    def streams(self) -> list:
        wl, seed, pop = self.wl, self.args.seed, self.population
        conns = range(wl.CONNECTIONS[self.workload])
        if self.workload == "hot":
            return [wl.hot_stream(pop, seed, c) for c in conns]
        if self.workload == "miss":
            return [wl.miss_stream(pop, seed, c) for c in conns]
        return [wl.fleet_stream(pop, self.edges, seed, c) for c in conns]

    def measure(self, server: Server) -> dict:
        """The timed window plus everything read from the live server."""
        from repro.service import ServiceClient

        samples, start = drive(server.port, self.streams(), self.args.seconds)
        mem = pss_mb(server.members())
        with ServiceClient(port=server.port, timeout=60) as client:
            metrics = client.metrics()
        return {"samples": samples, "start": start, "mem_mb": mem,
                "metrics": metrics, "probe": []}

    def mutate_probe(self, server: Server) -> list:
        """Single-edge toggles, timed one after another.

        The threads tier sees no writes in its window, so its
        ``mutate_p50_ms`` comes from here: a whole number of add/remove
        cycles (the graph ends where it began), sent right after a
        set-up boot's warm-up, when every boot's caches hold the same
        entries.
        """
        from repro.service import ServiceClient

        with ServiceClient(port=server.port, timeout=60) as client:
            return run_ops(client, [
                self.wl.Op("mutate", mutation=self.wl.toggle_mutation(
                    self.edges, n), key=n)
                for n in range(MUTATE_PROBE)
            ])

    def reply_bytes(self, server: Server) -> list[int]:
        """Raw reply sizes of the population's requests (after a window)."""
        from repro.service.protocol import request_to_wire

        requests = [r for _, r in self.population] \
            if self.workload == "miss" else self.population
        sizes = []
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            for i, request in enumerate(requests[:16]):
                body = json.dumps(request_to_wire(
                    replace(request, label=f"bytes-{i}")
                )).encode()
                conn.request("POST", "/v1/search", body=body,
                             headers={"Content-Type": "application/json"})
                sizes.append(len(conn.getresponse().read()))
        finally:
            conn.close()
        return sizes

    # -- correctness ---------------------------------------------------
    def verify(self, samples: list[Sample]) -> dict:
        """Compare answers with an in-process reference engine.

        hot/miss: one engine, one reference answer per population entry.
        fleet: a search is checked only when its send->reply window
        overlaps no mutation; its reference is a fresh engine on a
        network that applied the same toggles, one per toggle state.
        """
        import stats
        from repro import MACEngine
        from repro.service.protocol import result_from_wire, result_to_wire

        engines, answers = self.ref_engines, self.ref_answers

        def reference(state: int, op) -> tuple:
            key = (state, op.key)
            if key not in answers:
                if state not in engines:
                    if state == 0:
                        network = self.ds.network
                    else:
                        network = self.wl.load_dataset().network
                    engine = MACEngine(network)
                    if state:
                        engine.apply(self.wl.toggle_state(self.edges, state))
                    engines[state] = engine
                wire = result_to_wire(engines[state].search(op.request))
                answers[key] = stats.signature(
                    result_from_wire(json.loads(json.dumps(wire)))
                )
            return answers[key]

        # Any failed mutation already fails the run; the state sequence
        # follows the ones that applied.
        mutations = [s for s in samples
                     if s.op.kind == "mutate" and s.error is None]
        cycle = 2 * len(self.edges)
        checked = mismatched = skipped = 0
        bad: list[str] = []
        for s in samples:
            if s.op.kind != "search" or s.error is not None:
                continue
            if any(m.t0 < s.t1 and m.t1 > s.t0 for m in mutations):
                skipped += 1
                continue
            applied = sum(1 for m in mutations if m.t1 <= s.t0)
            checked += 1
            if stats.signature(s.result) != reference(applied % cycle, s.op):
                mismatched += 1
                bad.append(s.op.request.label)
        return {"checked": checked, "mismatched": mismatched,
                "skipped": skipped, "examples": bad[:5]}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Best of five timings of a fixed pure-Python loop (ms)."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def window_figures(samples: list[Sample], start: float, end: float) -> dict:
    """End-to-end figures of the operations sent in ``[start, end)``."""
    import stats

    searches = [s for s in samples
                if s.op.kind == "search" and s.error is None
                and start <= s.t0 < end]
    lat = [(s.t1 - s.t0) * 1e3 for s in searches]
    muts = [s for s in samples
            if s.op.kind == "mutate" and s.error is None
            and start <= s.t0 < end]
    return {
        "n": len(lat),
        "latency_p50_ms": stats.median(lat),
        "latency_p95_ms": stats.percentile(lat, 95.0) if lat else 0.0,
        "throughput_qps": len(lat) / (end - start),
        "mutate_p50_ms": mutate_p50(muts),
        "mutations": len(muts),
        "supported_percentile": stats.supported_percentile(len(lat)),
    }


def mutate_p50(samples: list[Sample]) -> float:
    """Mean of the median edge-insert and the median edge-delete latency.

    The toggle streams alternate inserts and deletes equally, and the two
    kinds cost differently, so the median of the pooled sample sits in the
    gap between them and jumps with small shifts; each kind's own median
    does not.
    """
    import stats

    kinds: dict[str, list[float]] = {}
    for s in samples:
        kinds.setdefault(s.op.mutation["op"], []).append((s.t1 - s.t0) * 1e3)
    medians = [stats.median(v) for v in kinds.values()]
    return sum(medians) / len(medians) if medians else 0.0


def reply_layers(samples: list[Sample]) -> dict[str, float]:
    """Engine-side per-layer figures read from the replies themselves."""
    import stats

    replies = [s.result for s in samples
               if s.op.kind == "search" and s.error is None]
    out: dict[str, float] = {}

    def ratio(stage: str) -> float:
        seen = [r.extra["engine"]["cache"].get(stage) for r in replies]
        seen = [x for x in seen if x in ("hit", "miss")]
        return seen.count("hit") / len(seen) if seen else 0.0

    for stage in ("result", "filter", "core", "dominance"):
        out[f"engine.{stage}_hit_ratio"] = ratio(stage)
    misses = [r for r in replies
              if r.extra["engine"]["cache"].get("result") != "hit"]

    def built(stage: str) -> list[float]:
        return [r.extra["engine"]["timings"][stage] * 1e3 for r in misses
                if r.extra["engine"]["cache"].get(stage) == "miss"]

    out["road.filter_ms"] = stats.median(built("filter"))
    out["graph.core_ms"] = stats.median(built("core"))
    out["dominance.build_ms"] = stats.median(built("dominance"))
    for algo, tag in (("global", "gs"), ("local", "ls")):
        ran = [r for r in misses if r.extra["engine"].get("algorithm") == algo]
        out[f"core.{tag}_ms"] = stats.median(
            r.extra["engine"]["timings"]["search"] * 1e3 for r in ran
        )
        out[f"core.{tag}_answered_ratio"] = (
            sum(1 for r in ran if r.partitions) / len(ran) if ran else 0.0
        )
        if tag == "gs":
            out["core.gs_tasks"] = stats.median(r.stats["tasks"] for r in ran)
            out["core.gs_peel_rounds"] = stats.median(
                r.stats["peel_rounds"] for r in ran
            )
        else:
            out["core.ls_candidates"] = stats.median(
                r.stats["candidates"] for r in ran
            )
    return out


def span_layers(spans_file: Path, samples: list[Sample], tier: str) -> dict:
    """Per-layer medians from the server's spans joined with the client's."""
    import stats

    data = json.loads(spans_file.read_text())
    by_label: dict[str, dict] = {}
    other: dict[str, list] = {}
    for layer, key, start, end, info in data["spans"]:
        if key is not None:
            by_label.setdefault(key, {})[layer] = (start, end, info)
        else:
            other.setdefault(layer, []).append((start, end, info))
    tiled = []
    for s in samples:
        if s.op.kind != "search" or s.error is not None:
            continue
        layers = stats.tile_layers(
            s.t0, s.t1, by_label.get(s.op.request.label, {}), tier
        )
        if layers is not None:
            tiled.append(layers)
    names = tiled[0].keys() if tiled else ()
    out = {f"{name}_ms": stats.median(t[name] * 1e3 for t in tiled)
           for name in names}
    out["tiled_requests"] = len(tiled)

    def durations(layer: str) -> list[float]:
        return [end - start for start, end, _ in other.get(layer, [])]

    out["pool.mutate_ms"] = stats.median(durations("pool.mutate")) * 1e3
    out["pool.start_s"] = sum(durations("pool.start"))
    out["store.load_s"] = sum(durations("store.load"))
    out["store.fingerprint_ms"] = stats.median(
        durations("store.fingerprint")
    ) * 1e3
    out["road.gtree_build_s"] = max(durations("road.gtree_build"), default=0.0)
    applies = other.get("live.apply", [])
    out["live.apply_ms"] = stats.median(durations("live.apply")) * 1e3
    out["live.repaired_entries"] = (
        sum(info or 0 for _, _, info in applies) / len(applies)
        if applies else 0.0
    )
    return out


def print_halves(samples, start: float, seconds: float, bounds: dict) -> None:
    """Each window figure for the first and second half of the window."""
    import stats

    mid = start + seconds / 2
    first = window_figures(samples, start, mid)
    second = window_figures(samples, mid, start + seconds)
    for name in ("latency_p50_ms", "latency_p95_ms", "throughput_qps",
                 "mutate_p50_ms"):
        if name == "mutate_p50_ms" and not first["mutations"]:
            continue  # no writes inside this window
        change = stats.relative_change(first[name], second[name])
        line = (f"  halves {name}: {first[name]:.4g} -> {second[name]:.4g}"
                f" ({change:+.1%})")
        if change > bounds.get(name, 0.25):
            line += "  FLAG: halves differ by more than the bound"
        print(line)


def load_bounds() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run(args, workdir: Path) -> dict:
    import stats

    calib_before = calibrate()
    clock = [time.monotonic()]
    phases: list[str] = []

    def phase(name: str) -> None:
        now = time.monotonic()
        phases.append(f"{name} {now - clock[0]:.1f}s")
        clock[0] = now

    bench = Bench(args, workdir)
    phase("inputs")
    seconds = args.seconds
    correct = True
    attempted = failed = 0
    metrics: dict[str, float] = {}
    try:
        if bench.tier == "pool":
            bench.build_snapshot()
            phase("snapshot")
        if not args.trace:
            setups, probe = [], []
            for i in range(SETUP_BOOTS):
                server, setup_s = bench.boot()
                setups.append(setup_s)
                if bench.tier == "threads":
                    probe += bench.mutate_probe(server)
                if i < SETUP_BOOTS - 1:
                    server.stop()
                elif bench.tier == "threads":
                    # The probe evicted the toggled cores' cached stages;
                    # rebuild them before the window.
                    bench.warm(server)
            phase("boots")
            window = bench.measure(server)
            window["probe"] = probe
            phase("window")
            server.stop()
            phase("teardown")
            print(f"setup_s per boot: {[round(s, 4) for s in setups]}")
            runs = [window]
        else:
            server, _ = bench.boot()
            plain = bench.measure(server)
            server.stop()
            phase("untraced")
            spans_file = workdir / "spans.json"
            server, _ = bench.boot(spans=spans_file)
            traced = bench.measure(server)
            sizes = bench.reply_bytes(server)
            if bench.tier == "threads":
                traced["probe"] = bench.mutate_probe(server)
            server.stop()
            phase("traced")
            runs = [plain, traced]
    finally:
        for server in bench.servers:
            try:
                server.stop()
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                correct = False

    for window in runs:
        ops = window["samples"] + window["probe"]
        errors = [s for s in ops if s.error is not None]
        check = bench.verify(window["samples"])
        attempted += len(ops)
        failed += len(errors) + check["mismatched"]
        print(f"answers: {check['checked']} checked against the reference, "
              f"{check['mismatched']} mismatched, {check['skipped']} skipped "
              f"(overlapped a mutation); {len(errors)} errors"
              + (f"; e.g. {errors[0].error}" if errors else "")
              + (f"; mismatched {check['examples']}" if check["examples"]
                 else ""))
        if check["checked"] == 0:
            correct = False
    if failed:
        correct = False
    phase("verify")
    print("phases: " + ", ".join(phases))

    figures = window_figures(runs[-1]["samples"], runs[-1]["start"],
                             runs[-1]["start"] + seconds)
    probe = [s for s in runs[-1]["probe"] if s.error is None]
    if probe:
        figures["mutate_p50_ms"] = mutate_p50(probe)
        figures["mutations"] = len(probe)
    q = figures["supported_percentile"]
    lat = sorted((s.t1 - s.t0) * 1e3 for s in runs[-1]["samples"]
                 if s.op.kind == "search" and s.error is None)
    print("latency deciles (ms): " + " ".join(
        f"{stats.percentile(lat, p):.3g}" for p in range(10, 100, 10)
    ))
    print(f"workload {args.workload}: tier={bench.tier} seed={args.seed} "
          f"connections={bench.wl.CONNECTIONS[args.workload]} closed-loop; "
          f"{figures['n']} searches, {figures['mutations']} mutations timed; "
          f"highest supported percentile p{q}")
    if q is None or q < 95.0:
        print("  FLAG: too few samples for latency_p95_ms "
              "(needs >= 10 beyond it)")

    if not args.trace:
        metrics = {
            "latency_p50_ms": figures["latency_p50_ms"],
            "latency_p95_ms": figures["latency_p95_ms"],
            "throughput_qps": figures["throughput_qps"],
            "mutate_p50_ms": figures["mutate_p50_ms"],
            "setup_s": stats.median(setups),
            "mem_mb": runs[-1]["mem_mb"],
        }
        units = dict(END_TO_END)
        print_halves(runs[-1]["samples"], runs[-1]["start"], seconds,
                     load_bounds())
    else:
        plain_fig = window_figures(plain["samples"], plain["start"],
                                   plain["start"] + seconds)
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        metrics.update(reply_layers(traced["samples"]))
        layers = span_layers(spans_file, traced["samples"], bench.tier)
        tiled = layers.pop("tiled_requests")
        metrics.update({k: v for k, v in layers.items() if k in metrics})
        service = traced["metrics"]["service"]
        metrics["service.rejected"] = float(service["rejected"])
        engine_tel = traced["metrics"]["engine"]
        metrics["engine.evicted_by_mutation"] = float(
            engine_tel["cache_evicted_by_mutation"]
        )
        pool = traced["metrics"].get("pool")
        if pool is not None:
            dispatched = pool["dispatched"]
            total = sum(dispatched.values())
            metrics["pool.affinity_share"] = (
                dispatched["affinity"] / total if total else 0.0
            )
        metrics["protocol.reply_bytes"] = stats.median(sizes)
        metrics["trace.overhead_ratio"] = (
            figures["latency_p50_ms"] / plain_fig["latency_p50_ms"]
        )
        units = dict(PER_LAYER)
        print(f"traced requests joined to spans: {tiled} of {figures['n']}; "
              f"untraced p50 {plain_fig['latency_p50_ms']:.4f} ms, traced "
              f"p50 {figures['latency_p50_ms']:.4f} ms")

    calib_after = calibrate()
    drift = stats.relative_change(calib_before, calib_after)
    print(f"calibration loop: {calib_before:.3f} ms before, "
          f"{calib_after:.3f} ms after ({drift:+.1%})"
          + ("  FLAG: machine speed moved" if drift > 0.1 else ""))
    for server in bench.servers:
        for note in server.notes:
            print(f"  note: {server.log_path.stem}: {note}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot", "miss", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Being stopped from outside must still tear the server groups down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
