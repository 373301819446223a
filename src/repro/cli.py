"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``stats``   — Table-II style statistics of a generated dataset.
``search``  — run one MAC query on a generated dataset through the
              query engine and print the resulting partitions
              (``--explain`` prints the resolved plan instead).
``batch``   — run many MAC queries from a JSONL file through one shared
              :class:`~repro.engine.MACEngine` (see ENGINE.md for the
              line format), optionally in parallel.
``case``    — the Aminer-style case study with author names.
``index``   — persistent index snapshots: ``index build`` constructs
              and saves the prepared engine state (G-tree, CSR views,
              optionally JSONL-warmed stage caches), ``index info``
              prints a snapshot's manifest, ``index verify`` checks its
              integrity (and, with ``--dataset``, its fingerprint).
``mutate``  — apply live graph mutations from a JSONL file: a dry-run
              validation against the regenerated dataset, or — with
              ``--snapshot`` — replayed onto the snapshot's engine and
              appended to its delta log (``deltas.jsonl``) so the next
              load fast-forwards through them.
``serve``   — boot the JSON-over-HTTP serving API on one warm engine
              (optionally warm-started from ``--snapshot``); query it
              with ``repro.service.ServiceClient``.  With
              ``--worker-processes N`` the engine is forked into a
              supervised tier of N worker processes (shared memory via
              copy-on-write + mmap) instead of serving on threads.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import MACEngine, MACRequest, PreferenceRegion, __version__, datasets
from repro.datasets.registry import DATASET_NAMES
from repro.errors import QueryError, ReproError
from repro.service.protocol import DEFAULT_PORT, plan_to_wire, result_to_wire
from repro.store.snapshot import snapshot_info, verify_snapshot


def _add_dataset_args(
    parser: argparse.ArgumentParser,
    dataset_default: str | None = "sf+slashdot",
) -> None:
    # One definition of the dataset defaults for every subcommand:
    # `index verify` must regenerate exactly what `index build` built,
    # so their --scale/--seed defaults cannot drift apart.
    parser.add_argument(
        "--dataset", default=dataset_default, choices=DATASET_NAMES,
        **(
            {"help": "regenerate this dataset and verify the fingerprint"}
            if dataset_default is None else {}
        ),
    )
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=7)


def resolve_search_defaults(
    ds,
    scale: float,
    dimensions: int,
    t: float | None = None,
    sigma: float = 0.01,
    center: list[float] | None = None,
) -> tuple[float, PreferenceRegion]:
    """Resolve the default ``t`` and preference region for a dataset.

    One shared implementation for the ``search`` and ``batch`` commands:
    ``t`` defaults to the dataset's registry value scaled by the road
    extent (sqrt of the scale factor), and the region is a ``sigma``-side
    box around ``center`` (default: 0.9/d per reduced axis, the same
    always-feasible center the benchmark harness uses).
    """
    if t is None:
        t = ds.default_t * scale ** 0.5
    if center is None:
        center = [0.9 / dimensions] * (dimensions - 1)
    return t, PreferenceRegion.centered(center, sigma)


def cmd_stats(args: argparse.Namespace) -> int:
    row = datasets.dataset_statistics(
        args.dataset, scale=args.scale, seed=args.seed
    )
    width = max(len(k) for k in row)
    for key, value in row.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.j < 1:
        raise QueryError(f"--j must be >= 1, got {args.j}")
    ds = datasets.load_dataset(
        args.dataset, scale=args.scale, seed=args.seed,
        dimensions=args.dimensions,
    )
    t, region = resolve_search_defaults(
        ds, args.scale, args.dimensions, t=args.t, sigma=args.sigma
    )
    query = ds.suggest_query(
        args.query_size, k=args.k, t=t, seed=args.query_seed
    )
    engine = MACEngine(ds.network)
    request = MACRequest.make(
        query, args.k, t, region,
        j=args.j if args.j > 1 else 1,
        problem="topj" if args.j > 1 else "nc",
        algorithm=args.algorithm,
        # Pin the strategy: a one-shot command must not pay the engine's
        # auto G-tree build for a single query.
        use_gtree=args.gtree,
        deadline=args.deadline,
        anytime=args.anytime,
    )
    if args.explain:
        plan = engine.explain(request)
        if args.json:
            print(json.dumps(plan_to_wire(plan), indent=2))
        else:
            print(plan.summary())
        return 0
    result = engine.search(request)
    if args.json:
        # The service wire encoding: one JSON object, parseable by the
        # same consumers that read /v1/search responses.
        print(json.dumps(result_to_wire(result), indent=2))
        return 0
    print(result.summary())
    if result.partial and result.progress:
        print(
            "partial result (deadline expired); progress: "
            + ", ".join(f"{k}={v}" for k, v in result.progress.items())
        )
    if args.members and result.partitions:
        for i, entry in enumerate(result.partitions):
            print(f"partition {i} best: {sorted(entry.best.members)}")
    return 0


def _batch_request(
    obj: dict, ds, args: argparse.Namespace, line_no: int
) -> MACRequest:
    """Translate one JSONL object into a validated MACRequest."""
    if not isinstance(obj, dict):
        raise QueryError(f"line {line_no}: expected a JSON object")
    obj = dict(obj)
    k = obj.pop("k", None)
    if k is None:
        raise QueryError(f"line {line_no}: missing required field 'k'")
    region_spec = obj.pop("region", None)
    sigma = obj.pop("sigma", None)
    center = obj.pop("center", None)
    if region_spec is not None and (sigma is not None or center is not None):
        raise QueryError(
            f"line {line_no}: 'region' conflicts with 'center'/'sigma'; "
            f"give either explicit bounds or a centered box, not both"
        )
    try:
        t, region = resolve_search_defaults(
            ds, args.scale, args.dimensions,
            t=obj.pop("t", None),
            sigma=args.sigma if sigma is None else sigma,
            center=center,
        )
    except ReproError as exc:
        raise QueryError(f"line {line_no}: {exc}") from exc
    if region_spec is not None:
        if (
            not isinstance(region_spec, dict)
            or "lows" not in region_spec
            or "highs" not in region_spec
        ):
            raise QueryError(
                f"line {line_no}: 'region' must be an object with "
                f"'lows' and 'highs' arrays"
            )
        try:
            region = PreferenceRegion(
                region_spec["lows"], region_spec["highs"]
            )
        except ReproError as exc:
            raise QueryError(f"line {line_no}: {exc}") from exc
    if region.num_attributes != args.dimensions:
        raise QueryError(
            f"line {line_no}: region is for d={region.num_attributes} "
            f"attributes but the dataset was loaded with "
            f"d={args.dimensions}"
        )
    query = obj.pop("query", None)
    if query is None:
        size = obj.pop("query_size", 4)
        seed = obj.pop("query_seed", 0)
        try:
            query = ds.suggest_query(size, k=k, t=t, seed=seed)
        except ReproError as exc:
            raise QueryError(f"line {line_no}: {exc}") from exc
    else:
        obj.pop("query_size", None)
        obj.pop("query_seed", None)
        # Validate membership here, where the line number is known —
        # inside search_batch the failure would abort the whole batch
        # with no line attribution.
        missing = [
            v for v in query if v not in ds.network.social.graph
        ]
        if missing:
            raise QueryError(
                f"line {line_no}: query user(s) not in the social "
                f"network: {missing}"
            )
    knobs = dict(obj)
    # Mirror the search command: an explicit j > 1 means a top-j query.
    if knobs.get("j", 1) > 1 and "problem" not in knobs:
        knobs["problem"] = "topj"
    knobs.setdefault("label", f"line-{line_no}")
    try:
        return MACRequest.make(query, k, t, region, **knobs)
    except QueryError as exc:
        raise QueryError(f"line {line_no}: {exc}") from exc


def _read_requests_file(
    path: str, ds, args: argparse.Namespace
) -> list[MACRequest] | None:
    """Read a JSONL request file (``-`` = stdin) into validated requests.

    Shared by the ``batch`` command and ``index build --warm``.  On any
    malformed line, prints an error to stderr and returns ``None`` (the
    caller exits 2).
    """
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return None
    requests: list[MACRequest] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            print(f"error: line {line_no}: invalid JSON: {exc}",
                  file=sys.stderr)
            return None
        try:
            requests.append(_batch_request(obj, ds, args, line_no))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        except (KeyError, TypeError, ValueError) as exc:
            # malformed field values (wrong JSON types, bad shapes)
            print(
                f"error: line {line_no}: bad request field: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return None
    if not requests:
        print("error: no requests in input", file=sys.stderr)
        return None
    return requests


def cmd_batch(args: argparse.Namespace) -> int:
    ds = datasets.load_dataset(
        args.dataset, scale=args.scale, seed=args.seed,
        dimensions=args.dimensions,
    )
    requests = _read_requests_file(args.requests, ds, args)
    if requests is None:
        return 2

    engine = MACEngine(ds.network)
    try:
        results = engine.search_batch(requests, workers=args.workers)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for request, result in zip(requests, results):
        info = result.extra.get("engine", {})
        cache = info.get("cache", {})
        hits = sum(1 for v in cache.values() if v == "hit")
        mark = ""
        if result.partial:
            progress = ", ".join(
                f"{k}={v}" for k, v in result.progress.items()
            )
            mark = f" [partial{': ' + progress if progress else ''}]"
        print(
            f"{request.label}: {len(result.partitions)} partition(s), "
            f"{len(result.communities())} distinct MAC(s), "
            f"|H^t_k|={result.htk_vertices}, {result.elapsed:.3f}s, "
            f"cache hits {hits}/{len(cache)}{mark}"
        )
    tel = engine.telemetry()
    print(
        f"batch: {len(results)} request(s), workers={args.workers}, "
        f"cache hits={tel.hits} misses={tel.misses} "
        f"(filter {tel.filter.hits}/{tel.filter.requests}, "
        f"core {tel.core.hits}/{tel.core.requests}, "
        f"dominance {tel.dominance.hits}/{tel.dominance.requests})"
    )
    print(
        "stage seconds: "
        + ", ".join(
            f"{stage}={seconds:.3f}"
            for stage, seconds in tel.stage_seconds.items()
        )
    )
    return 0


def cmd_case(args: argparse.Namespace) -> int:
    cs = datasets.aminer_case_study(
        num_background=args.background, groups=max(4, args.background // 30),
        seed=args.seed,
    )
    region = PreferenceRegion([0.1, 0.3, 0.05], [0.3, 0.5, 0.1])
    # Local search: the exact global partitioning of a d = 4 region over
    # the full collaboration network is a long-running analysis job, not
    # a CLI command.
    engine = MACEngine(cs.network)
    result = engine.search(MACRequest.make(
        cs.query, args.k, 1e9, region,
        j=2, algorithm="local", problem="topj",
    ))
    print(f"query: {', '.join(cs.names(cs.query))}")
    for i, entry in enumerate(result.partitions):
        for rank, community in enumerate(entry.communities, start=1):
            print(
                f"partition {i} top-{rank} ({len(community)}): "
                f"{', '.join(cs.names(community.members))}"
            )
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    ds = datasets.load_dataset(
        args.dataset, scale=args.scale, seed=args.seed,
        dimensions=args.dimensions,
    )
    # Validate the warm file before paying the eager G-tree build, so a
    # malformed JSONL fails in milliseconds, not minutes.
    requests: list[MACRequest] = []
    if args.warm is not None:
        read = _read_requests_file(args.warm, ds, args)
        if read is None:
            return 2
        requests = read
    engine = MACEngine(
        ds.network,
        use_gtree=not args.no_gtree,
        gtree_leaf_size=args.leaf_size,
        eager=True,
    )
    warmed = 0
    for request in requests:
        engine.warm(request)
        warmed += 1
    manifest = engine.save(args.out, compress=not args.no_compress)
    comp = manifest["components"]
    size = sum(snapshot_info(args.out)["files"].values())
    print(f"snapshot written to {args.out}")
    print(f"  dataset      {args.dataset} scale={args.scale} "
          f"seed={args.seed} d={args.dimensions}")
    print(f"  fingerprint  {manifest['fingerprint']}")
    print(f"  layout       "
          + ("uncompressed (mmap-able)" if args.no_compress
             else "compressed"))
    print(f"  g-tree       "
          + (f"{comp['gtree']['nodes']} nodes "
             f"({comp['gtree']['leaves']} leaves)"
             if "gtree" in comp else "absent"))
    print(f"  road CSR     "
          + ("present" if "road_flat" in comp else "absent"))
    print(f"  stage caches "
          f"filter={len(comp['filter'])} core={len(comp['core'])} "
          f"dominance={len(comp['dominance'])} "
          f"(from {warmed} warmed request(s))")
    print(f"  size         {size} bytes")
    return 0


def cmd_index_info(args: argparse.Namespace) -> int:
    info = snapshot_info(args.path)
    manifest = info["manifest"]
    comp = manifest["components"]
    net = manifest.get("network", {})
    print(f"snapshot {info['path']}")
    print(f"  format       {manifest['format']} "
          f"v{manifest['format_version']} "
          f"(repro {manifest.get('repro_version', '?')})")
    print(f"  fingerprint  {manifest['fingerprint']}")
    print(f"  network      road |V|={net.get('road_vertices', '?')} "
          f"|E|={net.get('road_edges', '?')}, "
          f"social |V|={net.get('social_users', '?')} "
          f"|E|={net.get('social_edges', '?')}, "
          f"d={net.get('dimensions', '?')}")
    print(f"  g-tree       "
          + (f"{comp['gtree']['nodes']} nodes "
             f"({comp['gtree']['leaves']} leaves)"
             if "gtree" in comp else "absent"))
    print(f"  road CSR     "
          + ("present" if "road_flat" in comp else "absent"))
    counts = info["entry_counts"]
    print(f"  stage caches filter={counts['filter']} "
          f"core={counts['core']} dominance={counts['dominance']}")
    depth = info.get("delta_depth", 0)
    print(f"  delta log    "
          + (f"{depth} batch(es) replayed on load" if depth else "empty"))
    for name, size in info["files"].items():
        print(f"  {name:12s} {size} bytes")
    return 0


def cmd_index_verify(args: argparse.Namespace) -> int:
    network = None
    if args.dataset is not None:
        network = datasets.load_dataset(
            args.dataset, scale=args.scale, seed=args.seed,
            dimensions=args.dimensions,
        ).network
    info = verify_snapshot(args.path, network=network, deep=args.deep)
    detail = (
        f", {info['checksums_checked']} content checksum(s) verified"
        if args.deep else ""
    )
    print(f"snapshot ok: {info['arrays_checked']} array(s) verified"
          f"{detail}, fingerprint "
          + ("verified against --dataset" if info["fingerprint_checked"]
             else "not checked (pass --dataset to check)"))
    return 0


def _read_mutations_file(path: str) -> list[list[dict]] | None:
    """Read a JSONL mutation file (``-`` = stdin) into wire batches.

    Two line shapes are accepted, but never mixed in one file: plain
    wire mutations (``{"op": ...}``), where the whole file forms ONE
    atomic batch, and delta-log batch records (``{"mutations": [...]}``,
    the ``deltas.jsonl`` layout), where each record stays its own batch.
    On any malformed line, prints an error to stderr and returns
    ``None`` (the caller exits 2).
    """
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return None
    single: list[dict] = []
    batches: list[list[dict]] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            print(f"error: line {line_no}: invalid JSON: {exc}",
                  file=sys.stderr)
            return None
        if not isinstance(obj, dict):
            print(f"error: line {line_no}: expected a JSON object",
                  file=sys.stderr)
            return None
        if "mutations" in obj:
            if not isinstance(obj["mutations"], list) or not obj["mutations"]:
                print(
                    f"error: line {line_no}: 'mutations' must be a "
                    f"non-empty array",
                    file=sys.stderr,
                )
                return None
            batches.append(obj["mutations"])
        elif "op" in obj:
            single.append(obj)
        else:
            print(
                f"error: line {line_no}: expected a wire mutation "
                f"('op' field) or a delta-log batch record "
                f"('mutations' field)",
                file=sys.stderr,
            )
            return None
    if single and batches:
        print(
            "error: file mixes plain wire mutations with delta-log "
            "batch records; use one shape throughout",
            file=sys.stderr,
        )
        return None
    if single:
        batches = [single]
    if not batches:
        print("error: no mutations in input", file=sys.stderr)
        return None
    return batches


def cmd_mutate(args: argparse.Namespace) -> int:
    batches = _read_mutations_file(args.file)
    if batches is None:
        return 2
    ds = datasets.load_dataset(
        args.dataset, scale=args.scale, seed=args.seed,
        dimensions=args.dimensions,
    )
    if args.snapshot is not None:
        # Loading replays the existing delta log first, so new batches
        # append after what is already recorded.  The snapshot's base
        # arrays are NOT re-saved: its fingerprint stays that of the
        # pristine dataset and every load replays the same history.
        from repro.store.snapshot import append_delta

        engine = MACEngine.load(args.snapshot, ds.network)
        target = f"snapshot {args.snapshot}"
    else:
        engine = MACEngine(ds.network)
        target = "dry run (pass --snapshot to persist to its delta log)"
    applied = 0
    evicted = 0
    by_kind: dict[str, int] = {}
    last_seq = None
    for batch in batches:
        summary = engine.apply(batch)
        applied += summary["applied"]
        evicted += summary["evicted"]
        for kind, count in summary["by_kind"].items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        if args.snapshot is not None:
            last_seq = append_delta(args.snapshot, batch)
    print(f"applied {applied} mutation(s) in {len(batches)} batch(es) "
          f"to {target}")
    print("  by kind      "
          + ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items())))
    print(f"  cache        {evicted} entr(ies) evicted")
    net = engine.network
    print(f"  network      social |V|={len(net.social.graph)} "
          f"|E|={net.social.graph.num_edges}")
    if last_seq is not None:
        print(f"  delta log    depth {last_seq} "
              f"(replayed on every snapshot load)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import MACService

    if args.worker_processes < 0:
        raise QueryError(
            f"--worker-processes must be >= 0, got {args.worker_processes}"
        )
    if args.drain_timeout <= 0:
        raise QueryError(
            f"--drain-timeout must be > 0, got {args.drain_timeout}"
        )
    pool_mode = args.worker_processes > 0
    if args.stall_timeout is not None and args.stall_timeout <= 0:
        raise QueryError(
            f"--stall-timeout must be > 0, got {args.stall_timeout}"
        )
    if args.stall_timeout is not None and not pool_mode:
        raise QueryError(
            "--stall-timeout requires --worker-processes N: the watchdog "
            "supervises worker processes, not in-process threads"
        )
    hedge_after: float | str | None = None
    if args.hedge_after is not None:
        if not pool_mode:
            raise QueryError(
                "--hedge-after requires --worker-processes N: hedging "
                "re-dispatches to a second worker process"
            )
        if args.hedge_after == "auto":
            hedge_after = "auto"
        else:
            try:
                hedge_after = float(args.hedge_after)
            except ValueError:
                raise QueryError(
                    f"--hedge-after must be a positive number of seconds "
                    f"or 'auto', got {args.hedge_after!r}"
                ) from None
            if hedge_after <= 0:
                raise QueryError(
                    f"--hedge-after must be > 0, got {args.hedge_after}"
                )
    ds = datasets.load_dataset(
        args.dataset, scale=args.scale, seed=args.seed,
        dimensions=args.dimensions,
    )
    index_digest = None
    if args.snapshot is not None:
        from repro.store.snapshot import snapshot_digest

        # In pool mode, open uncompressed array payloads as read-only
        # memory maps: all workers then share one page-cache copy
        # (build the snapshot with `index build --no-compress`).
        index_digest = snapshot_digest(args.snapshot)
        engine = MACEngine.load(args.snapshot, ds.network, mmap=pool_mode)
        source = f"snapshot {args.snapshot} (warm start)"
    else:
        # Pool mode forces the eager build: indexes built before the
        # fork are shared copy-on-write; built after, they would be
        # rebuilt privately in every worker.
        engine = MACEngine(ds.network, eager=args.eager or pool_mode)
        source = "fresh engine" + (
            " (eager indexes)" if args.eager or pool_mode else ""
        )
    snapshot_path = (
        str(args.snapshot) if args.snapshot is not None else None
    )
    pool = None
    if pool_mode:
        from repro.pool import FaultPlan, PoolExecutor, WorkerPool

        fault_plan = (
            FaultPlan.parse(args.fault_plan)
            if args.fault_plan is not None
            else FaultPlan.from_env()
        )
        pool = WorkerPool(
            engine,
            args.worker_processes,
            drain_timeout=args.drain_timeout,
            stall_timeout=args.stall_timeout,
            hedge_after=hedge_after,
            fault_plan=fault_plan,
            source=snapshot_path,
            index_digest=index_digest,
        ).start()
        service = MACService(
            executor=PoolExecutor(pool),
            host=args.host,
            port=args.port,
            max_concurrency=args.workers,
            queue_depth=args.queue_depth,
            default_deadline=args.default_deadline,
            drain_timeout=args.drain_timeout,
            snapshot_path=snapshot_path,
            brownout_enter=args.brownout_enter,
            brownout_exit=args.brownout_exit,
            brownout_hold=args.brownout_hold,
        )
    else:
        from repro.service.executor import EngineExecutor

        service = MACService(
            executor=EngineExecutor(
                engine, source=snapshot_path, index_digest=index_digest
            ),
            host=args.host,
            port=args.port,
            max_concurrency=args.workers,
            queue_depth=args.queue_depth,
            default_deadline=args.default_deadline,
            drain_timeout=args.drain_timeout,
            snapshot_path=snapshot_path,
            brownout_enter=args.brownout_enter,
            brownout_exit=args.brownout_exit,
            brownout_hold=args.brownout_hold,
        )

    def banner() -> None:
        # Flushed line-by-line so a supervisor (or the CI smoke job) can
        # poll for readiness on stdout as well as on /v1/healthz.
        print(f"engine: {args.dataset} scale={args.scale} seed={args.seed} "
              f"d={args.dimensions}, {source}", flush=True)
        tier = (
            f"executor=pool worker_processes={args.worker_processes}"
            if pool_mode else "executor=threads"
        )
        print(f"serving on http://{service.host}:{service.port} "
              f"({tier}, workers={args.workers}, "
              f"queue_depth={args.queue_depth}, "
              f"default_deadline={args.default_deadline})", flush=True)

    service.run(on_started=banner)
    if pool is not None:
        stats = pool.pool_wire()
        served = sum(w.get("served", 0) for w in stats["workers"])
        print(f"shutdown: {served} op(s) served across "
              f"{stats['num_workers']} worker process(es), "
              f"restarts={stats['restarts']}, "
              f"crashed-requests={stats['crashed_requests']}, "
              f"dispatched affinity={stats['dispatched']['affinity']} "
              f"spill={stats['dispatched']['spill']} "
              f"failover={stats['dispatched']['failover']}")
    else:
        tel = engine.telemetry()
        print(f"shutdown: {tel.searches} search(es) served, cache "
              f"hits={tel.hits} misses={tel.misses}, "
              f"deadline-exceeded={tel.deadline_exceeded}")
    return 0


#: Attribute dimensionality shared by every dataset-loading subcommand
#: (declared once so `index verify` regenerates what `index build` saw).
DEFAULT_DIMENSIONS = 3


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=0.01)
    parser.add_argument("--dimensions", type=int, default=DEFAULT_DIMENSIONS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-attributed community search (ICDE 2021 repro)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics (Table II)")
    _add_dataset_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_search = sub.add_parser("search", help="run a MAC query")
    _add_dataset_args(p_search)
    _add_query_args(p_search)
    p_search.add_argument("--k", type=int, default=6)
    p_search.add_argument("--t", type=float, default=None)
    p_search.add_argument("--j", type=int, default=1)
    p_search.add_argument("--query-size", type=int, default=4)
    p_search.add_argument("--query-seed", type=int, default=1)
    p_search.add_argument(
        "--algorithm", choices=("auto", "global", "local"), default="local"
    )
    p_search.add_argument("--gtree", action="store_true")
    p_search.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; expiry raises DeadlineExceeded "
             "(or returns a partial result with --anytime)",
    )
    p_search.add_argument(
        "--anytime", action="store_true",
        help="on deadline expiry, return the best-so-far feasible "
             "community marked partial instead of failing",
    )
    p_search.add_argument(
        "--members", action="store_true", help="print community members"
    )
    p_search.add_argument(
        "--explain", action="store_true",
        help="print the resolved query plan instead of running it",
    )
    p_search.add_argument(
        "--json", action="store_true",
        help="machine-readable output: the result (or, with --explain, "
             "the plan) as one JSON object in the service wire format",
    )
    p_search.set_defaults(func=cmd_search)

    p_batch = sub.add_parser(
        "batch", help="run JSONL requests through one shared engine"
    )
    _add_dataset_args(p_batch)
    _add_query_args(p_batch)
    p_batch.add_argument(
        "--requests", required=True,
        help="path to a JSONL request file, or '-' for stdin",
    )
    p_batch.add_argument(
        "--workers", type=int, default=4,
        help="thread-pool width for independent requests (default 4)",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_mutate = sub.add_parser(
        "mutate",
        help="apply live graph mutations from a JSONL file",
    )
    _add_dataset_args(p_mutate)
    p_mutate.add_argument(
        "--dimensions", type=int, default=DEFAULT_DIMENSIONS
    )
    p_mutate.add_argument(
        "--file", required=True, metavar="JSONL",
        help="mutation file, or '-' for stdin: wire mutations one per "
             "line (the whole file applied as one atomic batch), or "
             "delta-log batch records (a snapshot's deltas.jsonl, one "
             "batch per record)",
    )
    p_mutate.add_argument(
        "--snapshot", default=None, metavar="DIR",
        help="replay onto this snapshot's engine and append the batches "
             "to its delta log, so every later load (and `repro serve "
             "--snapshot`) fast-forwards through them; without it the "
             "file is validated and applied as a dry run against the "
             "regenerated dataset",
    )
    p_mutate.set_defaults(func=cmd_mutate)

    p_index = sub.add_parser(
        "index", help="build / inspect / verify persistent index snapshots"
    )
    isub = p_index.add_subparsers(dest="index_command", required=True)

    p_build = isub.add_parser(
        "build", help="build prepared indexes and save them as a snapshot"
    )
    _add_dataset_args(p_build)
    _add_query_args(p_build)
    p_build.add_argument(
        "--out", required=True, help="snapshot output directory"
    )
    p_build.add_argument(
        "--leaf-size", type=int, default=64,
        help="G-tree leaf size (default 64)",
    )
    p_build.add_argument(
        "--no-gtree", action="store_true",
        help="skip the G-tree build (snapshot stage caches only)",
    )
    p_build.add_argument(
        "--no-compress", action="store_true",
        help="store array payloads uncompressed so `repro serve "
             "--worker-processes N` can memory-map them (one shared "
             "page-cache copy across all workers)",
    )
    p_build.add_argument(
        "--warm", default=None, metavar="JSONL",
        help="JSONL request file (batch format) whose filter/core/"
             "dominance stages are pre-built into the snapshot",
    )
    p_build.set_defaults(func=cmd_index_build)

    p_info = isub.add_parser(
        "info", help="print a snapshot's manifest summary"
    )
    p_info.add_argument("path", help="snapshot directory")
    p_info.set_defaults(func=cmd_index_info)

    p_verify = isub.add_parser(
        "verify",
        help="check a snapshot's integrity (all arrays readable, "
             "format version supported; with --dataset, fingerprint too)",
    )
    p_verify.add_argument("path", help="snapshot directory")
    _add_dataset_args(p_verify, dataset_default=None)
    p_verify.add_argument(
        "--dimensions", type=int, default=DEFAULT_DIMENSIONS
    )
    p_verify.add_argument(
        "--deep", action="store_true",
        help="also recompute each array's content checksum against the "
             "manifest (catches bit-rot the shape/readability check "
             "cannot; snapshots predating checksums pass trivially)",
    )
    p_verify.set_defaults(func=cmd_index_verify)

    p_serve = sub.add_parser(
        "serve",
        help="serve MAC queries over JSON/HTTP from one warm engine",
    )
    _add_dataset_args(p_serve)
    p_serve.add_argument(
        "--dimensions", type=int, default=DEFAULT_DIMENSIONS
    )
    p_serve.add_argument(
        "--snapshot", default=None, metavar="DIR",
        help="warm-start the engine from this index snapshot "
             "(built with `repro index build`; fingerprint-checked "
             "against the regenerated dataset)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="engine calls executing at once (default 4)",
    )
    p_serve.add_argument(
        "--worker-processes", type=int, default=0, metavar="N",
        help="serve from N supervised worker processes forked from the "
             "warm engine instead of in-process threads (0, the "
             "default); processes escape the GIL for CPU-bound "
             "searches and share index memory copy-on-write",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="admitted-but-waiting requests beyond --workers before "
             "the server answers 429 (default 16)",
    )
    p_serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="budget stamped onto requests that carry no deadline",
    )
    p_serve.add_argument(
        "--eager", action="store_true",
        help="build network-level indexes before listening "
             "(no-op with --snapshot)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace period for in-flight requests on shutdown, live "
             "snapshot swap, and fleet resize before stragglers are "
             "terminated (default 5)",
    )
    p_serve.add_argument(
        "--stall-timeout", type=float, default=None, metavar="SECONDS",
        help="worker-tier stall watchdog: a worker that stops replying "
             "for this long is killed and respawned, its in-flight "
             "requests failing with retryable WorkerStalled (pool mode "
             "only; default off)",
    )
    p_serve.add_argument(
        "--hedge-after", default=None, metavar="SECONDS|auto",
        help="hedged dispatch for idempotent searches: after this delay "
             "without a reply, re-send to a second worker and return "
             "whichever answers first ('auto' derives the delay from "
             "the observed latency EWMA; pool mode only; default off)",
    )
    p_serve.add_argument(
        "--brownout-enter", type=int, default=None, metavar="N",
        help="in-flight requests at/above which the server enters "
             "brownout mode, degrading deadline-bearing searches to "
             "anytime partials (default: capacity + 3/4 of queue depth)",
    )
    p_serve.add_argument(
        "--brownout-exit", type=int, default=None, metavar="N",
        help="in-flight requests at/below which brownout ends "
             "(default: half of --workers; must be below --brownout-enter)",
    )
    p_serve.add_argument(
        "--brownout-hold", type=float, default=0.5, metavar="SECONDS",
        help="pressure (or calm) must persist this long before the mode "
             "flips — hysteresis against flapping (default 0.5)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="JSON",
        help="deterministic fault-injection plan for the worker tier "
             "(chaos testing; overrides the REPRO_FAULT_PLAN "
             "environment variable), e.g. "
             "'[{\"kind\": \"kill\", \"slot\": 0, \"after\": 3}]'",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_case = sub.add_parser("case", help="Aminer-style case study")
    p_case.add_argument("--k", type=int, default=5)
    p_case.add_argument("--seed", type=int, default=11)
    p_case.add_argument(
        "--background", type=int, default=400,
        help="number of background authors (default 400)",
    )
    p_case.set_defaults(func=cmd_case)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # library errors (bad query, empty region, ...) are user errors,
        # not crashes — no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())


_ = np  # numpy re-exported for interactive use of the module
