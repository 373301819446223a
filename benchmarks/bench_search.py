"""Search-loop micro-benchmark: warm GS/LS, ``flat`` vs ``python``.

Times the two search algorithms over *prepared* state (range filter,
(k,t)-core, r-dominance graph all warmed outside the timed window, the
``_harness.timed_search`` protocol) on each loop, so the measured delta
is exactly the flat-kernel rewrite of the hot loops: CSR cascade
peeling + batch degree updates in the global search's deletion chains,
and the array-backed push frontier in the local search's Expand.  The
global search runs through the engine with its size rule forced to each
side (``_harness.forced_path``).  The local search has one loop, so it
is timed over the engine's prepared core and dominance graph against
its reference: ``LocalSearch`` on the engine's CSR view of H^t_k
(``flat``) and ``ReferenceLocalSearch`` from
``tests/oracles/local_search.py`` (``python``: the dict expand and the
probe-based Verify, over the dict graph it derives from that CSR).

Every measured pair is checked for result equivalence (same communities
from both loops).  Emits ``BENCH_search.json`` with per-algorithm
absolute warm milliseconds and speedups; the default run asserts the
per-algorithm floors in ``MIN_SPEEDUP``, and the ``--quick`` ratios are
floored by ``quick_floors`` in the committed ``BENCH_kernels.json`` (see
``benchmarks/check_trajectory.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro import MACRequest
from repro.core.local_search import LocalSearch

import _harness as harness

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tests.oracles.local_search import ReferenceLocalSearch  # noqa: E402

OUTPUT = ROOT / "BENCH_search.json"

#: fl+yelp is the largest bundled pairing (Table II's biggest shapes).
DATASET = "fl+yelp"

#: Big-core configuration: a permissive travel budget makes H^t_k the
#: whole connected 3-core (~5.7k vertices at scale 1.0), which is where
#: the search loops dominate the query and the flat rewrite shows.  The
#: harness defaults (k=6, tight t) give ~60-vertex cores whose peeling
#: is too short to amortize anything — array or dict, the runtime is
#: geometry there.
K = 3
T = 1e9

#: Default-run assertion floors, flat vs python.  LS threshold probing
#: runs one shared entry-size sweep on both loops, so what is left
#: to LS's ratio is Expand and Verify.
MIN_SPEEDUP = {"search_global": 3.0, "search_local": 1.5}

#: (name, algorithm, problem, j) — the warm search loops under test.
CONFIGS = (
    ("search_global", "global", "nc", 1),
    ("search_local", "local", "nc", 1),
)


def best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def communities(partitions) -> set:
    return {c for entry in partitions for c in entry.communities}


def global_run(engine, request, side: str):
    """GS through the engine, its size rule forced to ``side``."""
    with harness.forced_path(side):
        return communities(engine.search(request).partitions)


def local_run(engine, request, side: str):
    """LS (``flat``) or its reference (``python``) over the engine's
    prepared state."""
    state, _hit = engine._core_cache.peek(request.core_key)
    if state.flat is None:
        return set()
    gd, _hit = engine._gd_cache.peek(request.dominance_key)
    searcher = (LocalSearch if side == "flat" else ReferenceLocalSearch)(
        state.flat, gd, request.query, request.k, request.region,
        strategy=request.strategy,
        max_candidates=request.max_candidates,
        certification=request.certification,
    )
    if request.problem == "nc":
        return communities(searcher.search_nc())
    return communities(searcher.search_topj(request.j))


def bench_algorithm(ds, queries, k, t, region, algorithm, problem, j,
                    repeats: int) -> dict:
    engine = harness.engine_for(ds)
    run = global_run if algorithm == "global" else local_run
    times = {"flat": 0.0, "python": 0.0}
    measured = 0
    for query in queries:
        request = MACRequest.make(
            query, k, t, region,
            j=j if problem == "topj" else 1,
            algorithm=algorithm, problem=problem, time_budget=90.0,
        )
        results = {}
        for side in ("flat", "python"):
            # The harness warm idiom: prepared stages (H^t_k's CSR
            # among them) are paid outside the timed window, so the
            # loop itself is what's measured.
            engine.warm(request)
            run(engine, request, side)
            times[side] += best_of(
                lambda r=request: run(engine, r, side), repeats
            )
            results[side] = run(engine, request, side)
        assert results["flat"] == results["python"], (
            f"{algorithm} loop mismatch on Q={query}"
        )
        measured += 1
    if not measured:
        return {"queries": 0, "speedup": math.nan}
    return {
        "queries": measured,
        "k": k,
        "t": t,
        "python_ms": times["python"] / measured * 1e3,
        "flat_ms": times["flat"] / measured * 1e3,
        "speedup": times["python"] / times["flat"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small scale, no speedup assertions (CI smoke run)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"result JSON path (default {OUTPUT})",
    )
    args = parser.parse_args(argv)
    harness.SCALE = args.scale if args.scale is not None else (
        0.15 if args.quick else 1.0
    )
    repeats = args.repeats if args.repeats is not None else (
        2 if args.quick else 5
    )

    ds = harness.load(DATASET)
    k, t = K, T
    region = harness.make_region(harness.DEFAULT_D, harness.DEFAULT_SIGMA)
    queries = harness.queries_for(ds, 2, k, t)

    results = {
        "dataset": DATASET,
        "scale": harness.SCALE,
        "repeats": repeats,
        "quick": args.quick,
        "search": {
            name: bench_algorithm(
                ds, queries, k, t, region, algorithm, problem, j, repeats
            )
            for name, algorithm, problem, j in CONFIGS
        },
    }

    print(f"== search: {DATASET} scale={harness.SCALE} repeats={repeats}")
    for name, entry in results["search"].items():
        if not entry["queries"]:
            print(f"{name:16s} no satisfiable queries")
            continue
        print(
            f"{name:16s} python {entry['python_ms']:8.2f}ms   "
            f"flat {entry['flat_ms']:8.2f}ms   "
            f"{entry['speedup']:.1f}x   ({entry['queries']} queries)"
        )

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.quick:
        for name, entry in results["search"].items():
            assert entry["queries"], f"{name}: no satisfiable queries"
            assert entry["speedup"] >= MIN_SPEEDUP[name], (
                f"{name}: flat speedup {entry['speedup']:.2f}x below the "
                f"{MIN_SPEEDUP[name]:.1f}x floor"
            )
        print(f"asserted: warm flat speedups >= {MIN_SPEEDUP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
