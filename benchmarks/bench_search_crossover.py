"""Search-loop crossover: warm ``python`` vs ``flat`` time by |H^t_k|.

    cd benchmarks && PYTHONPATH=../src python bench_search_crossover.py

Runs each GS loop forced both ways (``_harness.forced_path``) over
warm prepared stages (filter, core, dominance and the flat search view
are all built before timing) on ``fl+yelp`` at scale 0.5, data seed 7 —
the dataset the served benchmark (``perfbench/``) uses — and prints the
median time of each and their ratio per core size.  Every pair is
checked for identical communities.

The GS rows span the served ``small`` cores up to the whole connected
3-core; they are where ``GS_FLAT_MIN_CORE`` in
``repro.kernels.backend`` comes from.  The LS rows are the served
``ls-mix`` and ``wide`` requests; LS has one loop, so each row prints
its median time split into expand, threshold probing and Verify (the
``expand_s``/``probe_s``/``verify_s`` of ``stats.extra``).  Nothing is
written or asserted: the numbers go into the constant's docstring and
``ENGINE.md``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro import MACEngine, MACRequest, PreferenceRegion, datasets

import _harness as harness

NAMES = {"global": "GS", "local": "LS"}

#: The LS phases ``LocalSearch.search_nc`` times into ``stats.extra``.
LS_PHASES = ("expand_s", "probe_s", "verify_s")

HEADERS = {
    "global": f"{'algo':6s} {'|H^t_k|':>8s} {'python ms':>10s} "
              f"{'flat ms':>9s} {'python/flat':>12s}",
    "local": f"{'algo':6s} {'|H^t_k|':>8s} {'ms':>10s} {'expand':>9s} "
             f"{'probe':>9s} {'verify':>9s}",
}

#: (algorithm, |Q|, k, t multiplier, query seed).
GS_SHAPES = [("global", 2, 4, 1.0, 1), ("global", 1, 4, 2.0, 1),
             ("global", 1, 4, 4.0, 1), ("global", 2, 3, 1.0, 1)]
GS_SHAPES += [("global", 1, 3, tmul, seed)
              for tmul in (1.0, 2.0, 4.0, 4.5, 5.0, 5.5, 6.0, 8.0)
              for seed in (1, 2)]
LS_SHAPES = [("local", 4, 6, 1.0, seed) for seed in (1, 2, 3)]
LS_SHAPES += [("local", 3, 5, 1.0, 1)]
LS_SHAPES += [("local", size, 3, tmul, 1)
              for size, tmul in ((1, 4.0), (2, 2.0), (2, 4.0), (4, 4.0))]


def median_ms(engine: MACEngine, request: MACRequest, repeats: int):
    """Median warm time (ms) and the last result; for LS also the
    median ms of each ``stats.extra`` phase."""
    engine.search(request)
    times = []
    phases: dict[str, list[float]] = {name: [] for name in LS_PHASES}
    for _ in range(repeats):
        start = time.perf_counter()
        result = engine.search(request)
        times.append(time.perf_counter() - start)
        for name in LS_PHASES:
            if name in result.stats.extra:
                phases[name].append(result.stats.extra[name] * 1e3)
    split = {name: statistics.median(v) for name, v in phases.items() if v}
    return statistics.median(times) * 1e3, result, split


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    ds = datasets.load_dataset("fl+yelp", scale=0.5, seed=7)
    t = ds.default_t * 0.5 ** 0.5
    d = ds.network.social.dimensionality
    region = PreferenceRegion.centered([0.9 / d] * (d - 1), 0.01)
    engine = MACEngine(ds.network, result_cache_size=0)
    seen = set()
    header = None
    for algorithm, size, k, tmul, seed in GS_SHAPES + LS_SHAPES:
        query = ds.suggest_query(size, k=k, t=t * tmul, seed=seed)
        if (algorithm, tuple(query), k, tmul) in seen:
            continue
        seen.add((algorithm, tuple(query), k, tmul))
        if header != algorithm:
            header = algorithm
            print(HEADERS[algorithm])
        request = MACRequest.make(
            query, k, t * tmul, region, algorithm=algorithm,
            time_budget=120.0,
        )
        if algorithm == "local":
            ms, result, split = median_ms(engine, request, args.repeats)
            print(f"{'LS':6s} {result.htk_vertices:8d} {ms:10.2f} "
                  + " ".join(f"{split[name]:9.2f}" for name in LS_PHASES),
                  flush=True)
            continue
        runs = {}
        for side in ("python", "flat"):
            with harness.forced_path(side):
                runs[side] = median_ms(engine, request, args.repeats)[:2]
        (py_ms, py), (flat_ms, flat) = runs["python"], runs["flat"]
        assert py.communities() == flat.communities(), (query, k, tmul)
        print(f"{NAMES[algorithm]:6s} {flat.htk_vertices:8d} "
              f"{py_ms:10.2f} {flat_ms:9.2f} {py_ms / flat_ms:12.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
