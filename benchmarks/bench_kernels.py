"""Kernel micro-benchmark: the reference python loops vs the flat kernels.

Times the hot kernels of the reproduction on the largest bundled
dataset (fl+yelp) and emits ``BENCH_kernels.json`` with speedup ratios
— the per-kernel perf trajectory of the CSR rewrite:

* **core decomposition** — batch peeling over CSR arrays vs the
  position-swap Batagelj–Zaversnik bucket walk (the reference oracle
  ``tests/oracles/kcore.py``).  Reported one-shot (CSR conversion
  included, how ``core_decomposition`` pays it) and prepared
  (conversion amortized, how the engine's cached filter stage pays
  it).
* **dominance graph** — one (n, p) corner-score matrix with vectorized
  dominator detection vs the per-vertex pairwise reference
  (``tests/oracles/dominance.py``).

Each timing is best-of-``repeats``; every measured pair is also checked
for result equivalence.  ``--quick`` shrinks the dataset and drops the
speedup assertions (CI smoke); the default run asserts the flat path
is >= 3x on prepared core decomposition and dominance construction.

Run from this directory: ``PYTHONPATH=../src python bench_kernels.py``
(the repository root is put on ``sys.path`` for the oracle import).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro import datasets
from repro.dominance.graph import DominanceGraph
from repro.geometry.region import PreferenceRegion
from repro.graph.core import core_decomposition
from repro.kernels import FlatGraph, core_numbers

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tests.oracles.dominance import ReferenceDominanceGraph  # noqa: E402
from tests.oracles.kcore import (  # noqa: E402
    core_decomposition as reference_core_decomposition,
)

OUTPUT = ROOT / "BENCH_kernels.json"

#: fl+yelp is the largest bundled pairing (Table II's biggest shapes).
DATASET = "fl+yelp"

#: Default assertion floor (acceptance: >= 3x on the prepared paths).
MIN_SPEEDUP = 3.0

#: Expected ``--quick`` speedups, committed with the results JSON as the
#: CI perf-trajectory floors (see benchmarks/check_trajectory.py, which
#: fails a run measuring below ``floor * (1 - tolerance)``).  Quick mode
#: runs at scale 0.15, where the flat graph kernels sit *below* their
#: one-shot breakeven — their honest quick floor is break-even-ish,
#: while the dominance matrix path and the snapshot warm start stay
#: decisively ahead at any scale.  Values are ~half the speedups
#: measured on a dev laptop, leaving headroom for slower CI runners.
QUICK_FLOORS = {
    "core_decomposition": 0.5,
    "dominance_graph": 10.0,
    "snapshot_warm_start": 1.5,
}


def best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_core(ds, repeats: int) -> dict:
    graph = ds.network.social.graph
    python_s = best_of(lambda: reference_core_decomposition(graph), repeats)
    one_shot_s = best_of(lambda: core_decomposition(graph), repeats)
    fg = FlatGraph.from_adjacency(graph)
    prepared_s = best_of(lambda: core_numbers(fg), repeats)
    assert core_decomposition(graph) == reference_core_decomposition(graph)
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "python_s": python_s,
        "flat_one_shot_s": one_shot_s,
        "flat_prepared_s": prepared_s,
        "speedup": python_s / prepared_s,
        "speedup_one_shot": python_s / one_shot_s,
    }


def bench_dominance(ds, repeats: int, num_vertices: int) -> dict:
    social = ds.network.social
    members = sorted(social.graph.vertices())[:num_vertices]
    attrs = social.attributes_for(members)
    d = social.dimensionality
    region = PreferenceRegion.centered([0.9 / d] * (d - 1), 0.01)
    python_s = best_of(
        lambda: ReferenceDominanceGraph(attrs, region), repeats
    )
    flat_s = best_of(lambda: DominanceGraph(attrs, region), repeats)
    flat = DominanceGraph(attrs, region)
    python = ReferenceDominanceGraph(attrs, region)
    assert flat.order == python.order and flat.parents == python.parents
    return {
        "vertices": len(members),
        "arcs": flat.num_arcs(),
        "python_s": python_s,
        "flat_s": flat_s,
        "speedup": python_s / flat_s,
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
    scale = args.scale if args.scale is not None else (
        0.15 if args.quick else 1.0
    )
    repeats = args.repeats if args.repeats is not None else (
        2 if args.quick else 5
    )
    ds = datasets.load_dataset(DATASET, scale=scale, seed=7)
    gd_vertices = max(50, int(1500 * scale))

    results = {
        "dataset": DATASET,
        "scale": scale,
        "repeats": repeats,
        "quick": args.quick,
        "quick_floors": QUICK_FLOORS,
        "kernels": {
            "core_decomposition": bench_core(ds, repeats),
            "dominance_graph": bench_dominance(ds, repeats, gd_vertices),
        },
    }

    print(f"== kernels: {DATASET} scale={scale} repeats={repeats}")
    for name, entry in results["kernels"].items():
        python_s = entry["python_s"]
        flat_s = entry.get("flat_s", entry.get("flat_prepared_s"))
        line = (
            f"{name:20s} python {python_s * 1e3:8.2f}ms   "
            f"flat {flat_s * 1e3:8.2f}ms   {entry['speedup']:.1f}x"
        )
        if "speedup_one_shot" in entry:
            line += f"   (one-shot {entry['speedup_one_shot']:.1f}x)"
        print(line)

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not args.quick:
        for name in ("core_decomposition", "dominance_graph"):
            speedup = results["kernels"][name]["speedup"]
            assert speedup >= MIN_SPEEDUP, (
                f"{name}: flat speedup {speedup:.2f}x below the "
                f"{MIN_SPEEDUP:.0f}x floor"
            )
        print(f"asserted: core + dominance flat speedups >= "
              f"{MIN_SPEEDUP:.0f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
