"""Shared benchmark harness for the paper-reproduction experiments.

Every figure/table of Section VII gets one bench module; this module
centralizes what they share: dataset/query caching, a shared
:class:`repro.MACEngine` per dataset (so repeated (Q, k, t) runs reuse
the prepared range-filter / core / dominance state), the parameter grids
of Table III (scaled), region construction, algorithm runners, and series
emission (stdout + ``benchmarks/results/*.txt``).

Timing protocol note: since the engine rewiring, ``timed_search`` warms
the prepared stages outside the timed window, so emitted times measure
the *search phase* under amortized indexes — equally for all four
algorithms.  The paper (and the pre-engine harness) timed the full
pipeline per query; absolute numbers are therefore lower here, and the
index-build cost shows up once per configuration instead of per run.

Environment knobs:

* ``REPRO_BENCH_SCALE``   — dataset scale factor (default 0.25; the paper
  ran on the full dumps, see DESIGN.md for the substitution note),
* ``REPRO_BENCH_QUERIES`` — query sets averaged per configuration
  (default 3; the paper averaged 100 x 10 regions).
"""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import repro.kernels.backend as paths
from repro import MACEngine, MACRequest, PreferenceRegion, datasets
from repro.errors import DatasetError, QueryError

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "2"))

#: Scaled Table III grids (paper values in comments).
K_VALUES = (4, 6, 8, 10)  # paper: 4, 8, 16, 32, 64
D_VALUES = (2, 3, 4, 5)  # paper: 2..6
Q_VALUES = (1, 2, 4, 8)  # paper: 1, 4, 8, 16, 32
J_VALUES = (2, 5, 10, 20)  # paper: 5, 10, 20, 40, 60
SIGMA_VALUES = (0.001, 0.005, 0.01, 0.05)  # paper: 0.1%..10%

#: Scaled defaults (paper defaults: k=16, |Q|=8, j=20, d=3, sigma=1%).
DEFAULT_K = 6
DEFAULT_D = 3
DEFAULT_Q = 4
DEFAULT_J = 5
DEFAULT_SIGMA = 0.01

ALGORITHMS = ("GS-NC", "GS-T", "LS-NC", "LS-T")

RESULTS_DIR = Path(__file__).parent / "results"

_dataset_cache: dict = {}
_query_cache: dict = {}
_engine_cache: dict = {}


@contextmanager
def forced_path(side: str):
    """Force every size rule of ``repro.kernels.backend`` to ``side``.

    ``"flat"`` or ``"python"``: inside the block every input sits on
    that side of each rule (G-tree, global search loop), which is how
    the python-vs-flat benchmarks time both paths of one build.
    """
    saved = (paths.GTREE_FLAT_MIN_VERTICES, paths.GS_FLAT_MIN_CORE)
    threshold = {"flat": 0, "python": sys.maxsize}[side]
    paths.GTREE_FLAT_MIN_VERTICES = paths.GS_FLAT_MIN_CORE = threshold
    try:
        yield
    finally:
        paths.GTREE_FLAT_MIN_VERTICES, paths.GS_FLAT_MIN_CORE = saved


def t_values_for(ds) -> tuple[float, ...]:
    """Registry t-sweep scaled with the road extent (sqrt of the scale)."""
    f = math.sqrt(SCALE)
    return tuple(round(t * f, 1) for t in ds.t_values)


def default_t_for(ds) -> float:
    return round(ds.default_t * math.sqrt(SCALE), 1)


def load(name: str, dimensions: int = DEFAULT_D, kind: str | None = None):
    key = (name, dimensions, kind, SCALE)
    if key not in _dataset_cache:
        _dataset_cache[key] = datasets.load_dataset(
            name, scale=SCALE, dimensions=dimensions,
            attribute_kind=kind, seed=7,
        )
    return _dataset_cache[key]


def make_region(d: int, sigma: float) -> PreferenceRegion:
    """Axis-parallel hypercube of side ``sigma`` centered inside the
    simplex (center 0.9/d per reduced axis keeps every sweep feasible)."""
    center = [0.9 / d] * (d - 1)
    return PreferenceRegion.centered(center, sigma)


def queries_for(ds, size: int, k: int, t: float) -> list[tuple[int, ...]]:
    """NUM_QUERIES satisfiable query sets (cached; skips hard seeds)."""
    key = (ds.name, ds.network.social.dimensionality, size, k, round(t, 1))
    if key in _query_cache:
        return _query_cache[key]
    out = []
    seed = 0
    while len(out) < NUM_QUERIES and seed < NUM_QUERIES * 20:
        try:
            out.append(ds.suggest_query(size, k=k, t=t, seed=seed))
        except DatasetError:
            pass
        seed += 1
    _query_cache[key] = out
    return out


def engine_for(ds) -> MACEngine:
    """One long-lived MACEngine per loaded dataset.

    Every timed run of the same configuration grid goes through the same
    engine, so repeated (Q, k, t) combinations — e.g. the four named
    algorithms over one query set — stop paying the range-filter /
    core / dominance-graph build cost more than once.  Result caching
    is disabled: a timed run must execute its search, not replay a
    finished one from an earlier panel with the same configuration.
    """
    key = id(ds.network)
    if key not in _engine_cache:
        _engine_cache[key] = MACEngine(ds.network, result_cache_size=0)
    return _engine_cache[key]


def timed_search(ds, query, k, t, region, j, algorithm_name):
    """Run one named algorithm; returns (seconds, result).

    The prepared stages are warmed *outside* the timed window, so every
    algorithm is measured over the same amortized state — otherwise
    whichever algorithm happens to run a configuration first would be
    charged the one-off filter/core/dominance build cost.
    """
    algo = "global" if algorithm_name.startswith("GS") else "local"
    problem = "topj" if algorithm_name.endswith("-T") else "nc"
    engine = engine_for(ds)
    try:
        request = MACRequest.make(
            query, k, t, region,
            j=j if problem == "topj" else 1,
            algorithm=algo, problem=problem,
            max_partitions=200_000,
            time_budget=90.0,
            label=algorithm_name,
        )
        engine.warm(request)
        start = time.perf_counter()
        result = engine.search(request)
    except QueryError:
        return math.nan, None
    return time.perf_counter() - start, result


def average_times(ds, k, t, region, j, q_size, algorithms=ALGORITHMS):
    """Average per-algorithm time over the cached query sets."""
    queries = queries_for(ds, q_size, k, t)
    sums = {a: 0.0 for a in algorithms}
    counts = {a: 0 for a in algorithms}
    extras: dict = {}
    for q in queries:
        for a in algorithms:
            elapsed, result = timed_search(ds, q, k, t, region, j, a)
            if not math.isnan(elapsed):
                sums[a] += elapsed
                counts[a] += 1
                extras.setdefault(a, []).append(result)
    avg = {
        a: (sums[a] / counts[a] if counts[a] else math.nan)
        for a in algorithms
    }
    return avg, extras


def fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def emit(figure: str, title: str, header: list[str], rows: list[list]):
    """Print a series table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    widths = [
        max(len(str(h)), *(len(fmt(r[i])) for r in rows)) + 2
        for i, h in enumerate(header)
    ]
    lines = [f"== {figure}: {title} (scale={SCALE}, queries={NUM_QUERIES})"]
    lines.append("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append(
            "".join(fmt(v).ljust(w) for v, w in zip(row, widths))
        )
    text = "\n".join(lines)
    print("\n" + text)
    path = RESULTS_DIR / f"{figure.lower().replace(' ', '_')}.txt"
    with open(path, "a") as f:
        f.write(text + "\n\n")
    return text


def standard_panels(figure: str, dataset_name: str, benchmark=None,
                    kind: str | None = None):
    """The six panels (a)-(f) shared by Figs. 6-10: vary k, t, d, |Q|,
    j, sigma around the scaled defaults."""
    ds = load(dataset_name, kind=kind)
    t0 = default_t_for(ds)

    def panel_k():
        rows = []
        for k in K_VALUES:
            region = make_region(DEFAULT_D, DEFAULT_SIGMA)
            avg, _ = average_times(ds, k, t0, region, DEFAULT_J, DEFAULT_Q)
            rows.append([k] + [avg[a] for a in ALGORITHMS])
        emit(f"{figure}a", f"{dataset_name}: time(s) vs k",
             ["k", *ALGORITHMS], rows)

    def panel_t():
        rows = []
        for t in t_values_for(ds):
            region = make_region(DEFAULT_D, DEFAULT_SIGMA)
            avg, _ = average_times(
                ds, DEFAULT_K, t, region, DEFAULT_J, DEFAULT_Q
            )
            rows.append([t] + [avg[a] for a in ALGORITHMS])
        emit(f"{figure}b", f"{dataset_name}: time(s) vs t",
             ["t", *ALGORITHMS], rows)

    def panel_d():
        rows = []
        for d in D_VALUES:
            ds_d = load(dataset_name, dimensions=d, kind=kind)
            region = make_region(d, DEFAULT_SIGMA)
            avg, _ = average_times(
                ds_d, DEFAULT_K, t0, region, DEFAULT_J, DEFAULT_Q
            )
            rows.append([d] + [avg[a] for a in ALGORITHMS])
        emit(f"{figure}c", f"{dataset_name}: time(s) vs d",
             ["d", *ALGORITHMS], rows)

    def panel_q():
        rows = []
        for q_size in Q_VALUES:
            region = make_region(DEFAULT_D, DEFAULT_SIGMA)
            avg, _ = average_times(
                ds, DEFAULT_K, t0, region, DEFAULT_J, q_size
            )
            rows.append([q_size] + [avg[a] for a in ALGORITHMS])
        emit(f"{figure}d", f"{dataset_name}: time(s) vs |Q|",
             ["|Q|", *ALGORITHMS], rows)

    def panel_j():
        rows = []
        for j in J_VALUES:
            region = make_region(DEFAULT_D, DEFAULT_SIGMA)
            avg, _ = average_times(
                ds, DEFAULT_K, t0, region, j, DEFAULT_Q,
                algorithms=("GS-T", "LS-T"),
            )
            rows.append([j, avg["GS-T"], avg["LS-T"]])
        emit(f"{figure}e", f"{dataset_name}: time(s) vs j",
             ["j", "GS-T", "LS-T"], rows)

    def panel_sigma():
        rows = []
        for sigma in SIGMA_VALUES:
            region = make_region(DEFAULT_D, sigma)
            avg, _ = average_times(
                ds, DEFAULT_K, t0, region, DEFAULT_J, DEFAULT_Q
            )
            rows.append([f"{sigma:.1%}"] + [avg[a] for a in ALGORITHMS])
        emit(f"{figure}f", f"{dataset_name}: time(s) vs sigma",
             ["sigma", *ALGORITHMS], rows)

    panels = [panel_k, panel_t, panel_d, panel_q, panel_j, panel_sigma]

    def run_all():
        for p in panels:
            p()

    if benchmark is not None:
        benchmark.pedantic(run_all, rounds=1, iterations=1)
    else:
        run_all()
