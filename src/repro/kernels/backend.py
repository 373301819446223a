"""Which compute path runs: one size rule per call site.

Two hot kernels still have a vectorized CSR path (``"flat"``) and a
dict/heap path (``"python"``) that return identical results.  The
input alone picks between them: array setup has a fixed cost the dict
paths do not pay on small inputs, so each call site switches to the
flat path at a measured size.  Each rule reads its module constant
when it is called.

* :func:`gtree_path` — the G-tree matrix assembly by road vertices;
* :func:`gs_path` — the global search loop by |H^t_k|.

Every other kernel has one path: the stage kernels (core
decomposition, peeling, the engine's filter/core stages, live k-core
repair) and the engine's local search run on CSR, bounded Dijkstra
runs the heap loop, and the r-dominance graph is built on the
corner-score matrix.
"""

from __future__ import annotations

#: The G-tree matrix assembly switches to the flat path at this road
#: vertex count; below it the per-border loops are cheaper than the
#: array setup.
GTREE_FLAT_MIN_VERTICES = 2048

#: The global search (Algorithm 1) runs on the flat CSR loop from this
#: |H^t_k| up, on the set-based loop below it.  A flat peel round makes
#: ~20 small numpy calls whose fixed cost dominates on small cores.
#: Measured with ``benchmarks/bench_search_crossover.py`` (warm GS on
#: ``fl+yelp`` 0.5, 2-vCPU host), python/flat time: 0.27-0.47 at
#: |H^t_k| 28-603, 0.47-0.62 at 1032-1143, 0.75 at 1357, 1.03 at 1769,
#: 1.12-1.15 at 1979-2034 and 1.73 at 2399; the crossover is ~1.7k.
GS_FLAT_MIN_CORE = 1700


def gtree_path(road_vertices: int) -> str:
    """``"flat"`` or ``"python"`` for the G-tree over a road network."""
    return "flat" if road_vertices >= GTREE_FLAT_MIN_VERTICES else "python"


def gs_path(core_vertices: int) -> str:
    """``"flat"`` or ``"python"`` for the global search over H^t_k."""
    return "flat" if core_vertices >= GS_FLAT_MIN_CORE else "python"
