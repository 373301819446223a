"""Which compute path runs: one size rule per call site.

Every hot kernel has a vectorized CSR path (``"flat"``) and a
dict/heap path (``"python"``) that return identical results.  The
input alone picks between them: array setup has a fixed cost the dict
paths do not pay on small inputs, so each call site switches to the
flat path at a measured size.  Each rule reads its module constant
when it is called.

* :func:`stage_path` — the stage kernels (core decomposition, peeling,
  the engine's filter/core stages and the local search) by the number
  of social-graph vertices;
* :func:`gtree_path` — the G-tree matrix assembly by road vertices;
* :func:`gs_path` — the global search loop by |H^t_k|.

Bounded Dijkstra always runs the heap loop and the r-dominance graph
is always built on the corner-score matrix; neither has a size rule.
"""

from __future__ import annotations

#: The stage kernels and the G-tree switch to the flat path at this
#: vertex count.  The flat paths pay a CSR conversion per call; measured
#: one-shot breakeven against the python paths sits around a couple
#: thousand vertices.
FLAT_MIN_VERTICES = 2048

#: The global search (Algorithm 1) runs on the flat CSR loop from this
#: |H^t_k| up, on the set-based loop below it.  A flat peel round makes
#: ~20 small numpy calls whose fixed cost dominates on small cores.
#: Measured with ``benchmarks/bench_search_crossover.py`` (warm GS on
#: ``fl+yelp`` 0.5, 2-vCPU host), python/flat time: 0.27-0.47 at
#: |H^t_k| 28-603, 0.47-0.62 at 1032-1143, 0.75 at 1357, 1.03 at 1769,
#: 1.12-1.15 at 1979-2034 and 1.73 at 2399; the crossover is ~1.7k.
GS_FLAT_MIN_CORE = 1700


def stage_path(num_vertices: int) -> str:
    """``"flat"`` or ``"python"`` for stage kernels over a social graph."""
    return "flat" if num_vertices >= FLAT_MIN_VERTICES else "python"


def gtree_path(road_vertices: int) -> str:
    """``"flat"`` or ``"python"`` for the G-tree over a road network."""
    return "flat" if road_vertices >= FLAT_MIN_VERTICES else "python"


def gs_path(core_vertices: int) -> str:
    """``"flat"`` or ``"python"`` for the global search over H^t_k."""
    return "flat" if core_vertices >= GS_FLAT_MIN_CORE else "python"
