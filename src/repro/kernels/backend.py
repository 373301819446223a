"""Backend selection shared by every kernel-accelerated entry point.

``"flat"`` runs the vectorized CSR kernels, ``"python"`` the original
dict/heap implementations, and ``"auto"`` picks per call site: flat for
graphs large enough that numpy wins, python below that (array setup has
a fixed cost the dict paths do not pay on tiny inputs).

:data:`AUTO_FLAT_MIN_VERTICES` governs the stage kernels (range filter,
core decomposition, dominance) and the local search; the global search
picks its loop from the size of the core it peels
(:func:`resolve_search_backend`).
"""

from __future__ import annotations

from repro.errors import GraphError

#: Valid backend selectors, in every ``backend=`` parameter.
BACKENDS = ("auto", "flat", "python")

#: ``"auto"`` switches to the flat kernels at this vertex count.  The
#: flat paths pay a CSR conversion per call; measured one-shot breakeven
#: against the python paths sits around a couple thousand vertices
#: (callers that convert once and reuse — e.g. the engine's prepared
#: stages — can force ``"flat"`` below it).
AUTO_FLAT_MIN_VERTICES = 2048

#: ``"auto"`` runs the global search (Algorithm 1) on the flat CSR loop
#: from this |H^t_k| up, on the set-based loop below it.  A flat peel
#: round makes ~20 small numpy calls whose fixed cost dominates on small
#: cores.  Measured with ``benchmarks/bench_search_crossover.py`` (warm
#: GS on ``fl+yelp`` 0.5, 2-vCPU host), python/flat time: 0.27-0.47 at
#: |H^t_k| 28-603, 0.47-0.62 at 1032-1143, 0.75 at 1357, 1.03 at 1769,
#: 1.12-1.15 at 1979-2034 and 1.73 at 2399; the crossover is ~1.7k.
AUTO_GS_FLAT_MIN_CORE = 1700


def resolve_backend(backend: str, num_vertices: int) -> str:
    """Map a backend selector to the concrete ``"flat"``/``"python"``."""
    if backend not in BACKENDS:
        raise GraphError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "flat" if num_vertices >= AUTO_FLAT_MIN_VERTICES else "python"
    return backend


def resolve_search_backend(
    selector: str, algorithm: str, core_vertices: int, stage_backend: str
) -> str:
    """Concrete backend of a request's search loop.

    ``selector`` is the request's raw backend selector and
    ``stage_backend`` its resolved stage backend.  An explicit
    ``"flat"``/``"python"`` is obeyed; ``"auto"`` picks the global
    search's loop by ``core_vertices`` (|H^t_k|) and leaves the local
    search on ``stage_backend``.
    """
    if selector == "auto" and algorithm == "global":
        return "flat" if core_vertices >= AUTO_GS_FLAT_MIN_CORE else "python"
    return stage_backend
