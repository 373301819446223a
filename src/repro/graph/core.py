"""k-core machinery: decomposition, peeling, and query-anchored k-ĉores.

``core_decomposition`` is the Batagelj–Zaversnik bucket algorithm (the
O(m) routine cited as [14] in the paper).  ``k_core_containing`` computes
the maximal connected k-core (k-ĉore) that contains all query vertices,
the building block of the maximal (k,t)-core (Lemma 2/3).

Graphs large enough that the array setup pays for itself
(:func:`~repro.kernels.backend.stage_path`) run the vectorized CSR
kernels of :mod:`repro.kernels` (batch peeling, array BFS); smaller ones
run the original per-vertex implementations.  Both paths return
identical results (asserted in ``tests/kernels/``).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Sequence

from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph, Vertex
from repro.kernels import FlatGraph, core_numbers, k_core_component
from repro.kernels.backend import stage_path


def core_decomposition(graph: AdjacencyGraph) -> dict[Vertex, int]:
    """Return the core number of every vertex (Batagelj–Zaversnik).

    The core number of ``v`` is the largest k such that ``v`` belongs to a
    k-core of ``graph``.
    """
    if stage_path(graph.num_vertices) == "flat":
        fg = FlatGraph.from_adjacency(graph)
        return fg.relabel(core_numbers(fg))
    return _core_decomposition_python(graph)


def _core_decomposition_python(graph: AdjacencyGraph) -> dict[Vertex, int]:
    """Sequential Batagelj–Zaversnik with the position-swap bucket layout.

    ``vert`` holds the vertices sorted by current degree, ``pos`` each
    vertex's slot, and ``bin_start[d]`` the first slot of degree-d
    vertices.  A degree decrement swaps the vertex with the first member
    of its bucket and advances the boundary — O(1) per decrement and
    O(n) total memory, instead of appending a stale entry per decrement
    (worst-case O(m) bucket churn).
    """
    degree = {v: graph.degree(v) for v in graph.vertices()}
    n = len(degree)
    if n == 0:
        return {}
    max_deg = max(degree.values())
    bin_count = [0] * (max_deg + 1)
    for d in degree.values():
        bin_count[d] += 1
    bin_start = [0] * (max_deg + 1)
    start = 0
    for d in range(max_deg + 1):
        bin_start[d] = start
        start += bin_count[d]
    vert: list[Vertex] = [None] * n  # type: ignore[list-item]
    pos: dict[Vertex, int] = {}
    fill = list(bin_start)
    for v, d in degree.items():
        p = fill[d]
        vert[p] = v
        pos[v] = p
        fill[d] += 1
    core: dict[Vertex, int] = {}
    for i in range(n):
        v = vert[i]
        dv = degree[v]
        core[v] = dv
        for u in graph.neighbors(v):
            du = degree[u]
            if du > dv:
                pu = pos[u]
                pw = bin_start[du]
                w = vert[pw]
                if u is not w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] += 1
                degree[u] = du - 1
    return core


def peel_to_k_core(graph: AdjacencyGraph, k: int) -> AdjacencyGraph:
    """Return the maximal k-core of ``graph`` as a new graph.

    The result may be empty and may be disconnected (the union of all
    k-ĉores).  The flat path thresholds the coreness array (the maximal
    k-core is exactly the vertices with coreness >= k); the python path
    runs :func:`peel_cascade`.
    """
    if stage_path(graph.num_vertices) == "python":
        return peel_cascade(graph, k)
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    fg = FlatGraph.from_adjacency(graph)
    return graph.subgraph(fg.select_ids(core_numbers(fg) >= k))


def peel_cascade(graph: AdjacencyGraph, k: int) -> AdjacencyGraph:
    """The maximal k-core by the original per-vertex removal cascade.

    The python path of :func:`peel_to_k_core`.  The returned graph's
    neighbor sets are materialized in cascade order, which callers that
    walk them with a seeded draw (query suggestion) rely on.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    g = graph.copy()
    queue = deque(v for v in g.vertices() if g.degree(v) < k)
    enqueued = set(queue)
    while queue:
        v = queue.popleft()
        if v not in g:
            continue
        for u in list(g.neighbors(v)):
            g.remove_edge(v, u)
            if g.degree(u) < k and u not in enqueued:
                enqueued.add(u)
                queue.append(u)
        g.remove_vertex(v)
    return g


def k_core(graph: AdjacencyGraph, k: int) -> AdjacencyGraph:
    """Alias for :func:`peel_to_k_core` (maximal, possibly disconnected)."""
    return peel_to_k_core(graph, k)


def k_core_containing(
    graph: AdjacencyGraph,
    query: Iterable[Vertex],
    k: int,
) -> AdjacencyGraph | None:
    """The maximal connected k-core (k-ĉore) containing every query vertex.

    Returns ``None`` when no such community exists: some query vertex falls
    out of the k-core, or the query vertices end up in different connected
    components of it.
    """
    q = list(query)
    if not q:
        raise GraphError("query vertex set must be non-empty")
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    if any(v not in graph for v in q):
        return None
    if stage_path(graph.num_vertices) == "flat":
        fg = FlatGraph.from_adjacency(graph)
        comp = k_core_component(fg, fg.rows_of(q), k)
        if comp is None:
            return None
        return graph.subgraph(fg.select_ids(comp))
    core = peel_cascade(graph, k)
    if any(v not in core for v in q):
        return None
    component = core.component_of(q[0])
    if not all(v in component for v in q):
        return None
    return core.subgraph(component)


def k_cores_containing(
    graph: AdjacencyGraph,
    query: Iterable[Vertex],
    ks: Sequence[int],
) -> dict[int, AdjacencyGraph | None]:
    """Batched :func:`k_core_containing` over several coreness thresholds.

    One decomposition (and, on the flat path, one CSR build) serves
    every k — the engine-style amortization for parameter sweeps.
    """
    q = list(query)
    if not q:
        raise GraphError("query vertex set must be non-empty")
    if any(kk < 0 for kk in ks):
        raise GraphError(f"k must be non-negative, got {min(ks)}")
    out: dict[int, AdjacencyGraph | None] = {}
    if any(v not in graph for v in q):
        return {int(kk): None for kk in ks}
    if stage_path(graph.num_vertices) == "flat":
        fg = FlatGraph.from_adjacency(graph)
        core = core_numbers(fg)
        rows = fg.rows_of(q)
        for kk in ks:
            comp = k_core_component(fg, rows, kk, core)
            out[int(kk)] = (
                None if comp is None else graph.subgraph(fg.select_ids(comp))
            )
        return out
    coreness = _core_decomposition_python(graph)
    for kk in ks:
        keep = [v for v, c in coreness.items() if c >= kk]
        sub = graph.subgraph(keep)
        if any(v not in sub for v in q):
            out[int(kk)] = None
            continue
        component = sub.component_of(q[0])
        if not all(v in component for v in q):
            out[int(kk)] = None
            continue
        out[int(kk)] = sub.subgraph(component)
    return out


def coreness_upper_bound(num_vertices: int, num_edges: int) -> int:
    """Upper bound on the maximum coreness of a graph (cited as [2]).

    If ``k`` exceeds this bound there cannot be any k-core, so the search
    can terminate immediately (Section III of the paper):
    ``floor((1 + sqrt(9 + 8(m - n))) / 2)``.
    """
    if num_vertices <= 0:
        return 0
    slack = num_edges - num_vertices
    discriminant = 9 + 8 * slack
    if discriminant < 0:
        # Fewer edges than vertices: forest-like, coreness at most 1.
        return 1
    return int((1 + math.isqrt(discriminant)) // 2)
