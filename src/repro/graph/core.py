"""k-core machinery: decomposition, peeling, and query-anchored k-ĉores.

``core_decomposition`` computes the Batagelj–Zaversnik coreness (the
O(m) routine cited as [14] in the paper) with the batch-peeling CSR
kernel of :mod:`repro.kernels`.  ``k_core_containing`` computes the
maximal connected k-core (k-ĉore) that contains all query vertices, the
building block of the maximal (k,t)-core (Lemma 2/3).  The per-vertex
reference implementations are the oracles of ``tests/oracles/kcore.py``.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable

from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph, Vertex
from repro.kernels import FlatGraph, core_numbers, k_core_component


def core_decomposition(graph: AdjacencyGraph) -> dict[Vertex, int]:
    """Return the core number of every vertex (Batagelj–Zaversnik).

    The core number of ``v`` is the largest k such that ``v`` belongs to a
    k-core of ``graph``.
    """
    fg = FlatGraph.from_adjacency(graph)
    return fg.relabel(core_numbers(fg))


def peel_to_k_core(graph: AdjacencyGraph, k: int) -> AdjacencyGraph:
    """Return the maximal k-core of ``graph`` as a new graph.

    The result may be empty and may be disconnected (the union of all
    k-ĉores): exactly the vertices with coreness >= k.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    fg = FlatGraph.from_adjacency(graph)
    return graph.subgraph(fg.select_ids(core_numbers(fg) >= k))


def peel_cascade(graph: AdjacencyGraph, k: int) -> AdjacencyGraph:
    """The maximal k-core by the per-vertex removal cascade.

    Same vertex set as :func:`peel_to_k_core`, but the returned graph's
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
    fg = FlatGraph.from_adjacency(graph)
    comp = k_core_component(fg, fg.rows_of(q), k)
    if comp is None:
        return None
    return graph.subgraph(fg.select_ids(comp))


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
