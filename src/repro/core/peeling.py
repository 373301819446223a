"""Exact peeling at a fixed weight vector: the point oracle.

At a fixed weight w the score of every vertex is a scalar, so the MAC
chain is fully determined: repeatedly delete the globally smallest-score
vertex, cascade the structural (degree < k) deletions depth-first, and
restrict to the query component — exactly the DFS procedure of
Algorithm 1 with a one-cell arrangement.  Each surviving snapshot is an
MAC (Lemma 5), the last one the non-contained MAC (Lemma 6).

Used as the ground-truth oracle in tests; the local search peels the
same chain on CSR rows (:func:`repro.kernels.search.deletion_chain_rows`).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

from repro.errors import QueryError
from repro.graph.adjacency import AdjacencyGraph


def cascade_delete(
    graph: AdjacencyGraph, trigger: int, k: int
) -> set[int]:
    """Delete ``trigger`` and everything that structurally follows.

    Removes ``trigger`` from ``graph`` (mutating it), then recursively any
    vertex whose degree falls below ``k`` — the DFS procedure, lines 15-20
    of Algorithm 1.  Returns the set of deleted vertices.
    """
    return {v for v, _nbrs in cascade_delete_recoverable(graph, trigger, k)}


Removal = list[tuple[int, set[int]]]


def cascade_delete_recoverable(
    graph: AdjacencyGraph, trigger: int, k: int
) -> Removal:
    """Cascade-delete, returning an undo log for :func:`restore_removed`.

    Each entry records a removed vertex with its adjacency at removal
    time.  Undoing costs O(removed subgraph) instead of the O(m) full
    graph copy a snapshot would need — this is what keeps long peeling
    chains (hundreds of rounds) linear overall.
    """
    removed: Removal = []
    deleted: set[int] = set()
    stack = [trigger]
    while stack:
        v = stack.pop()
        if v not in graph or v in deleted:
            continue
        deleted.add(v)
        neighbors = set(graph.neighbors(v))
        graph.remove_vertex(v)
        removed.append((v, neighbors))
        for u in neighbors:
            if u not in deleted and graph.degree(u) < k:
                stack.append(u)
    return removed


def restore_removed(graph: AdjacencyGraph, removed: Removal) -> None:
    """Undo a :func:`cascade_delete_recoverable` (reverse order)."""
    for v, neighbors in reversed(removed):
        graph.add_vertex(v)
        for u in neighbors:
            graph.add_edge(v, u)


def restrict_to_query_component(
    graph: AdjacencyGraph, query: Iterable[int]
) -> set[int] | None:
    """Drop components not containing Q; None when Q breaks apart.

    Returns the set of *dropped* vertices on success (possibly empty).
    """
    q = list(query)
    if any(v not in graph for v in q):
        return None
    component = graph.component_of(q[0])
    if not all(v in component for v in q):
        return None
    dropped = set(graph.vertices()) - component
    for v in dropped:
        graph.remove_vertex(v)
    return dropped


def restrict_after_removal(
    graph: AdjacencyGraph, query: Iterable[int], removed: Removal
) -> set[int] | None:
    """:func:`restrict_to_query_component` right after ``removed`` died.

    The dict/set twin of
    :func:`repro.kernels.search.restrict_rows_incremental`, for the
    peeling loops' invariant: *before* the removal, ``graph`` plus the
    removed vertices formed one connected component containing Q.  Any
    component split off by the removal then holds a surviving
    ex-neighbor of a removed vertex, so only those are classified.  An
    early-exit BFS first re-verifies Q's connectivity; each ex-neighbor's
    BFS then either reaches the known Q side (its explored part joins
    that side) or exhausts, which is exactly a dropped component.

    Same result and same mutation of ``graph`` as
    :func:`restrict_to_query_component` under that invariant.
    """
    q = list(query)
    if any(v not in graph for v in q):
        return None
    nbrs_of = graph.neighbors
    touched = {u for _v, nbrs in removed for u in nbrs if u in graph}
    if not touched:
        return set()
    qside = {q[0]}
    missing = set(q) - qside
    frontier = [q[0]]
    while frontier and missing:
        nxt = []
        for v in frontier:
            for u in nbrs_of(v):
                if u not in qside:
                    qside.add(u)
                    missing.discard(u)
                    nxt.append(u)
        frontier = nxt
    if missing:
        return None
    dropped: set[int] = set()
    for a in touched:
        if a in qside or a in dropped:
            continue
        comp = {a}
        stack = [a]
        hit = False
        while stack and not hit:
            for u in nbrs_of(stack.pop()):
                if u in qside:
                    hit = True
                    break
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        if hit:
            qside |= comp
        else:
            dropped |= comp
    for v in dropped:
        graph.remove_vertex(v)
    return dropped


def deletion_chain(
    graph: AdjacencyGraph,
    query: Iterable[int],
    k: int,
    scores: Mapping[int, float],
    max_batches: int | None = None,
) -> tuple[list[set[int]], list[frozenset[int]]]:
    """Peel ``graph`` at fixed scores; return (chain, batches).

    ``chain[i]`` is the vertex set of the i-th MAC (chain[0] = the input,
    chain[-1] = the non-contained MAC); ``batches[i]`` is the vertex set
    removed between chain[i] and chain[i+1].  The input graph must be a
    connected k-core containing Q (H^t_k or any MAC); it is not mutated.

    ``max_batches`` optionally truncates the *front* of the chain: only
    the last ``max_batches + 1`` communities are needed for a top-j query
    with j = max_batches + 1; peeling still runs to the end, but recorded
    history is bounded.

    :func:`repro.kernels.search.deletion_chain_rows` is the same chain
    peeled over a CSR's int row arrays (the local search's path).
    """
    q = list(query)
    if not q:
        raise QueryError("query set must be non-empty")
    g = graph.copy()
    heap = [(scores[v], v) for v in g.vertices()]
    heapq.heapify(heap)
    current = set(g.vertices())
    chain: list[set[int]] = [set(current)]
    batches: list[frozenset[int]] = []
    query_set = set(q)
    while heap:
        s, u = heapq.heappop(heap)
        if u not in g:
            continue
        if u in query_set:
            break  # Corollary 1, condition (1): Q member is the minimum.
        removed = cascade_delete_recoverable(g, u, k)
        deleted = {v for v, _nbrs in removed}
        if deleted & query_set:
            restore_removed(g, removed)
            break  # Corollary 1, condition (2): cascade destroys Q.
        dropped = restrict_to_query_component(g, q)
        if dropped is None:
            restore_removed(g, removed)
            break
        batch = frozenset(deleted | dropped)
        current -= batch
        batches.append(batch)
        chain.append(set(current))
        if max_batches is not None and len(chain) > max_batches + 1:
            chain.pop(0)
            batches.pop(0)
    return chain, batches


def nc_mac_at(
    graph: AdjacencyGraph,
    query: Iterable[int],
    k: int,
    scores: Mapping[int, float],
) -> frozenset[int]:
    """The non-contained MAC at a fixed weight (last element of the chain)."""
    chain, _batches = deletion_chain(graph, query, k, scores, max_batches=0)
    return frozenset(chain[-1])


def top_j_at(
    graph: AdjacencyGraph,
    query: Iterable[int],
    k: int,
    scores: Mapping[int, float],
    j: int,
) -> list[frozenset[int]]:
    """Top-j MACs at a fixed weight, best (highest score) first."""
    chain, _batches = deletion_chain(
        graph, query, k, scores, max_batches=max(j - 1, 0)
    )
    return [frozenset(c) for c in reversed(chain[-j:])]
