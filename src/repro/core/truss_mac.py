"""k-truss MACs: the Section II-B "Remarks" extension.

The paper notes that its techniques apply to cohesiveness metrics beyond
the k-core, naming the k-truss.  This module provides the truss-cohesive
variants: the maximal (k,t)-truss, the truss peeling cascade, the exact
point oracle, and a truss-backed global search (the r-dominance geometry
is untouched — only the structural cascade changes).

Truss cascades are implemented by full re-peeling after each deletion
(simple and correct; truss maintenance is far more intricate than core
maintenance and these variants target analysis-scale graphs).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.truss import k_truss, k_truss_containing
from repro.kernels.search import search_flatgraph
from repro.core.global_search import GlobalSearch
from repro.core.peeling import Removal, restore_removed


def truss_cascade_recoverable(
    graph: AdjacencyGraph, trigger: int, k: int
) -> Removal:
    """Delete ``trigger`` and shrink back to the maximal k-truss.

    Mutates ``graph``; returns an undo log compatible with
    :func:`repro.core.peeling.restore_removed`.  Note: the log restores
    removed *vertices* with their incident edges; edges internal to the
    survivors are untouched by a truss shrink because the maximal
    k-truss of an induced subgraph is vertex-induced here (we keep the
    convention that communities are vertex sets).
    """
    removed: Removal = []
    if trigger not in graph:
        return removed
    removed.append((trigger, set(graph.neighbors(trigger))))
    graph.remove_vertex(trigger)
    survivors = k_truss(graph, k)
    extra = [v for v in graph.vertices() if v not in survivors]
    for v in extra:
        removed.append((v, set(graph.neighbors(v))))
        graph.remove_vertex(v)
    return removed


def truss_deletion_chain(
    graph: AdjacencyGraph,
    query: Iterable[int],
    k: int,
    scores: Mapping[int, float],
    max_batches: int | None = None,
) -> tuple[list[set[int]], list[frozenset[int]]]:
    """Truss-cohesive analogue of :func:`repro.core.peeling.deletion_chain`.

    The input graph must be a connected k-truss containing Q; each chain
    element is the connected k-truss containing Q after peeling the
    smallest-score vertex (with truss cascade).
    """
    q = sorted(set(query))
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
        _s, u = heapq.heappop(heap)
        if u not in g:
            continue
        if u in query_set:
            break
        removed = truss_cascade_recoverable(g, u, k)
        deleted = {v for v, _nbrs in removed}
        if deleted & query_set:
            restore_removed(g, removed)
            break
        if any(v not in g for v in q):
            restore_removed(g, removed)
            break
        component = g.component_of(q[0])
        if not all(v in component for v in q):
            restore_removed(g, removed)
            break
        dropped = set(g.vertices()) - component
        for v in dropped:
            g.remove_vertex(v)
        batch = frozenset(deleted | dropped)
        current -= batch
        batches.append(batch)
        chain.append(set(current))
        if max_batches is not None and len(chain) > max_batches + 1:
            chain.pop(0)
            batches.pop(0)
    return chain, batches


def truss_mac_at(
    graph: AdjacencyGraph,
    query: Iterable[int],
    k: int,
    scores: Mapping[int, float],
) -> frozenset[int]:
    """The non-contained truss-MAC at a fixed weight."""
    chain, _ = truss_deletion_chain(graph, query, k, scores, max_batches=0)
    return frozenset(chain[-1])


class TrussGlobalSearch(GlobalSearch):
    """Algorithm 1 with k-truss structural cohesiveness.

    Only the DFS cascade changes; partitioning of R, leaf maintenance on
    Gd and the Corollary-1 termination conditions are inherited verbatim
    — exactly the paper's claim that the framework is metric-agnostic.
    It takes the truss as a row-sorted CSR
    (:func:`~repro.kernels.search.search_flatgraph`) and always peels on
    the set loop, the one that runs :meth:`_cascade`.
    """

    def _loop(self) -> str:
        return "python"

    def _cascade(self, graph: AdjacencyGraph, trigger: int) -> Removal:
        return truss_cascade_recoverable(graph, trigger, self.k)


def maximal_kt_truss(network, query, k: int, t: float):
    """The maximal (k,t)-truss: Lemma-3 pipeline with truss peeling."""
    q = sorted(set(query))
    dq = network.query_distance_filter(q, t)
    if any(v not in dq for v in q):
        return None
    filtered = network.social.graph.subgraph(dq)
    truss = k_truss_containing(filtered, q, k)
    if truss is None:
        return None
    return truss


def truss_mac_search(
    network,
    query: Iterable[int],
    k: int,
    t: float,
    region: PreferenceRegion,
    j: int = 1,
    problem: str = "nc",
    max_partitions: int | None = None,
):
    """End-to-end truss-MAC search (global algorithm only).

    Returns a list of :class:`repro.core.query.PartitionEntry`, or an
    empty list when the maximal (k,t)-truss does not exist.
    """
    if problem not in ("nc", "topj"):
        raise QueryError(f"unknown problem {problem!r}")
    truss = maximal_kt_truss(network, query, k, t)
    if truss is None:
        return []
    attrs = network.social.attributes_for(truss.vertices())
    gd = DominanceGraph(attrs, region)
    searcher = TrussGlobalSearch(
        search_flatgraph(truss), gd, query, k, region,
        max_partitions=max_partitions,
    )
    if problem == "nc":
        return searcher.search_nc()
    return searcher.search_topj(j)
