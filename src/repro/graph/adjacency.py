"""A small, fast, dynamic undirected graph on adjacency sets.

This is the workhorse structure for every social-graph algorithm in the
package (core decomposition, peeling cascades, truss computation, local
expansion).  It deliberately supports only what those algorithms need:
integer-keyed vertices, unweighted undirected edges, O(1) degree lookups,
cheap induced subgraphs and connected components.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator

from repro.errors import GraphError

Vertex = Hashable


class AdjacencyGraph:
    """Mutable undirected graph backed by a dict of adjacency sets.

    Vertices may be any hashable value (the library uses ints).  Parallel
    edges and self-loops are rejected, matching the simple-graph model of
    the paper.
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, edges: Iterable[tuple[Vertex, Vertex]] = ()) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._num_edges = 0
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Yield each undirected edge exactly once."""
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """Return the adjacency set of ``v`` (do not mutate it)."""
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} not in graph") from None

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def min_degree(self) -> int:
        """Minimum degree over all vertices (0 for the empty graph)."""
        if not self._adj:
            return 0
        return min(len(nbrs) for nbrs in self._adj.values())

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        self._adj.setdefault(v, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed")
        a = self._adj.setdefault(u, set())
        b = self._adj.setdefault(v, set())
        if v not in a:
            a.add(v)
            b.add(u)
            self._num_edges += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from None
        self._num_edges -= 1

    def remove_vertex(self, v: Vertex) -> None:
        try:
            nbrs = self._adj.pop(v)
        except KeyError:
            raise GraphError(f"vertex {v!r} not in graph") from None
        for u in nbrs:
            self._adj[u].remove(v)
        self._num_edges -= len(nbrs)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> AdjacencyGraph:
        g = AdjacencyGraph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, keep: Iterable[Vertex]) -> AdjacencyGraph:
        """Induced subgraph on ``keep`` (vertices absent from self ignored)."""
        keep_set = {v for v in keep if v in self._adj}
        g = AdjacencyGraph()
        g._adj = {v: self._adj[v] & keep_set for v in keep_set}
        g._num_edges = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        return g

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def component_of(self, source: Vertex) -> set[Vertex]:
        """Vertex set of the connected component containing ``source``."""
        if source not in self._adj:
            raise GraphError(f"vertex {source!r} not in graph")
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def connected_components(self) -> list[set[Vertex]]:
        remaining = set(self._adj)
        components = []
        while remaining:
            comp = self.component_of(next(iter(remaining)))
            components.append(comp)
            remaining -= comp
        return components

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self.component_of(next(iter(self._adj)))) == len(self._adj)

    def same_component(self, vertices: Iterable[Vertex]) -> bool:
        """True iff all ``vertices`` lie in one connected component."""
        vs = list(vertices)
        if not vs:
            return True
        if any(v not in self._adj for v in vs):
            return False
        return set(vs) <= self.component_of(vs[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdjacencyGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
        )
