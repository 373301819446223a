"""Road network model: weighted undirected graph + points on vertices/edges.

Matches Section II-A of the paper: vertices are road intersections/ends,
edges are road segments with non-negative costs, and a spatial point may
lie either on a vertex or part-way along an edge (``SpatialPoint``), with
``w(u, p)`` proportional to the distance from endpoint ``u``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import GraphError


@dataclass(frozen=True)
class SpatialPoint:
    """A location on the road network.

    ``offset`` is the distance from ``u`` along edge (u, v); a point on a
    vertex is represented with ``v is None`` and ``offset == 0``.
    """

    u: int
    v: int | None = None
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.v is None and self.offset != 0.0:
            raise GraphError("vertex point must have zero offset")
        if self.offset < 0:
            raise GraphError("offset must be non-negative")

    @property
    def on_vertex(self) -> bool:
        return self.v is None

    @staticmethod
    def at_vertex(u: int) -> SpatialPoint:
        return SpatialPoint(u)

    @staticmethod
    def on_edge(u: int, v: int, offset: float) -> SpatialPoint:
        return SpatialPoint(u, v, offset)


class RoadNetwork:
    """Undirected weighted road graph with optional planar coordinates.

    Coordinates are used by the G-tree spatial bisection and by the
    check-in location mapper; distances are always *network* distances.
    """

    __slots__ = ("_adj", "_coords", "_num_edges", "_flat")

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, float]] = {}
        self._coords: dict[int, tuple[float, float]] = {}
        self._num_edges = 0
        self._flat = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> dict[int, float]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"road vertex {v!r} not in network") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def max_degree(self) -> int:
        return max((len(n) for n in self._adj.values()), default=0)

    def weight(self, u: int, v: int) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) not in network") from None

    def coordinates(self, v: int) -> tuple[float, float]:
        try:
            return self._coords[v]
        except KeyError:
            raise GraphError(f"vertex {v!r} has no coordinates") from None

    def has_coordinates(self, v: int) -> bool:
        return v in self._coords

    # ------------------------------------------------------------------
    def add_vertex(self, v: int, xy: tuple[float, float] | None = None) -> None:
        self._adj.setdefault(v, {})
        if xy is not None:
            self._coords[v] = (float(xy[0]), float(xy[1]))
        self._flat = None

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise GraphError(f"self-loop on road vertex {u!r} not allowed")
        if weight < 0:
            raise GraphError(f"edge weight must be non-negative, got {weight}")
        a = self._adj.setdefault(u, {})
        b = self._adj.setdefault(v, {})
        if v not in a:
            self._num_edges += 1
            self._flat = None
        elif self._flat is not None:
            # Weight-only update: the row structure of the CSR view is
            # still valid, so patch the weight entries in place instead
            # of dropping the whole cached conversion.
            self._patch_flat_weight(u, v, float(weight))
        a[v] = float(weight)
        b[u] = float(weight)

    def _patch_flat_weight(self, u: int, v: int, weight: float) -> None:
        fg = self._flat
        ru, rv = fg.row_of(u), fg.row_of(v)
        weights = fg.weights
        if not weights.flags.writeable:
            # Snapshot-restored CSRs may be read-only memory maps;
            # copy-on-write instead of touching the shared mapping.
            weights = weights.copy()
            fg.weights = weights
        s, e = fg.indptr[ru], fg.indptr[ru + 1]
        weights[s:e][fg.indices[s:e] == rv] = weight
        s, e = fg.indptr[rv], fg.indptr[rv + 1]
        weights[s:e][fg.indices[s:e] == ru] = weight
        # Derived per-vertex views embed weights; rebuild them lazily.
        fg._lists = None
        fg._pairs = None

    def flat(self):
        """Cached CSR view (:class:`repro.kernels.FlatGraph`) of the network.

        Built on first use and invalidated by topology mutations (a
        weight-only :meth:`add_edge` on an existing edge patches the
        cached weight array in place instead); shared by every flat
        G-tree build and query so the conversion cost is paid once per
        network, not per query.  Concurrent first calls may
        race to build — both produce identical snapshots, so the benign
        race only wastes one build.
        """
        if self._flat is None:
            from repro.kernels.flatgraph import FlatGraph

            self._flat = FlatGraph.from_road(self)
        return self._flat

    # ------------------------------------------------------------------
    def subgraph(self, keep: Iterable[int]) -> RoadNetwork:
        keep_set = {v for v in keep if v in self._adj}
        g = RoadNetwork()
        for v in keep_set:
            g.add_vertex(v, self._coords.get(v))
        for v in keep_set:
            for u, w in self._adj[v].items():
                if u in keep_set and v < u:
                    g.add_edge(v, u, w)
        return g

    def validate_point(self, p: SpatialPoint) -> None:
        """Raise GraphError unless ``p`` refers to real network elements."""
        if p.u not in self._adj:
            raise GraphError(f"point endpoint {p.u!r} not in network")
        if p.v is not None:
            w = self.weight(p.u, p.v)
            if p.offset > w:
                raise GraphError(
                    f"point offset {p.offset} exceeds edge length {w}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RoadNetwork(|V|={self.num_vertices}, |E|={self.num_edges})"
