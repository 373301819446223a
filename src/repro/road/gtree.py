"""G-tree: a hierarchical road-network index for fast range queries.

The paper (Section III) accelerates the Lemma-1 range filter with the
G-tree of Zhong et al. [24].  This module implements a faithful, compact
G-tree:

* the road network is recursively bisected (spatially, on the median of
  the wider coordinate axis; BFS halving when coordinates are missing),
* every tree node stores its **borders** — vertices with an edge leaving
  the node's vertex set,
* leaf nodes store border→vertex distance matrices computed *inside* the
  leaf subgraph,
* internal nodes store pairwise distances between the union of their
  children's borders, computed on a "mini-graph" assembled from child
  matrices plus cross-child edges.

Single-source queries run a Dijkstra over the multi-level border network
(each node's matrix acts as a weighted clique), which is exact because any
shortest path decomposes at the borders it crosses.  Range queries prune
whole subtrees whose borders are all farther than the bound.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.errors import GraphError
from repro.kernels import (
    all_pairs_minplus,
    dense_weight_matrix,
    masked_dijkstra_rows,
)
from repro.kernels.backend import gtree_path
from repro.road.network import RoadNetwork, SpatialPoint

INF = math.inf


class _Node:
    __slots__ = (
        "index",
        "parent",
        "children",
        "vertices",
        "borders",
        "matrix",
        "is_leaf",
    )

    def __init__(self, index: int, vertices: set[int]) -> None:
        self.index = index
        self.parent: int | None = None
        self.children: list[int] = []
        self.vertices = vertices
        self.borders: list[int] = []
        # leaf: {border: {vertex: dist}}; internal: {border: {border: dist}}
        self.matrix: dict[int, dict[int, float]] = {}
        self.is_leaf = False


def _bfs_halves(road: RoadNetwork, vertices: set[int]) -> tuple[set[int], set[int]]:
    """Split ``vertices`` into two halves by BFS layering (no coordinates)."""
    target = len(vertices) // 2
    start = next(iter(vertices))
    half: set[int] = set()
    queue = deque([start])
    seen = {start}
    while queue and len(half) < target:
        u = queue.popleft()
        half.add(u)
        for v in road.neighbors(u):
            if v in vertices and v not in seen:
                seen.add(v)
                queue.append(v)
    rest = vertices - half
    if not half or not rest:  # pathological: fall back to arbitrary split
        ordered = sorted(vertices)
        half, rest = set(ordered[:target]), set(ordered[target:])
    return half, rest


def _spatial_halves(
    road: RoadNetwork, vertices: set[int]
) -> tuple[set[int], set[int]]:
    """Median split on the wider coordinate axis."""
    xs = [road.coordinates(v)[0] for v in vertices]
    ys = [road.coordinates(v)[1] for v in vertices]
    axis = 0 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 1
    ordered = sorted(vertices, key=lambda v: (road.coordinates(v)[axis], v))
    mid = len(ordered) // 2
    return set(ordered[:mid]), set(ordered[mid:])


class GTree:
    """G-tree index over a :class:`RoadNetwork`.

    Parameters
    ----------
    road:
        The indexed network (kept by reference; do not mutate afterwards).
    leaf_size:
        Maximum number of vertices per leaf node.

    Road networks of :data:`~repro.kernels.backend.GTREE_FLAT_MIN_VERTICES`
    or more vertices assemble the distance matrices with the vectorized
    kernels (dense min-plus all-pairs per node instead of a python
    Dijkstra per border) on the road's cached CSR view; smaller ones
    keep the per-border loops (:func:`~repro.kernels.backend.gtree_path`).
    Matrices are equal up to floating-point associativity of path sums.
    """

    def __init__(self, road: RoadNetwork, leaf_size: int = 64) -> None:
        if leaf_size < 2:
            raise GraphError(f"leaf_size must be >= 2, got {leaf_size}")
        self._road = road
        self._leaf_size = leaf_size
        self._flat = self._flat_view(road)
        self._nodes: list[_Node] = []
        self._leaf_of: dict[int, int] = {}
        # border vertex -> [(node index, )] where it appears in a matrix
        self._border_nodes: dict[int, list[int]] = {}
        if road.num_vertices:
            self._build()

    @staticmethod
    def _flat_view(road: RoadNetwork):
        """The road's CSR view when the flat kernels run, else None."""
        return road.flat() if gtree_path(road.num_vertices) == "flat" else None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _split(self, vertices: set[int]) -> tuple[set[int], set[int]]:
        if all(self._road.has_coordinates(v) for v in vertices):
            return _spatial_halves(self._road, vertices)
        return _bfs_halves(self._road, vertices)

    def _build(self) -> None:
        road = self._road
        root = _Node(0, set(road.vertices()))
        self._nodes = [root]
        stack = [0]
        while stack:
            idx = stack.pop()
            node = self._nodes[idx]
            if len(node.vertices) <= self._leaf_size:
                node.is_leaf = True
                for v in node.vertices:
                    self._leaf_of[v] = idx
                continue
            left_set, right_set = self._split(node.vertices)
            for part in (left_set, right_set):
                child = _Node(len(self._nodes), part)
                child.parent = idx
                node.children.append(child.index)
                self._nodes.append(child)
                stack.append(child.index)
        for node in self._nodes:
            node.borders = self._compute_borders(node.vertices)
        for node in self._nodes:
            if node.is_leaf:
                self._build_leaf_matrix(node)
        # Bottom-up internal matrices: children always have larger indices
        # than their parents, so reverse index order is a valid order.
        for node in sorted(self._nodes, key=lambda n: -n.index):
            if not node.is_leaf:
                self._build_internal_matrix(node)
        for node in self._nodes:
            if not node.is_leaf:
                for b in node.matrix:
                    self._border_nodes.setdefault(b, []).append(node.index)

    def _compute_borders(self, vertices: set[int]) -> list[int]:
        borders = []
        for v in vertices:
            if any(u not in vertices for u in self._road.neighbors(v)):
                borders.append(v)
        return sorted(borders)

    def _dijkstra_within(
        self, source: int, vertices: set[int]
    ) -> dict[int, float]:
        """Plain Dijkstra restricted to the induced subgraph on vertices."""
        if self._flat is not None:
            fg = self._flat
            allowed = {fg.row_of(v) for v in vertices}
            ids = fg.ids
            return {
                ids[r]: d
                for r, d in masked_dijkstra_rows(
                    fg, fg.row_of(source), allowed
                ).items()
            }
        dist: dict[int, float] = {}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for v, w in self._road.neighbors(u).items():
                if v in vertices and v not in dist:
                    heapq.heappush(heap, (d + w, v))
        return dist

    def _build_leaf_matrix(self, node: _Node) -> None:
        if self._flat is not None:
            # Dense all-pairs over the leaf subgraph (<= leaf_size rows):
            # one vectorized min-plus sweep computes every border row at
            # once instead of a python Dijkstra per border.
            fg = self._flat
            rows = np.sort(np.asarray(fg.rows_of(node.vertices), np.int64))
            dense = all_pairs_minplus(dense_weight_matrix(fg, rows))
            ids = [fg.ids[r] for r in rows.tolist()]
            border_pos = np.searchsorted(rows, fg.rows_of(node.borders))
            for b, i in zip(node.borders, border_pos.tolist()):
                row = dense[i]
                finite = np.nonzero(np.isfinite(row))[0]
                node.matrix[b] = {
                    ids[j]: float(row[j]) for j in finite.tolist()
                }
            return
        for b in node.borders:
            node.matrix[b] = self._dijkstra_within(b, node.vertices)

    def _build_internal_matrix(self, node: _Node) -> None:
        """Pairwise distances among children's borders within the node."""
        children = [self._nodes[c] for c in node.children]
        union: set[int] = set()
        for child in children:
            union.update(child.borders)
        # Mini-graph: child matrices as cliques + cross-child edges.
        if self._flat is not None:
            self._build_internal_matrix_flat(node, children, union)
            return
        adj: dict[int, list[tuple[int, float]]] = {b: [] for b in union}
        for child in children:
            idx = (
                child.borders
                if child.is_leaf
                else [b for b in child.matrix if b in union]
            )
            for b in idx:
                row = child.matrix.get(b, {})
                for b2 in idx:
                    if b2 != b:
                        d = row.get(b2, INF)
                        if d < INF:
                            adj[b].append((b2, d))
        for b in union:
            for v, w in self._road.neighbors(b).items():
                if v in union and v in node.vertices:
                    # Cross edge (possibly within same child; harmless).
                    adj[b].append((v, w))
        for b in union:
            dist: dict[int, float] = {}
            heap = [(0.0, b)]
            while heap:
                d, u = heapq.heappop(heap)
                if u in dist:
                    continue
                dist[u] = d
                for v, w in adj[u]:
                    if v not in dist:
                        heapq.heappush(heap, (d + w, v))
            node.matrix[b] = dist

    def _build_internal_matrix_flat(
        self, node: _Node, children: list[_Node], union: set[int]
    ) -> None:
        """Same mini-graph, solved as one dense min-plus all-pairs."""
        borders = sorted(union)
        pos = {b: i for i, b in enumerate(borders)}
        m = len(borders)
        dense = np.full((m, m), INF)
        np.fill_diagonal(dense, 0.0)
        for child in children:
            idx = (
                child.borders
                if child.is_leaf
                else [b for b in child.matrix if b in union]
            )
            for b in idx:
                row = child.matrix.get(b, {})
                i = pos[b]
                for b2 in idx:
                    if b2 != b:
                        d = row.get(b2, INF)
                        if d < dense[i, pos[b2]]:
                            dense[i, pos[b2]] = d
        for b in borders:
            i = pos[b]
            for v, w in self._road.neighbors(b).items():
                j = pos.get(v)
                if j is not None and v in node.vertices and w < dense[i, j]:
                    dense[i, j] = w
        all_pairs_minplus(dense)
        for b in borders:
            row = dense[pos[b]]
            finite = np.nonzero(np.isfinite(row))[0]
            node.matrix[b] = {
                borders[j]: float(row[j]) for j in finite.tolist()
            }

    # ------------------------------------------------------------------
    # snapshot round-trip (repro.store)
    # ------------------------------------------------------------------
    def to_state(self) -> dict[str, np.ndarray]:
        """The full node hierarchy + distance matrices as flat arrays.

        Ragged structures (per-node vertex sets, border lists, matrix
        rows) serialize as ``*_ptr`` offset arrays over concatenated
        payload arrays — the natural ``.npz`` shape.  ``from_state``
        reconstructs an equivalent index without re-running any
        Dijkstra/min-plus build.
        """
        nodes = self._nodes
        parent = np.asarray(
            [-1 if n.parent is None else n.parent for n in nodes], np.int64
        )
        is_leaf = np.asarray([n.is_leaf for n in nodes], bool)
        vert_ptr = np.zeros(len(nodes) + 1, np.int64)
        border_ptr = np.zeros(len(nodes) + 1, np.int64)
        mat_ptr = np.zeros(len(nodes) + 1, np.int64)
        vert_flat: list[int] = []
        border_flat: list[int] = []
        mat_src: list[int] = []
        mat_dst: list[int] = []
        mat_w: list[float] = []
        for i, node in enumerate(nodes):
            vert_flat.extend(sorted(node.vertices))
            border_flat.extend(node.borders)
            for b, row in node.matrix.items():
                for v, d in row.items():
                    mat_src.append(b)
                    mat_dst.append(v)
                    mat_w.append(d)
            vert_ptr[i + 1] = len(vert_flat)
            border_ptr[i + 1] = len(border_flat)
            mat_ptr[i + 1] = len(mat_src)
        return {
            "parent": parent,
            "is_leaf": is_leaf,
            "vert_ptr": vert_ptr,
            "vert_flat": np.asarray(vert_flat, np.int64),
            "border_ptr": border_ptr,
            "border_flat": np.asarray(border_flat, np.int64),
            "mat_ptr": mat_ptr,
            "mat_src": np.asarray(mat_src, np.int64),
            "mat_dst": np.asarray(mat_dst, np.int64),
            "mat_w": np.asarray(mat_w, np.float64),
        }

    @classmethod
    def from_state(
        cls,
        road: RoadNetwork,
        state: dict,
        leaf_size: int,
    ) -> GTree:
        """Rebuild an index from :meth:`to_state` arrays (no matrix builds)."""
        self = cls.__new__(cls)
        self._road = road
        self._leaf_size = leaf_size
        self._flat = self._flat_view(road)
        parent = state["parent"].tolist()
        is_leaf = state["is_leaf"].tolist()
        vert_ptr = state["vert_ptr"].tolist()
        vert_flat = state["vert_flat"].tolist()
        border_ptr = state["border_ptr"].tolist()
        border_flat = state["border_flat"].tolist()
        mat_ptr = state["mat_ptr"].tolist()
        mat_src = state["mat_src"].tolist()
        mat_dst = state["mat_dst"].tolist()
        mat_w = state["mat_w"].tolist()
        self._nodes = []
        self._leaf_of = {}
        self._border_nodes = {}
        for i in range(len(parent)):
            node = _Node(i, set(vert_flat[vert_ptr[i]:vert_ptr[i + 1]]))
            node.parent = None if parent[i] < 0 else parent[i]
            node.is_leaf = bool(is_leaf[i])
            node.borders = border_flat[border_ptr[i]:border_ptr[i + 1]]
            for pos in range(mat_ptr[i], mat_ptr[i + 1]):
                node.matrix.setdefault(mat_src[pos], {})[mat_dst[pos]] = (
                    mat_w[pos]
                )
            self._nodes.append(node)
            if node.is_leaf:
                for v in node.vertices:
                    self._leaf_of[v] = i
        for node in self._nodes:
            if node.parent is not None:
                # Children were created in index order, so appending by
                # index reproduces the original child ordering.
                self._nodes[node.parent].children.append(node.index)
            if not node.is_leaf:
                for b in node.matrix:
                    self._border_nodes.setdefault(b, []).append(node.index)
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def leaf_size(self) -> int:
        return self._leaf_size

    @property
    def num_leaves(self) -> int:
        return sum(1 for n in self._nodes if n.is_leaf)

    def leaf_of(self, vertex: int) -> int:
        try:
            return self._leaf_of[vertex]
        except KeyError:
            raise GraphError(f"vertex {vertex!r} not indexed") from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _seed(self, source: SpatialPoint | int) -> list[tuple[int, float]]:
        if isinstance(source, int):
            source = SpatialPoint.at_vertex(source)
        self._road.validate_point(source)
        if source.on_vertex:
            return [(source.u, 0.0)]
        length = self._road.weight(source.u, source.v)
        return [(source.u, source.offset), (source.v, length - source.offset)]

    def range_query(
        self, source: SpatialPoint | int, bound: float
    ) -> dict[int, float]:
        """All road vertices within ``bound`` of ``source`` with distances.

        Exact (equal to a bounded Dijkstra over the full network) but prunes
        subtrees whose borders all exceed the bound.
        """
        seeds = self._seed(source)
        border_dist: dict[int, float] = {}
        inner_direct: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        # Phase 1: local Dijkstra inside each seed's leaf.
        for vertex, offset in seeds:
            if offset > bound:
                continue
            leaf = self._nodes[self._leaf_of[vertex]]
            local = self._dijkstra_within(vertex, leaf.vertices)
            for v, d in local.items():
                total = offset + d
                if total <= bound and total < inner_direct.get(v, INF):
                    inner_direct[v] = total
            for b in leaf.borders:
                d = local.get(b, INF)
                total = offset + d
                if total <= bound and total < border_dist.get(b, INF):
                    border_dist[b] = total
                    heapq.heappush(heap, (total, b))
        # Phase 2: Dijkstra over the multi-level border network.
        settled: set[int] = set()
        while heap:
            d, b = heapq.heappop(heap)
            if b in settled or d > border_dist.get(b, INF):
                continue
            settled.add(b)
            for node_idx in self._border_nodes.get(b, ()):
                row = self._nodes[node_idx].matrix[b]
                for b2, w in row.items():
                    nd = d + w
                    if nd <= bound and nd < border_dist.get(b2, INF):
                        border_dist[b2] = nd
                        heapq.heappush(heap, (nd, b2))
        # Phase 3: descend into reachable leaves only.
        result = dict(inner_direct)
        for b, d in border_dist.items():
            if d < result.get(b, INF):
                result[b] = d
        # Ancestors of the seed leaves must always be descended: their
        # interior is reachable without crossing their own borders.
        seed_ancestors: set[int] = set()
        for vertex, _offset in seeds:
            idx: int | None = self._leaf_of[vertex]
            while idx is not None:
                seed_ancestors.add(idx)
                idx = self._nodes[idx].parent
        stack = [0] if self._nodes else []
        while stack:
            node = self._nodes[stack.pop()]
            if not node.is_leaf:
                # Entry points into an internal node are its children's
                # borders (matrix keys); prune the subtree when none is
                # reachable — unless the source lies inside the node.
                if node.index in seed_ancestors or any(
                    b in border_dist for b in node.matrix
                ):
                    stack.extend(node.children)
                continue
            reach = [
                (b, border_dist[b]) for b in node.borders if b in border_dist
            ]
            if not reach:
                continue
            for v in node.vertices:
                best = result.get(v, INF)
                row_min = INF
                for b, db in reach:
                    via = db + node.matrix[b].get(v, INF)
                    if via < row_min:
                        row_min = via
                if row_min < best and row_min <= bound:
                    result[v] = row_min
        return {v: d for v, d in result.items() if d <= bound}

    def distance(self, a: SpatialPoint | int, b: SpatialPoint | int) -> float:
        """Exact network distance via the index (+inf when disconnected)."""
        if isinstance(b, int):
            b = SpatialPoint.at_vertex(b)
        targets = self._seed(b)
        all_dist = self.range_query(a, INF)
        best = INF
        for vertex, offset in targets:
            d = all_dist.get(vertex, INF) + offset
            best = min(best, d)
        if (
            isinstance(a, SpatialPoint)
            and not a.on_vertex
            and not b.on_vertex
            and {a.u, a.v} == {b.u, b.v}
        ):
            off_b = (
                b.offset if a.u == b.u else self._road.weight(a.u, a.v) - b.offset
            )
            best = min(best, abs(a.offset - off_b))
        return best

    def query_distances(
        self, query_points: Iterable[SpatialPoint], bound: float
    ) -> dict[int, float]:
        """``D_Q`` filter (Def. 2 / Lemma 1) using the index per query point."""
        result: dict[int, float] | None = None
        for q in query_points:
            d = self.range_query(q, bound)
            if result is None:
                result = d
            else:
                result = {
                    v: max(result[v], d[v]) for v in result.keys() & d.keys()
                }
            if not result:
                return {}
        return result if result is not None else {}
