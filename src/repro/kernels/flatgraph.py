"""`FlatGraph`: an immutable int-indexed CSR view of a graph.

The kernel layer's substrate.  Vertices are rows ``0..n-1``; the
original vertex ids round-trip through ``ids`` / ``row_of`` so callers
on :class:`~repro.graph.adjacency.AdjacencyGraph` or
:class:`~repro.road.network.RoadNetwork` (both int-keyed in practice)
convert losslessly.  Edges live in ``indptr``/``indices`` arrays (both
directions of every undirected edge), optionally weighted.

Int-keyed graphs take a fully vectorized construction path (rows are
the sorted vertex ids; neighbor streams map through ``searchsorted``);
arbitrary hashable vertices fall back to a dict-mapped fill loop.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import chain

import numpy as np

from repro.errors import GraphError


def ragged_offsets(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat-array offsets of the CSR slices of ``rows``.

    Returns ``(offsets, counts)``: ``offsets`` indexes the concatenated
    ``indptr[r]:indptr[r+1]`` ranges of every row (the shared ragged
    gather of the kernel layer), ``counts`` the per-row slice lengths.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), counts
    csum = np.cumsum(counts) - counts
    offsets = np.repeat(starts - csum, counts) + np.arange(total)
    return offsets, counts


class FlatGraph:
    """CSR adjacency over rows ``0..n-1`` with an id ↔ row mapping.

    ``weights`` is ``None`` for unweighted graphs, else a float64 array
    aligned with ``indices``.  Instances are snapshots: mutating the
    source graph afterwards does not update the flat view.
    """

    __slots__ = ("n", "indptr", "indices", "weights", "ids", "_row_of",
                 "_ids_arr", "_lists", "_pairs")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        ids: list,
        weights: np.ndarray | None = None,
    ) -> None:
        self.n = len(ids)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.ids = ids
        self._row_of: dict[Hashable, int] | None = None
        self._ids_arr: np.ndarray | None = None
        self._lists: tuple | None = None
        self._pairs: list | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, graph) -> FlatGraph:
        """Flatten anything with ``vertices()``/``neighbors()`` (sets)."""
        return cls._from_neighbor_maps(graph, weighted=False)

    @classmethod
    def from_road(cls, road) -> FlatGraph:
        """Flatten a road network (``neighbors`` maps vertex → weight)."""
        return cls._from_neighbor_maps(road, weighted=True)

    @classmethod
    def _from_neighbor_maps(cls, graph, weighted: bool) -> FlatGraph:
        adj = getattr(graph, "_adj", None)
        if adj is None:  # generic duck-typed graph
            adj = {v: graph.neighbors(v) for v in graph.vertices()}
        n = len(adj)
        if n == 0:
            return cls(np.zeros(1, np.int64), np.zeros(0, np.int64), [],
                       np.zeros(0, np.float64) if weighted else None)
        keys = np.array(list(adj.keys()))
        # Integer keys (the common case) take the vectorized path; any
        # other dtype — floats, objects, bools — falls back to dicts.
        if keys.dtype.kind in "iu":
            ids_arr = np.sort(keys.astype(np.int64, copy=False))
            verts = ids_arr.tolist()
            nbr_maps = [adj[v] for v in verts]
            counts = np.fromiter(map(len, nbr_maps), np.int64, count=n)
            total = int(counts.sum())
            indptr = np.zeros(n + 1, np.int64)
            np.cumsum(counts, out=indptr[1:])
            raw = np.fromiter(
                chain.from_iterable(nbr_maps), np.int64, count=total
            )
            lo, hi = verts[0], verts[-1]
            if lo == 0 and hi == n - 1:
                indices = raw  # rows are the ids themselves
            elif hi - lo + 1 <= 4 * n:
                lut = np.empty(hi - lo + 1, np.int64)
                lut[ids_arr - lo] = np.arange(n)
                indices = lut[raw - lo]
            else:
                indices = np.searchsorted(ids_arr, raw)
            weights = (
                np.fromiter(
                    chain.from_iterable(m.values() for m in nbr_maps),
                    np.float64, count=total,
                )
                if weighted else None
            )
            fg = cls(indptr, indices, verts, weights)
            fg._ids_arr = ids_arr
            return fg
        verts = list(adj.keys())
        counts = np.fromiter(map(len, adj.values()), np.int64, count=n)
        total = int(counts.sum())
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=indptr[1:])
        row_of = {v: i for i, v in enumerate(verts)}
        indices = np.empty(total, np.int64)
        weights = np.empty(total, np.float64) if weighted else None
        pos = 0
        for v in verts:
            nbrs = adj[v]
            for u in nbrs:
                indices[pos] = row_of[u]
                if weighted:
                    weights[pos] = nbrs[u]
                pos += 1
        fg = cls(indptr, indices, verts, weights)
        fg._row_of = row_of
        return fg

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple], weighted: bool | None = None
    ) -> FlatGraph:
        """Build from ``(u, v)`` or ``(u, v, w)`` int tuples.

        Undirected simple-graph semantics: self-loops are rejected,
        duplicate edges collapse (keeping the minimum weight).
        """
        rows = list(edges)
        if not rows:
            return cls(np.zeros(1, np.int64), np.zeros(0, np.int64), [],
                       np.zeros(0, np.float64) if weighted else None)
        if weighted is None:
            weighted = len(rows[0]) == 3
        u = np.asarray([e[0] for e in rows], dtype=np.int64)
        v = np.asarray([e[1] for e in rows], dtype=np.int64)
        if np.any(u == v):
            raise GraphError("self-loops not allowed in a FlatGraph")
        w = (
            np.asarray([e[2] for e in rows], dtype=np.float64)
            if weighted else None
        )
        ids_arr = np.unique(np.concatenate([u, v]))
        ur, vr = np.searchsorted(ids_arr, u), np.searchsorted(ids_arr, v)
        # canonical (min, max) keys to collapse duplicates
        lo, hi = np.minimum(ur, vr), np.maximum(ur, vr)
        key = lo * len(ids_arr) + hi
        order = np.argsort(key, kind="stable")
        keep = np.ones(len(key), bool)
        keep[1:] = key[order][1:] != key[order][:-1]
        if w is not None:
            # min weight per duplicate group
            w_sorted = np.minimum.reduceat(
                w[order], np.nonzero(keep)[0]
            )
        lo, hi = lo[order][keep], hi[order][keep]
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        if w is not None:
            ww = np.concatenate([w_sorted, w_sorted])
        n = len(ids_arr)
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=indptr[1:])
        order2 = np.argsort(src, kind="stable")
        indices = dst[order2]
        weights = ww[order2] if w is not None else None
        fg = cls(indptr, indices, ids_arr.tolist(), weights)
        fg._ids_arr = ids_arr
        return fg

    # ------------------------------------------------------------------
    # snapshot round-trip (repro.store)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """CSR arrays + id map as plain numpy arrays (snapshot payload).

        Only int-keyed graphs serialize (the library's road and social
        substrates); arbitrary hashable ids have no array representation.
        """
        ids = np.asarray(self.ids)
        if ids.dtype.kind not in "iu":
            raise GraphError(
                "only int-keyed FlatGraphs can be serialized to arrays"
            )
        out = {
            "indptr": self.indptr,
            "indices": self.indices,
            "ids": ids.astype(np.int64, copy=False),
        }
        if self.weights is not None:
            out["weights"] = self.weights
        return out

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        ids: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> FlatGraph:
        """Rebuild a FlatGraph from :meth:`to_arrays` output (no copies)."""
        ids_arr = np.asarray(ids, np.int64)
        fg = cls(
            np.asarray(indptr, np.int64),
            np.asarray(indices, np.int64),
            ids_arr.tolist(),
            None if weights is None else np.asarray(weights, np.float64),
        )
        if ids_arr.size == 0 or bool(np.all(np.diff(ids_arr) > 0)):
            fg._ids_arr = ids_arr  # sorted ids: keep the bisection path
        return fg

    def to_adjacency(self, mask: np.ndarray | None = None):
        """The :class:`~repro.graph.adjacency.AdjacencyGraph` induced by
        the rows a boolean ``mask`` selects (every row when ``None``):
        one ragged gather, then one neighbor set per kept row."""
        # Imported here: repro.graph imports repro.kernels.
        from repro.graph.adjacency import AdjacencyGraph

        rows = np.arange(self.n) if mask is None else np.flatnonzero(mask)
        offsets, counts = ragged_offsets(self.indptr, rows)
        nbrs = self.indices[offsets]
        if mask is not None and nbrs.size:
            keep = mask[nbrs]
            nbrs = nbrs[keep]
            owner = np.repeat(np.arange(rows.size), counts)
            counts = np.bincount(owner[keep], minlength=rows.size)
        ids = self._ids_arr
        if ids is None:  # unsorted or non-int ids: gather the objects
            ids = np.empty(self.n, object)
            ids[:] = self.ids
        nbr_ids = ids[nbrs].tolist()
        ends = np.cumsum(counts)
        bounds = zip((ends - counts).tolist(), ends.tolist())
        graph = AdjacencyGraph()
        graph._adj = {
            v: set(nbr_ids[lo:hi]) for v, (lo, hi) in zip(ids[rows].tolist(), bounds)
        }
        graph._num_edges = len(nbr_ids) // 2
        return graph

    def sorted_subgraph(self, mask: np.ndarray | None = None) -> FlatGraph:
        """The unweighted CSR induced by the rows a boolean ``mask``
        selects (every row when ``None``), each row's neighbors sorted.

        Rows keep their relative order (ascending ids for every
        int-keyed graph this package builds).  Sorting is needed
        because a live insert repair splices neighbors out of order,
        and the searchers' tie-breaks read neighbors in row order.
        """
        rows = np.arange(self.n) if mask is None else np.flatnonzero(mask)
        offsets, counts = ragged_offsets(self.indptr, rows)
        nbrs = self.indices[offsets]
        m = rows.size
        owner = np.repeat(np.arange(m), counts)
        if mask is not None and nbrs.size:
            keep = mask[nbrs]
            owner = owner[keep]
            nbrs = (np.cumsum(mask) - 1)[nbrs[keep]]  # old row -> new row
        # Row-major keys: one sort orders every row's segment in place.
        indices = np.sort(owner * m + nbrs) - owner * m
        indptr = np.zeros(m + 1, np.int64)
        np.cumsum(np.bincount(owner, minlength=m), out=indptr[1:])
        ids_arr = None if self._ids_arr is None else self._ids_arr[rows]
        if ids_arr is None:
            fg = FlatGraph(indptr, indices, [self.ids[r] for r in rows.tolist()])
        else:
            fg = FlatGraph(indptr, indices, ids_arr.tolist())
        fg._ids_arr = ids_arr
        return fg

    # ------------------------------------------------------------------
    # id ↔ row mapping
    # ------------------------------------------------------------------
    @property
    def row_map(self) -> dict:
        """Lazily-built ``{vertex id: row}`` dict."""
        if self._row_of is None:
            self._row_of = {v: i for i, v in enumerate(self.ids)}
        return self._row_of

    def row_of(self, vertex) -> int:
        # Sorted int ids resolve by bisection — no O(n) dict build for
        # a handful of lookups (e.g. the engine's query rows).
        if self._ids_arr is not None:
            try:
                pos = int(np.searchsorted(self._ids_arr, vertex))
            except TypeError:
                pos = self.n
            if pos < self.n and self.ids[pos] == vertex:
                return pos
            raise GraphError(f"vertex {vertex!r} not in FlatGraph")
        try:
            return self.row_map[vertex]
        except KeyError:
            raise GraphError(f"vertex {vertex!r} not in FlatGraph") from None

    def __contains__(self, vertex) -> bool:
        try:
            self.row_of(vertex)
        except GraphError:
            return False
        return True

    def id_of(self, row: int):
        return self.ids[row]

    def rows_of(self, vertices: Iterable) -> list[int]:
        if self._ids_arr is not None:
            arr = np.fromiter(vertices, np.int64)
            pos = np.searchsorted(self._ids_arr, arr)
            clipped = np.minimum(pos, self.n - 1)
            if (pos >= self.n).any() or (self._ids_arr[clipped] != arr).any():
                missing = arr[
                    (pos >= self.n) | (self._ids_arr[clipped] != arr)
                ]
                raise GraphError(
                    f"vertex {missing[0]!r} not in FlatGraph"
                )
            return pos.tolist()
        m = self.row_map
        try:
            return [m[v] for v in vertices]
        except KeyError as exc:
            raise GraphError(
                f"vertex {exc.args[0]!r} not in FlatGraph"
            ) from None

    def select_ids(self, mask: np.ndarray) -> list:
        """Vertex ids of the rows selected by a boolean mask."""
        if self._ids_arr is not None:
            return self._ids_arr[mask].tolist()
        return [self.ids[i] for i in np.nonzero(mask)[0]]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0]) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbor_rows(self, row: int) -> np.ndarray:
        return self.indices[self.indptr[row]:self.indptr[row + 1]]

    def lists(self) -> tuple[list[int], list[int], list[float] | None]:
        """CSR arrays as python lists (cached) — the Dijkstra hot path.

        Plain list indexing beats both dict hashing and numpy scalar
        indexing inside the per-vertex heap loop, which is why the
        shortest-path kernels run on this view.
        """
        if self._lists is None:
            self._lists = (
                self.indptr.tolist(),
                self.indices.tolist(),
                self.weights.tolist() if self.weights is not None else None,
            )
        return self._lists

    def adjacency_pairs(self) -> list[list[tuple[int, float]]]:
        """Per-row ``[(neighbor row, weight), ...]`` lists (cached).

        The tightest iteration shape python offers for the Dijkstra
        inner loop: one tuple unpack per neighbor, no index arithmetic.
        """
        if self._pairs is None:
            ptr, ind, wts = self.lists()
            if wts is None:
                raise GraphError("adjacency_pairs needs a weighted graph")
            self._pairs = [
                list(zip(ind[ptr[r]:ptr[r + 1]], wts[ptr[r]:ptr[r + 1]]))
                for r in range(self.n)
            ]
        return self._pairs

    def relabel(self, values: np.ndarray) -> dict:
        """``{vertex id: values[row]}`` for a per-row result array."""
        return dict(zip(self.ids, values.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "weighted" if self.weights is not None else "unweighted"
        return f"FlatGraph(|V|={self.n}, |E|={self.num_edges}, {kind})"
