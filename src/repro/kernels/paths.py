"""Shortest-path kernels of the G-tree: masked Dijkstra and dense min-plus.

``masked_dijkstra_rows`` runs a leaf-local Dijkstra over the CSR
arrays' list view.  ``all_pairs_minplus`` is the vectorized
Floyd–Warshall used by the G-tree matrix assembly, where one (B, B)
numpy relaxation per pivot replaces a per-border python Dijkstra over
the border mini-graph.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import GraphError
from repro.kernels.flatgraph import FlatGraph, ragged_offsets

INF = math.inf


def masked_dijkstra_rows(
    fg: FlatGraph, source_row: int, allowed, bound: float = INF
) -> dict[int, float]:
    """Single-source distances restricted to rows in ``allowed``.

    ``allowed`` is a set-like container of row indices, or a boolean
    row mask (converted up front — ``in`` on a numpy array would test
    element equality, not membership).  The source must be allowed.
    """
    if isinstance(allowed, np.ndarray):
        allowed = (
            set(np.nonzero(allowed)[0].tolist())
            if allowed.dtype == bool
            else set(allowed.tolist())
        )
    adj = fg.adjacency_pairs()
    dist = {source_row: 0.0}
    out: dict[int, float] = {}
    heap = [(0.0, source_row)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if u in out:
            continue
        out[u] = d
        for v, w in adj[u]:
            if v not in allowed:
                continue
            nd = d + w
            if nd <= bound and nd < dist.get(v, INF):
                dist[v] = nd
                push(heap, (nd, v))
    return out


def dense_weight_matrix(fg: FlatGraph, rows: np.ndarray) -> np.ndarray:
    """(L, L) direct-edge weight matrix of the subgraph induced on rows.

    ``rows`` must be sorted ascending.  Missing edges are +inf, the
    diagonal 0 — the seed matrix for :func:`all_pairs_minplus`.  Work is
    O(L + incident edges): neighbor columns resolve to local positions
    by bisection into ``rows``, with no whole-graph scratch array.
    """
    if fg.weights is None:
        raise GraphError("dense_weight_matrix needs a weighted FlatGraph")
    rows = np.asarray(rows, dtype=np.int64)
    m = rows.shape[0]
    out = np.full((m, m), INF)
    np.fill_diagonal(out, 0.0)
    if m == 0:
        return out
    offsets, counts = ragged_offsets(fg.indptr, rows)
    if offsets.size:
        src = np.repeat(np.arange(m), counts)
        cols = fg.indices[offsets]
        dst = np.searchsorted(rows, cols)
        clipped = np.minimum(dst, m - 1)
        keep = rows[clipped] == cols
        out[src[keep], clipped[keep]] = fg.weights[offsets][keep]
    return out


def all_pairs_minplus(dense: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths by in-place vectorized Floyd–Warshall.

    ``dense`` is a square direct-distance matrix (inf = no edge, 0 on
    the diagonal).  Each pivot applies one (L, L) min-plus relaxation;
    with non-negative weights the result equals per-source Dijkstra.
    """
    n = dense.shape[0]
    for k in range(n):
        np.minimum(dense, dense[:, k, None] + dense[None, k, :], out=dense)
    return dense
