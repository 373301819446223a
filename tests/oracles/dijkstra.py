"""Reference flat Dijkstra: a list-indexed distance table over CSR rows.

The former ``flat`` path of ``repro.road.dijkstra.bounded_dijkstra``.
The heap loop over the road's dict adjacency is the only production
path; this independent implementation is kept as its oracle, so the
distance maps are checked against a second Dijkstra on every shape.
"""

from __future__ import annotations

import heapq
import math

from repro.road.dijkstra import _seed_heap
from repro.road.network import RoadNetwork, SpatialPoint

INF = math.inf


def bounded_dijkstra(
    road: RoadNetwork, source: SpatialPoint | int, bound: float = INF
) -> dict[int, float]:
    """Distances from ``source`` to road vertices within ``bound``."""
    if isinstance(source, int):
        source = SpatialPoint.at_vertex(source)
    fg = road.flat()
    adj = fg.adjacency_pairs()
    dist = [INF] * fg.n
    heap = []
    for off, v in _seed_heap(road, source):
        row = fg.row_of(v)
        if off <= bound and off < dist[row]:
            dist[row] = off
            heap.append((off, row))
    heapq.heapify(heap)
    out: dict[int, float] = {}
    while heap:
        d, u = heapq.heappop(heap)
        if u in out or d > dist[u]:
            continue
        out[u] = d
        for v, w in adj[u]:
            nd = d + w
            if nd <= bound and nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    ids = fg.ids
    return {ids[r]: d for r, d in out.items()}
