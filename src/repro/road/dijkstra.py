"""Shortest-path routines over road networks.

Provides plain and distance-bounded Dijkstra from vertices or from
``SpatialPoint``s lying mid-edge, plus the query-distance aggregation
``D_Q(v) = max_q dist(L(v), L(q))`` of Definition 2.

Every entry point runs the dict-keyed heap loop.  Unlike the core and
dominance kernels, Dijkstra on the bundled road shapes (degree ~2.5) is
heap-bound, and a list-indexed CSR variant measured break-even to
slower, so there is no flat path here.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from repro.road.network import RoadNetwork, SpatialPoint

INF = math.inf


def _seed_heap(road: RoadNetwork, source: SpatialPoint) -> list[tuple[float, int]]:
    """Initial heap entries for a source that may lie mid-edge."""
    road.validate_point(source)
    if source.on_vertex:
        return [(0.0, source.u)]
    length = road.weight(source.u, source.v)
    return [(source.offset, source.u), (length - source.offset, source.v)]


def dijkstra(road: RoadNetwork, source: SpatialPoint | int) -> dict[int, float]:
    """Distances from ``source`` to every reachable road vertex."""
    return bounded_dijkstra(road, source, INF)


def bounded_dijkstra(
    road: RoadNetwork,
    source: SpatialPoint | int,
    bound: float,
) -> dict[int, float]:
    """Distances from ``source`` to vertices within ``bound`` (inclusive)."""
    if isinstance(source, int):
        source = SpatialPoint.at_vertex(source)
    dist: dict[int, float] = {}
    heap = [e for e in _seed_heap(road, source) if e[0] <= bound]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in road.neighbors(u).items():
            nd = d + w
            if nd <= bound and v not in dist:
                heapq.heappush(heap, (nd, v))
    return dist


def _point_distance(dist: dict[int, float], target: SpatialPoint,
                    road: RoadNetwork) -> float:
    """Distance to a target point given vertex distances from the source."""
    if target.on_vertex:
        return dist.get(target.u, INF)
    length = road.weight(target.u, target.v)
    via_u = dist.get(target.u, INF) + target.offset
    via_v = dist.get(target.v, INF) + (length - target.offset)
    return min(via_u, via_v)


def network_distance(
    road: RoadNetwork,
    a: SpatialPoint | int,
    b: SpatialPoint | int,
) -> float:
    """Shortest network distance between two locations (+inf if disconnected).

    Handles the degenerate case of two points on the *same* edge, where the
    along-edge path may beat any path through the endpoints.
    """
    if isinstance(a, int):
        a = SpatialPoint.at_vertex(a)
    if isinstance(b, int):
        b = SpatialPoint.at_vertex(b)
    direct = INF
    if not a.on_vertex and not b.on_vertex:
        same = {a.u, a.v} == {b.u, b.v}
        if same:
            off_b = b.offset if a.u == b.u else road.weight(a.u, a.v) - b.offset
            direct = abs(a.offset - off_b)
    dist = dijkstra(road, a)
    return min(direct, _point_distance(dist, b, road))


def query_distances(
    road: RoadNetwork,
    query_points: Iterable[SpatialPoint],
    bound: float = INF,
) -> dict[int, float]:
    """``D_Q`` over road vertices: max distance to any query point (Def. 2).

    Only vertices within ``bound`` of *every* query point are returned,
    which implements the Lemma 1 filter directly.
    """
    result: dict[int, float] | None = None
    for q in query_points:
        d = bounded_dijkstra(road, q, bound)
        if result is None:
            result = d
        else:
            result = {
                v: max(result[v], d[v]) for v in result.keys() & d.keys()
            }
        if not result:
            return {}
    return result if result is not None else {}
