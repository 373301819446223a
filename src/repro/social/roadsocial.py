"""Road-social network pairing (Gr, Gs) and the maximal (k,t)-core.

Implements the Section-III warm-up pipeline (Lemmas 1-3):

1. range-filter the users whose query distance ``D_Q`` exceeds ``t``
   (t-bounded Dijkstra per query location, or a G-tree);
2. reject early when ``k`` exceeds the coreness upper bound of [2];
3. core-decompose the filtered social subgraph and keep the maximal
   connected k-core containing Q — the maximal (k,t)-core ``H^t_k``.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import coreness_upper_bound, k_core_containing
from repro.road.dijkstra import bounded_dijkstra
from repro.road.gtree import GTree
from repro.road.network import RoadNetwork, SpatialPoint
from repro.social.network import SocialNetwork

INF = math.inf


@dataclass
class KTCore:
    """The maximal (k,t)-core H^t_k plus the query-distance map."""

    graph: AdjacencyGraph
    query_distance: dict[int, float] = field(default_factory=dict)

    @property
    def vertices(self) -> set[int]:
        return set(self.graph.vertices())

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


def _point_distance(
    road: RoadNetwork,
    dmap: dict[int, float],
    source: SpatialPoint,
    target: SpatialPoint,
) -> float:
    """Distance to ``target`` given vertex distances ``dmap`` from source."""
    if target.on_vertex:
        best = dmap.get(target.u, INF)
    else:
        length = road.weight(target.u, target.v)
        best = min(
            dmap.get(target.u, INF) + target.offset,
            dmap.get(target.v, INF) + (length - target.offset),
        )
    if (
        not source.on_vertex
        and not target.on_vertex
        and {source.u, source.v} == {target.u, target.v}
    ):
        off_t = (
            target.offset
            if source.u == target.u
            else road.weight(source.u, source.v) - target.offset
        )
        best = min(best, abs(source.offset - off_t))
    return best


class RoadSocialNetwork:
    """A paired road and social network, the query substrate of the paper."""

    def __init__(self, road: RoadNetwork, social: SocialNetwork) -> None:
        self.road = road
        self.social = social
        self._gtree: GTree | None = None
        self._gtree_lock = threading.Lock()

    # ------------------------------------------------------------------
    def build_gtree(self, leaf_size: int = 64) -> GTree:
        """Build (and cache) the G-tree range-query accelerator.

        Thread-safe and idempotent: concurrent callers (e.g. engine
        batch workers) share one build; ``leaf_size`` only applies to
        the first construction.
        """
        if self._gtree is None:
            with self._gtree_lock:
                if self._gtree is None:
                    self._gtree = GTree(self.road, leaf_size=leaf_size)
        return self._gtree

    @property
    def gtree(self) -> GTree:
        """The shared G-tree, built on first access (cached property).

        Every consumer — the legacy ``use_gtree=True`` free functions
        and the :class:`~repro.engine.MACEngine` — goes through this one
        instance, so the index is never rebuilt per call.  Use
        :attr:`has_gtree` to test for the index without triggering a
        build.
        """
        return self.build_gtree()

    @property
    def has_gtree(self) -> bool:
        """Whether the G-tree has been built (never triggers a build)."""
        return self._gtree is not None

    def drop_gtree(self) -> None:
        """Discard the cached G-tree (road weights changed; rebuild lazily)."""
        with self._gtree_lock:
            self._gtree = None

    # ------------------------------------------------------------------
    def query_distance_filter(
        self,
        query: Iterable[int],
        t: float,
        use_gtree: bool = False,
    ) -> dict[int, float]:
        """Users v with ``D_Q(v) <= t`` mapped to ``D_Q(v)`` (Lemma 1)."""
        q_list = list(query)
        if not q_list:
            raise QueryError("query user set must be non-empty")
        for q in q_list:
            if q not in self.social.graph:
                raise QueryError(f"query user {q!r} not in social network")
        q_points = [self.social.location(q) for q in q_list]
        gtree = self.build_gtree() if use_gtree else None
        dmaps: list[tuple[SpatialPoint, dict[int, float]]] = []
        for p in q_points:
            if gtree is not None:
                dmap = gtree.range_query(p, t)
            else:
                dmap = bounded_dijkstra(self.road, p, t)
            dmaps.append((p, dmap))
        kept: dict[int, float] = {}
        for v in self.social.graph.vertices():
            loc = self.social.locations.get(v)
            if loc is None:
                continue
            worst = 0.0
            for p, dmap in dmaps:
                d = _point_distance(self.road, dmap, p, loc)
                if d > t:
                    worst = INF
                    break
                worst = max(worst, d)
            if worst <= t:
                kept[v] = worst
        return kept

    def maximal_kt_core(
        self,
        query: Iterable[int],
        k: int,
        t: float,
        use_gtree: bool = False,
    ) -> KTCore | None:
        """The maximal (k,t)-core H^t_k for Q, or None when it is empty."""
        q_list = list(query)
        if k < 0:
            raise QueryError(f"k must be non-negative, got {k}")
        if t < 0:
            raise QueryError(f"t must be non-negative, got {t}")
        dq = self.query_distance_filter(q_list, t, use_gtree=use_gtree)
        if any(q not in dq for q in q_list):
            return None
        filtered = self.social.graph.subgraph(dq)
        bound = coreness_upper_bound(
            filtered.num_vertices, filtered.num_edges
        )
        if k > bound:
            return None
        graph = k_core_containing(filtered, q_list, k)
        if graph is None:
            return None
        return KTCore(
            graph=graph,
            query_distance={v: dq[v] for v in graph.vertices()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RoadSocialNetwork({self.road!r}, {self.social!r})"
