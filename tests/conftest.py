"""Shared fixtures: the paper's running example (Figs. 1-5) and helpers.

The attribute table is Fig. 2(a) verbatim.  The road distances are
engineered to match every number the paper derives from Fig. 1(b):
``dist(r7, r6) = 7`` (= D_Q(v7)), ``dist(r3, r6) = 9`` (= D_Q of the
subgraph {v2,v3,v6,v7}), and H^9_3 = {v1..v7} for Q = {v2,v3,v6}, k = 3.
With R = [0.1,0.5] x [0.2,0.4] (Fig. 2(b)) the r-dominance graph then
reproduces Fig. 4(b): tops {v2,v4,v6}, middle {v3,v5,v1}, leaf v7, with
v4 ≻ v1 and v3 ≻ v7 and the initial leaf set {v7, v5, v1} of Section V-B.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.kernels.backend as paths
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.road.network import RoadNetwork, SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

#: Social edges of Fig. 1(a): dense cluster v1..v7 (exact, derived from
#: the paper's core claims), sparse periphery v8..v15 (faithful stand-in).
PAPER_SOCIAL_EDGES = [
    (1, 2), (1, 3), (1, 7),
    (2, 3), (2, 5), (2, 6), (2, 7),
    (3, 4), (3, 6), (3, 7),
    (4, 5), (4, 6),
    (5, 6),
    (6, 7),
    (7, 9), (8, 9), (8, 10), (9, 10), (9, 14), (10, 11),
    (11, 12), (12, 13), (13, 14), (14, 15), (11, 15),
]

#: Fig. 2(a): 3-dimensional attribute vectors of v1..v7.
PAPER_ATTRIBUTES = {
    1: (8.8, 3.6, 2.2),
    2: (5.9, 6.2, 6.0),
    3: (2.8, 5.6, 5.1),
    4: (9.0, 3.3, 3.4),
    5: (5.0, 7.6, 3.1),
    6: (5.2, 8.3, 4.3),
    7: (2.1, 5.0, 5.1),
}

#: Road edges (u, v, weight); r_i is the location of v_i.
PAPER_ROAD_EDGES = [
    (1, 2, 3.0), (2, 3, 4.0), (3, 7, 3.0), (2, 6, 5.0), (2, 5, 4.0),
    (5, 6, 3.0), (6, 7, 7.0), (2, 4, 5.0), (4, 6, 8.0), (4, 5, 4.0),
    # periphery, far (> 9) from the query cluster
    (7, 9, 15.0), (4, 8, 15.0), (8, 9, 5.0), (9, 10, 5.0), (10, 11, 5.0),
    (11, 12, 5.0), (12, 13, 5.0), (13, 14, 5.0), (14, 15, 5.0),
    (9, 14, 5.0), (11, 15, 5.0),
]


def paper_road() -> RoadNetwork:
    road = RoadNetwork()
    for v in range(1, 16):
        road.add_vertex(v, (float(v % 4), float(v // 4)))
    for u, v, w in PAPER_ROAD_EDGES:
        road.add_edge(u, v, w)
    return road


def paper_social_graph() -> AdjacencyGraph:
    return AdjacencyGraph(PAPER_SOCIAL_EDGES)


def paper_attributes() -> dict[int, np.ndarray]:
    """Attributes for all 15 vertices (v8..v15 get low filler vectors)."""
    attrs = {v: np.asarray(x, dtype=float) for v, x in PAPER_ATTRIBUTES.items()}
    rng = np.random.default_rng(42)
    for v in range(8, 16):
        attrs[v] = rng.uniform(0.5, 2.0, size=3)
    return attrs


@pytest.fixture
def road() -> RoadNetwork:
    return paper_road()


@pytest.fixture
def social_graph() -> AdjacencyGraph:
    return paper_social_graph()


@pytest.fixture
def paper_network() -> RoadSocialNetwork:
    """The full running example as a RoadSocialNetwork."""
    road = paper_road()
    graph = paper_social_graph()
    attrs = paper_attributes()
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(road, SocialNetwork(graph, attrs, locations))


@pytest.fixture
def paper_region() -> PreferenceRegion:
    """Fig. 2(b): R = [0.1, 0.5] x [0.2, 0.4] in the reduced domain."""
    return PreferenceRegion([0.1, 0.2], [0.5, 0.4])


def random_graph(
    n: int, p: float, seed: int, ensure_vertices: bool = True
) -> AdjacencyGraph:
    """Erdős–Rényi helper for randomized tests."""
    rng = np.random.default_rng(seed)
    g = AdjacencyGraph()
    if ensure_vertices:
        for v in range(n):
            g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


@pytest.fixture
def force_path(monkeypatch):
    """Force the size rules of :mod:`repro.kernels.backend` to one side.

    ``force_path("flat")`` puts every input on the flat side of each rule
    (G-tree, global-search loop); ``force_path("python")`` on the python
    side; ``force_path(None)`` restores the size rules.  Call it again to
    switch sides within a test: the rules read their constants when
    called, so an engine follows the side forced when it builds each
    stage.
    """
    sized = (paths.GTREE_FLAT_MIN_VERTICES, paths.GS_FLAT_MIN_CORE)

    def force(side: str | None) -> None:
        gtree_min, gs_min = {
            "flat": (0, 0),
            "python": (sys.maxsize, sys.maxsize),
            None: sized,
        }[side]
        monkeypatch.setattr(paths, "GTREE_FLAT_MIN_VERTICES", gtree_min)
        monkeypatch.setattr(paths, "GS_FLAT_MIN_CORE", gs_min)

    return force


def on_both_sides(force, fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` forced flat, then forced python."""
    out = []
    for side in ("flat", "python"):
        force(side)
        out.append(fn(*args, **kwargs))
    return tuple(out)
