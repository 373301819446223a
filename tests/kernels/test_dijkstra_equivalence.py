"""Dijkstra equivalence: the heap loop against the flat oracle.

The production heap loop over the road's dict adjacency must match an
independent list-indexed Dijkstra over the CSR rows
(``tests/oracles/dijkstra.py``) exactly in reached-vertex sets and up
to float associativity in values — including mid-edge
``SpatialPoint`` sources and the ``D_Q`` aggregation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tests.conftest import paper_road
from tests.kernels.conftest import random_road
from tests.oracles import dijkstra as oracle
from repro.road.dijkstra import (
    bounded_dijkstra,
    dijkstra,
    network_distance,
    query_distances,
)
from repro.road.network import SpatialPoint

INF = math.inf


def assert_dist_maps_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for v in a:
        assert a[v] == pytest.approx(b[v], rel=1e-9, abs=1e-9)


class TestBoundedDijkstra:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_roads(self, seed):
        rng = np.random.default_rng(seed)
        road = random_road(120, 60, seed)
        for _ in range(4):
            src = int(rng.integers(120))
            bound = float(rng.uniform(2.0, 40.0))
            assert_dist_maps_equal(
                oracle.bounded_dijkstra(road, src, bound),
                bounded_dijkstra(road, src, bound),
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_mid_edge_sources(self, seed):
        road = random_road(80, 40, seed)
        rng = np.random.default_rng(200 + seed)
        u = int(rng.integers(80))
        v = next(iter(road.neighbors(u)))
        p = SpatialPoint.on_edge(u, v, road.weight(u, v) * 0.4)
        for bound in (5.0, 25.0, INF):
            assert_dist_maps_equal(
                oracle.bounded_dijkstra(road, p, bound),
                bounded_dijkstra(road, p, bound),
            )

    def test_unbounded_reaches_component(self):
        road = paper_road()
        flat = oracle.bounded_dijkstra(road, 1)
        python = dijkstra(road, 1)
        assert_dist_maps_equal(flat, python)
        assert set(flat) == set(road.vertices())

    def test_disconnected_vertices_absent(self):
        road = paper_road()
        road.add_vertex(99)
        assert 99 not in dijkstra(road, 1)
        assert 99 not in oracle.bounded_dijkstra(road, 1)

    def test_zero_bound(self):
        road = paper_road()
        assert oracle.bounded_dijkstra(road, 1, 0.0) == \
            bounded_dijkstra(road, 1, 0.0) == {1: 0.0}


class TestMaskedDijkstra:
    def test_bool_mask_matches_row_set(self):
        from repro.kernels import FlatGraph, masked_dijkstra_rows

        road = random_road(40, 20, 2)
        fg = road.flat()
        mask = np.zeros(fg.n, dtype=bool)
        mask[: fg.n // 2] = True
        src = int(np.nonzero(mask)[0][0])
        via_mask = masked_dijkstra_rows(fg, src, mask)
        via_set = masked_dijkstra_rows(
            fg, src, set(np.nonzero(mask)[0].tolist())
        )
        assert via_mask == via_set
        # full mask == unrestricted reachability
        full = masked_dijkstra_rows(fg, src, np.ones(fg.n, dtype=bool))
        assert set(full) == set(
            fg.row_of(v) for v in dijkstra(road, src)
        )
        assert isinstance(FlatGraph.from_road(road), FlatGraph)

    def test_auto_backend_keeps_python_path(self):
        # Dijkstra always runs the heap loop (a CSR variant measures
        # break-even on road shapes): it never builds the road's CSR.
        road = random_road(100, 50, 3)
        assert_dist_maps_equal(
            bounded_dijkstra(road, 0, 30.0),
            oracle.bounded_dijkstra(random_road(100, 50, 3), 0, 30.0),
        )
        assert road._flat is None


class TestAggregates:
    def test_network_distance_matches(self):
        road = random_road(60, 30, 5)
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = (int(x) for x in rng.integers(60, size=2))
            assert network_distance(road, a, b) == pytest.approx(
                oracle.bounded_dijkstra(road, a).get(b, INF), rel=1e-9
            )

    def test_same_edge_points(self):
        road = paper_road()
        a = SpatialPoint.on_edge(2, 3, 1.0)
        b = SpatialPoint.on_edge(3, 2, 1.5)  # same edge, other end
        assert network_distance(road, a, b) == pytest.approx(1.5)

    def test_query_distances_matches(self):
        road = random_road(100, 50, 9)
        points = [SpatialPoint.at_vertex(3), SpatialPoint.at_vertex(77)]
        for bound in (10.0, 30.0):
            maps = [oracle.bounded_dijkstra(road, p, bound) for p in points]
            assert_dist_maps_equal(
                {v: max(m[v] for m in maps)
                 for v in set(maps[0]).intersection(*maps[1:])},
                query_distances(road, points, bound),
            )

    def test_lemma1_filter_matches(self, small_dataset, monkeypatch):
        import repro.social.roadsocial as roadsocial

        net = small_dataset.network
        q = small_dataset.suggest_query(
            2, k=4, t=small_dataset.default_t
        )
        for t in (small_dataset.default_t, small_dataset.default_t / 2):
            python = net.query_distance_filter(q, t)
            with monkeypatch.context() as m:
                m.setattr(
                    roadsocial, "bounded_dijkstra", oracle.bounded_dijkstra
                )
                flat = net.query_distance_filter(q, t)
            assert_dist_maps_equal(flat, python)
