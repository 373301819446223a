"""Path equivalence: G-tree matrix assembly and range queries.

The flat build (dense min-plus all-pairs per node) must produce the
same border matrices as the per-border python Dijkstra — same key sets,
values equal up to float associativity of path sums — and identical
range-query / distance answers.  Both sides are forced with the
``force_path`` seam.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tests.conftest import on_both_sides, paper_road
from tests.kernels.conftest import random_road
from repro.road.dijkstra import bounded_dijkstra
from repro.road.gtree import GTree
from repro.road.network import SpatialPoint

INF = math.inf


def build_pair(force_path, road, leaf_size=16):
    """(python G-tree, flat G-tree) over ``road``."""
    flat, python = on_both_sides(force_path, GTree, road, leaf_size=leaf_size)
    assert python._flat is None and flat._flat is not None
    return python, flat


class TestMatrices:
    @pytest.mark.parametrize("seed", range(4))
    def test_node_matrices_match(self, seed, force_path):
        road = random_road(150, 80, seed, coords=(seed % 2 == 0))
        gp, gf = build_pair(force_path, road)
        assert gp.num_nodes == gf.num_nodes
        for np_, nf in zip(gp._nodes, gf._nodes):
            assert np_.vertices == nf.vertices
            assert np_.borders == nf.borders
            assert set(np_.matrix) == set(nf.matrix)
            for b in np_.matrix:
                rp, rf = np_.matrix[b], nf.matrix[b]
                assert set(rp) == set(rf)
                for v in rp:
                    assert rf[v] == pytest.approx(rp[v], rel=1e-9)


class TestQueries:
    @pytest.mark.parametrize("seed", range(3))
    def test_range_query_matches_dijkstra(self, seed, force_path):
        road = random_road(150, 80, seed)
        gp, gf = build_pair(force_path, road)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            src = int(rng.integers(150))
            bound = float(rng.uniform(3.0, 30.0))
            ref = bounded_dijkstra(road, src, bound)
            for gt in (gp, gf):
                got = gt.range_query(src, bound)
                assert set(got) == set(ref)
                for v in ref:
                    assert got[v] == pytest.approx(ref[v], rel=1e-9)

    def test_mid_edge_source(self, force_path):
        road = paper_road()
        gp, gf = build_pair(force_path, road, leaf_size=4)
        u, v = 2, 3
        p = SpatialPoint.on_edge(u, v, road.weight(u, v) / 3)
        ref = bounded_dijkstra(road, p, 12.0)
        for gt in (gp, gf):
            got = gt.range_query(p, 12.0)
            assert set(got) == set(ref)
            for w in ref:
                assert got[w] == pytest.approx(ref[w], rel=1e-9)

    def test_distance_matches(self, force_path):
        road = random_road(100, 50, 11)
        gp, gf = build_pair(force_path, road)
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b = (int(x) for x in rng.integers(100, size=2))
            assert gf.distance(a, b) == pytest.approx(
                gp.distance(a, b), rel=1e-9
            )

    def test_query_distances_match(self, small_dataset, force_path):
        road = small_dataset.network.road
        gp, gf = build_pair(force_path, road, leaf_size=32)
        verts = sorted(road.vertices())
        points = [
            SpatialPoint.at_vertex(verts[0]),
            SpatialPoint.at_vertex(verts[len(verts) // 2]),
        ]
        a = gp.query_distances(points, 120.0)
        b = gf.query_distances(points, 120.0)
        assert set(a) == set(b)
        for v in a:
            assert b[v] == pytest.approx(a[v], rel=1e-9)
