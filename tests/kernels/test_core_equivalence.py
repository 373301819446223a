"""Kernel equivalence: core decomposition, peeling, components.

The CSR kernels behind :mod:`repro.graph.core` (batch peeling, array
BFS) must return the coreness maps, k-cores, and query-anchored k-ĉores
of the per-vertex references (``tests/oracles/kcore.py``: position-swap
Batagelj–Zaversnik; :func:`~repro.graph.core.peel_cascade`) on random
graphs and the bundled datasets.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import random_graph
from tests.oracles import kcore as oracle
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import (
    core_decomposition,
    k_core_containing,
    peel_cascade,
    peel_to_k_core,
)
from repro.kernels import FlatGraph, component_labels, component_mask


def graphs_equal(a: AdjacencyGraph | None, b: AdjacencyGraph | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return (
        set(a.vertices()) == set(b.vertices())
        and {frozenset(e) for e in a.edges()}
        == {frozenset(e) for e in b.edges()}
    )


def coreness_both(graph) -> tuple[dict, dict]:
    """The kernel's and the reference BZ's coreness of ``graph``."""
    return core_decomposition(graph), oracle.core_decomposition(graph)


class TestCoreDecomposition:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 160))
        g = random_graph(n, float(rng.uniform(0.01, 0.2)), seed)
        flat, reference = coreness_both(g)
        assert flat == reference

    def test_path_graph_long_cascade(self):
        # Worst case for batch peeling (one cascade round per vertex)
        # and for the old bucket layout (every edge appended an entry).
        g = AdjacencyGraph([(i, i + 1) for i in range(500)])
        flat, reference = coreness_both(g)
        assert flat == reference
        assert set(flat.values()) == {1}

    def test_complete_graph(self):
        n = 12
        g = AdjacencyGraph(
            [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        for core in coreness_both(g):
            assert set(core.values()) == {n - 1}

    def test_isolated_vertices(self):
        g = AdjacencyGraph([(0, 1)])
        g.add_vertex(99)
        for core in coreness_both(g):
            assert core == {
                0: 1, 1: 1, 99: 0,
            }

    def test_bundled_dataset(self, small_dataset):
        g = small_dataset.network.social.graph
        flat, reference = coreness_both(g)
        assert flat == reference

    def test_unknown_backend_rejected(self):
        # The input picks the path: there is no backend option to pass.
        with pytest.raises(TypeError):
            core_decomposition(AdjacencyGraph([(0, 1)]), backend="numpy")


class TestPeeling:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_peel_matches(self, seed, k):
        g = random_graph(80, 0.08, seed)
        assert graphs_equal(peel_to_k_core(g, k), peel_cascade(g, k))

    @pytest.mark.parametrize("seed", range(5))
    def test_k_core_containing_matches(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(80, 0.08, seed)
        verts = sorted(g.vertices())
        query = [int(v) for v in rng.choice(verts, size=2, replace=False)]
        for k in (1, 2, 3, 4):
            assert graphs_equal(
                k_core_containing(g, query, k),
                oracle.k_core_containing(g, query, k),
            )

    def test_negative_k_rejected_on_both_backends(self):
        from repro.errors import GraphError

        g = random_graph(20, 0.2, 0)
        with pytest.raises(GraphError):
            peel_to_k_core(g, -1)
        with pytest.raises(GraphError):
            peel_cascade(g, -1)
        with pytest.raises(GraphError):
            k_core_containing(g, [0], -1)


class TestComponents:
    @pytest.mark.parametrize("seed", range(5))
    def test_labels_partition_matches_adjacency(self, seed):
        g = random_graph(70, 0.03, seed)
        fg = FlatGraph.from_adjacency(g)
        labels = component_labels(fg)
        by_label: dict[int, set] = {}
        for v in g.vertices():
            by_label.setdefault(int(labels[fg.row_of(v)]), set()).add(v)
        expected = {frozenset(c) for c in g.connected_components()}
        assert {frozenset(c) for c in by_label.values()} == expected

    def test_mask_restricts(self):
        g = AdjacencyGraph([(0, 1), (1, 2), (2, 3)])
        fg = FlatGraph.from_adjacency(g)
        mask = np.asarray([True, True, False, True])
        comp = component_mask(fg, fg.row_of(0), mask)
        assert fg.select_ids(comp) == [0, 1]
        # source outside the mask: empty component
        empty = component_mask(fg, fg.row_of(2), mask)
        assert not empty.any()
        # masked-out bridge vertex splits the rest
        other = component_mask(fg, fg.row_of(3), mask)
        assert fg.select_ids(other) == [3]
