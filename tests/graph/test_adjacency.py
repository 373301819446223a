"""Unit tests for the dynamic adjacency graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph

from tests.conftest import random_graph


class TestBasics:
    def test_empty_graph(self):
        g = AdjacencyGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.min_degree() == 0
        assert g.is_connected()

    def test_add_edge_creates_vertices(self):
        g = AdjacencyGraph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.num_edges == 1

    def test_duplicate_edge_ignored(self):
        g = AdjacencyGraph([(1, 2), (1, 2), (2, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = AdjacencyGraph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_degree_and_neighbors(self):
        g = AdjacencyGraph([(1, 2), (1, 3), (1, 4)])
        assert g.degree(1) == 3
        assert g.neighbors(1) == {2, 3, 4}
        assert g.degree(2) == 1

    def test_neighbors_missing_vertex(self):
        g = AdjacencyGraph()
        with pytest.raises(GraphError):
            g.neighbors(9)

    def test_remove_edge(self):
        g = AdjacencyGraph([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 1
        assert 1 in g  # vertex survives edge removal

    def test_remove_missing_edge(self):
        g = AdjacencyGraph([(1, 2)])
        with pytest.raises(GraphError):
            g.remove_edge(1, 3)

    def test_remove_vertex(self):
        g = AdjacencyGraph([(1, 2), (1, 3), (2, 3)])
        g.remove_vertex(1)
        assert 1 not in g
        assert g.num_edges == 1
        assert g.neighbors(2) == {3}

    def test_remove_missing_vertex(self):
        g = AdjacencyGraph()
        with pytest.raises(GraphError):
            g.remove_vertex(5)

    def test_edges_yields_each_once(self):
        edges = [(1, 2), (2, 3), (3, 1), (3, 4)]
        g = AdjacencyGraph(edges)
        seen = {frozenset(e) for e in g.edges()}
        assert seen == {frozenset(e) for e in edges}
        assert len(list(g.edges())) == 4

    def test_degree_statistics(self):
        g = AdjacencyGraph([(1, 2), (1, 3), (1, 4), (2, 3)])
        assert g.max_degree() == 3
        assert g.min_degree() == 1
        assert g.average_degree() == pytest.approx(2.0)


class TestDerived:
    def test_copy_is_independent(self):
        g = AdjacencyGraph([(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert 3 not in g
        assert g.num_edges == 1 and h.num_edges == 2

    def test_subgraph_induces_edges(self):
        g = AdjacencyGraph([(1, 2), (2, 3), (3, 4), (4, 1)])
        s = g.subgraph([1, 2, 3])
        assert set(s.vertices()) == {1, 2, 3}
        assert s.has_edge(1, 2) and s.has_edge(2, 3)
        assert not s.has_edge(3, 4)
        assert s.num_edges == 2

    def test_subgraph_ignores_unknown_vertices(self):
        g = AdjacencyGraph([(1, 2)])
        s = g.subgraph([1, 2, 99])
        assert set(s.vertices()) == {1, 2}


class TestTraversal:
    def test_component_of(self):
        g = AdjacencyGraph([(1, 2), (2, 3), (5, 6)])
        assert g.component_of(1) == {1, 2, 3}
        assert g.component_of(6) == {5, 6}

    def test_connected_components(self):
        g = AdjacencyGraph([(1, 2), (3, 4), (4, 5)])
        g.add_vertex(9)
        comps = sorted(g.connected_components(), key=len)
        assert [len(c) for c in comps] == [1, 2, 3]

    def test_same_component(self):
        g = AdjacencyGraph([(1, 2), (2, 3), (5, 6)])
        assert g.same_component([1, 3])
        assert not g.same_component([1, 5])
        assert not g.same_component([1, 99])
        assert g.same_component([])

    def test_is_connected(self):
        assert AdjacencyGraph([(1, 2), (2, 3)]).is_connected()
        g = AdjacencyGraph([(1, 2)])
        g.add_vertex(7)
        assert not g.is_connected()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 200), st.integers(0, 10_000))
def test_random_graph_edge_count_consistency(n_seed, e_seed):
    """num_edges equals the number of enumerated edges after random ops."""
    g = random_graph(12, 0.3, seed=n_seed * 131 + e_seed)
    assert g.num_edges == len(list(g.edges()))
    assert g.num_edges == sum(g.degree(v) for v in g.vertices()) // 2


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100))
def test_components_partition_vertices(seed):
    g = random_graph(15, 0.12, seed=seed)
    comps = g.connected_components()
    union = set()
    for c in comps:
        assert not (union & c), "components must be disjoint"
        union |= c
    assert union == set(g.vertices())
