"""FlatGraph construction and id ↔ row round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import paper_road, random_graph
from repro.errors import GraphError
from repro.graph.adjacency import AdjacencyGraph
from repro.kernels import (
    FlatGraph,
    core_numbers,
    delete_edge_rows,
    insert_edge_rows,
    search_flatgraph,
)


class TestFromAdjacency:
    def test_round_trip_ids_and_degrees(self):
        g = random_graph(50, 0.1, seed=3)
        fg = FlatGraph.from_adjacency(g)
        assert fg.n == g.num_vertices
        assert fg.num_edges == g.num_edges
        for v in g.vertices():
            r = fg.row_of(v)
            assert fg.id_of(r) == v
            assert fg.degrees()[r] == g.degree(v)
            nbr_ids = {fg.id_of(int(c)) for c in fg.neighbor_rows(r)}
            assert nbr_ids == g.neighbors(v)

    def test_sparse_int_ids(self):
        g = AdjacencyGraph([(10, 700), (700, 31), (31, 10)])
        fg = FlatGraph.from_adjacency(g)
        assert sorted(fg.ids) == [10, 31, 700]
        assert fg.rows_of([700, 10]) == [fg.row_of(700), fg.row_of(10)]
        assert 10 in fg and 11 not in fg

    def test_huge_id_range_uses_searchsorted(self):
        g = AdjacencyGraph([(0, 10**12), (10**12, 5)])
        fg = FlatGraph.from_adjacency(g)
        assert fg.num_edges == 2
        assert fg.degrees()[fg.row_of(10**12)] == 2

    def test_non_int_vertices_fall_back(self):
        g = AdjacencyGraph([("a", "b"), ("b", "c")])
        fg = FlatGraph.from_adjacency(g)
        assert fg.n == 3 and fg.num_edges == 2
        assert fg.id_of(fg.row_of("c")) == "c"
        assert "a" in fg and "z" not in fg
        assert core_numbers(fg).max() == 1

    def test_empty_graph(self):
        fg = FlatGraph.from_adjacency(AdjacencyGraph())
        assert fg.n == 0 and fg.num_edges == 0
        assert core_numbers(fg).size == 0

    def test_missing_vertex_raises(self):
        fg = FlatGraph.from_adjacency(AdjacencyGraph([(1, 2)]))
        with pytest.raises(GraphError):
            fg.row_of(3)
        with pytest.raises(GraphError):
            fg.rows_of([1, 3])

    def test_select_ids_and_relabel(self):
        g = AdjacencyGraph([(4, 8), (8, 15)])
        fg = FlatGraph.from_adjacency(g)
        mask = np.asarray([fg.id_of(r) != 8 for r in range(fg.n)])
        assert sorted(fg.select_ids(mask)) == [4, 15]
        values = np.arange(fg.n)
        assert fg.relabel(values) == {
            fg.id_of(r): r for r in range(fg.n)
        }


def adjacency(graph) -> dict:
    return {v: graph.neighbors(v) for v in graph.vertices()}


def assert_cut_equals_subgraph(fg, graph, mask) -> None:
    cut = fg.to_adjacency(mask)
    keep = fg.ids if mask is None else fg.select_ids(mask)
    expected = graph.subgraph(keep)
    assert adjacency(cut) == adjacency(expected)
    assert cut.num_edges == expected.num_edges


class TestToAdjacency:
    """The CSR → adjacency cut equals ``AdjacencyGraph.subgraph``."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 30),
        st.sampled_from([0.0, 0.05, 0.15, 0.4]),
        st.integers(0, 10_000),
        st.sampled_from([1, 7]),
        st.data(),
    )
    def test_random_masks_match_subgraph(self, n, p, seed, stride, data):
        base = random_graph(n, p, seed=seed)  # isolated rows included
        graph = AdjacencyGraph()
        for v in base.vertices():
            graph.add_vertex(v * stride + 3)
        for u, v in base.edges():
            graph.add_edge(u * stride + 3, v * stride + 3)
        fg = FlatGraph.from_adjacency(graph)
        picks = data.draw(st.lists(st.booleans(), min_size=fg.n, max_size=fg.n))
        mask = np.asarray(picks, bool)
        assert_cut_equals_subgraph(fg, graph, mask)
        assert_cut_equals_subgraph(fg, graph, None)
        assert_cut_equals_subgraph(fg, graph, np.zeros(fg.n, bool))

    def test_zero_row_csr(self):
        fg = FlatGraph.from_adjacency(AdjacencyGraph())
        for mask in (None, np.zeros(0, bool)):
            cut = fg.to_adjacency(mask)
            assert cut.num_vertices == 0 and cut.num_edges == 0

    def test_unsorted_and_non_int_ids(self):
        graph = AdjacencyGraph([(9, 2), (2, 5), (5, 9), (5, 1)])
        fg = FlatGraph.from_arrays(
            **FlatGraph.from_adjacency(graph).to_arrays()
        )
        order = [2, 0, 3, 1]  # unsorted ids take the object gather
        ids = np.asarray(fg.ids)[order]
        inv = np.argsort(order)
        nbrs = [inv[fg.neighbor_rows(r)] for r in order]
        indptr = np.zeros(5, np.int64)
        np.cumsum([len(x) for x in nbrs], out=indptr[1:])
        shuffled = FlatGraph.from_arrays(indptr, np.concatenate(nbrs), ids)
        mask = np.asarray([v != 1 for v in ids.tolist()])
        assert_cut_equals_subgraph(shuffled, graph, mask)
        named = AdjacencyGraph([("a", "b"), ("b", "c")])
        fg = FlatGraph.from_adjacency(named)
        mask = np.asarray([v != "c" for v in fg.ids])
        assert_cut_equals_subgraph(fg, named, mask)

    def test_memmapped_arrays(self, tmp_path):
        graph = random_graph(40, 0.1, seed=11)
        arrays = FlatGraph.from_adjacency(graph).to_arrays()
        mapped = {}
        for name, arr in arrays.items():
            np.save(tmp_path / f"{name}.npy", arr)
            mapped[name] = np.load(tmp_path / f"{name}.npy", mmap_mode="r")
        fg = FlatGraph.from_arrays(**mapped)
        assert not fg.indices.flags.writeable  # a view of the mapping
        mask = np.asarray(core_numbers(fg) >= 2)
        assert_cut_equals_subgraph(fg, graph, mask)
        assert_cut_equals_subgraph(fg, graph, None)


def assert_sorted_cut(fg, mask) -> None:
    """``fg.sorted_subgraph(mask)`` is bit-identical to the dict detour."""
    cut = fg.sorted_subgraph(mask)
    want = search_flatgraph(fg.to_adjacency(mask))
    assert cut.ids == want.ids
    for name in ("indptr", "indices"):
        got, exp = getattr(cut, name), getattr(want, name)
        assert got.dtype == exp.dtype == np.int64
        assert np.array_equal(got, exp)
    assert cut.weights is None
    if cut.n:
        assert cut.row_of(cut.ids[-1]) == cut.n - 1


def toggled_csr(fg, rng, edits: int):
    """``fg`` after ``edits`` live insert/delete splices on random rows."""
    for _ in range(edits):
        if fg.n < 2:
            return fg
        u, v = (int(x) for x in rng.choice(fg.n, 2, replace=False))
        if v in fg.neighbor_rows(u):
            fg = delete_edge_rows(fg, u, v)
        else:
            fg = insert_edge_rows(fg, u, v)
    return fg


class TestSortedSubgraph:
    """The row-sorted CSR cut equals ``search_flatgraph`` of the
    ``to_adjacency`` cut, array for array."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 30),
        st.sampled_from([0.0, 0.05, 0.15, 0.4]),
        st.integers(0, 10_000),
        st.sampled_from([1, 7]),
        st.integers(0, 12),
        st.data(),
    )
    def test_random_masks_after_live_repairs(
        self, n, p, seed, stride, edits, data
    ):
        base = random_graph(n, p, seed=seed)  # isolated rows included
        graph = AdjacencyGraph()
        for v in base.vertices():
            graph.add_vertex(v * stride + 3)
        for u, v in base.edges():
            graph.add_edge(u * stride + 3, v * stride + 3)
        rng = np.random.default_rng(seed)
        fg = toggled_csr(FlatGraph.from_adjacency(graph), rng, edits)
        picks = data.draw(st.lists(st.booleans(), min_size=fg.n, max_size=fg.n))
        assert_sorted_cut(fg, np.asarray(picks, bool))
        assert_sorted_cut(fg, None)
        assert_sorted_cut(fg, np.zeros(fg.n, bool))
        if fg.n:
            single = np.zeros(fg.n, bool)
            single[data.draw(st.integers(0, fg.n - 1))] = True
            assert_sorted_cut(fg, single)

    def test_an_insert_splice_is_sorted_back(self):
        graph = AdjacencyGraph([(1, 9), (9, 5)])
        graph.add_vertex(3)
        fg = FlatGraph.from_adjacency(graph)
        fg = insert_edge_rows(fg, fg.row_of(9), fg.row_of(3))
        spliced = fg.neighbor_rows(fg.row_of(9)).tolist()
        assert spliced != sorted(spliced)  # appended after the old row
        cut = fg.sorted_subgraph(None)
        assert cut.neighbor_rows(cut.row_of(9)).tolist() == sorted(spliced)
        assert_sorted_cut(fg, None)

    def test_zero_row_csr(self):
        fg = FlatGraph.from_adjacency(AdjacencyGraph())
        for mask in (None, np.zeros(0, bool)):
            assert_sorted_cut(fg, mask)
            assert fg.sorted_subgraph(mask).n == 0

    def test_memmapped_arrays(self, tmp_path):
        graph = random_graph(40, 0.1, seed=11)
        fg = toggled_csr(
            FlatGraph.from_adjacency(graph), np.random.default_rng(3), 20
        )
        mapped = {}
        for name, arr in fg.to_arrays().items():
            np.save(tmp_path / f"{name}.npy", arr)
            mapped[name] = np.load(tmp_path / f"{name}.npy", mmap_mode="r")
        fg = FlatGraph.from_arrays(**mapped)
        assert not fg.indices.flags.writeable  # a view of the mapping
        assert_sorted_cut(fg, np.asarray(core_numbers(fg) >= 2))
        assert_sorted_cut(fg, None)
        cut = fg.sorted_subgraph(None)
        assert not isinstance(cut.indices, np.memmap)


class TestFromEdges:
    def test_unweighted_dedupes(self):
        fg = FlatGraph.from_edges([(5, 2), (2, 9), (9, 5), (2, 5)])
        assert fg.num_edges == 3
        assert sorted(fg.ids) == [2, 5, 9]

    def test_weighted_keeps_min_duplicate(self):
        fg = FlatGraph.from_edges([(1, 2, 3.0), (2, 3, 1.0), (2, 1, 2.0)])
        assert fg.num_edges == 2
        r = fg.row_of(1)
        j = int(np.nonzero(fg.neighbor_rows(r) == fg.row_of(2))[0][0])
        assert fg.weights[fg.indptr[r] + j] == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            FlatGraph.from_edges([(1, 1)])

    def test_empty(self):
        fg = FlatGraph.from_edges([])
        assert fg.n == 0


class TestFromRoad:
    def test_weights_round_trip(self, small_dataset):
        road = small_dataset.network.road
        fg = FlatGraph.from_road(road)
        assert fg.n == road.num_vertices
        assert fg.num_edges == road.num_edges
        rng = np.random.default_rng(0)
        verts = sorted(road.vertices())
        for v in rng.choice(verts, size=20):
            v = int(v)
            r = fg.row_of(v)
            got = {
                fg.id_of(int(c)): float(w)
                for c, w in zip(
                    fg.neighbor_rows(r),
                    fg.weights[fg.indptr[r]:fg.indptr[r + 1]],
                )
            }
            assert got == road.neighbors(v)

    def test_cached_and_invalidated(self):
        road = paper_road()
        fg1 = road.flat()
        assert road.flat() is fg1  # cached
        road.add_edge(1, 5, 2.0)
        fg2 = road.flat()
        assert fg2 is not fg1  # mutation invalidates
        assert fg2.num_edges == fg1.num_edges + 1
