"""Randomized equivalence: incremental k-core repair vs full re-peel.

Both the dict reference (``tests/oracles/kcore.py``) and the CSR row
kernels (:mod:`repro.kernels.livecore`) are driven through random
insert/delete walks over Erdős–Rényi graphs; after every step the
repaired coreness must equal a from-scratch Batagelj–Zaversnik
decomposition of the mutated graph (the reference BZ and the CSR
kernel respectively), and each repair's reported delta must be exactly
the set of vertices whose coreness moved (by ±1).
"""

import numpy as np
import pytest

from repro.kernels import FlatGraph
from repro.kernels.core import core_numbers
from repro.kernels.livecore import (
    delete_edge_rows,
    insert_edge_rows,
    repair_delete_rows,
    repair_insert_rows,
)
from tests.conftest import random_graph
from tests.oracles.kcore import core_decomposition, repair_delete, repair_insert


def random_walk_steps(graph, rng, steps):
    """Yield ``(u, v, insert?)`` steps, mutating ``graph`` as it goes."""
    vertices = sorted(graph)
    for _ in range(steps):
        u, v = (int(x) for x in rng.choice(vertices, size=2, replace=False))
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
            yield u, v, False
        else:
            graph.add_edge(u, v)
            yield u, v, True


class TestPythonRepair:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_walk_matches_full_repeel(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(30, 0.12, seed=seed + 100)
        coreness = core_decomposition(graph)
        for u, v, inserted in random_walk_steps(graph, rng, steps=120):
            before = dict(coreness)
            if inserted:
                changed = repair_insert(graph, coreness, u, v)
            else:
                changed = repair_delete(graph, coreness, u, v)
            expected = core_decomposition(graph)
            assert coreness == expected, (seed, u, v, inserted)
            # the delta is exactly the moved vertices, each by one
            moved = {w: c for w, c in expected.items() if before[w] != c}
            assert changed == moved
            assert all(abs(c - before[w]) == 1 for w, c in changed.items())

    def test_insert_into_triangle_promotes_it(self):
        # 4-cycle + chord: adding the second chord lifts all four to core 3
        graph = random_graph(4, 0.0, seed=0)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]:
            graph.add_edge(u, v)
        coreness = core_decomposition(graph)
        graph.add_edge(1, 3)
        changed = repair_insert(graph, coreness, 1, 3)
        assert coreness == {0: 3, 1: 3, 2: 3, 3: 3}
        assert set(changed) == {0, 1, 2, 3}


class TestFlatRepair:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_walk_matches_full_repeel(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(30, 0.12, seed=seed + 200)
        fg = FlatGraph.from_adjacency(graph)
        core = core_numbers(fg)
        row_of = {vid: row for row, vid in enumerate(fg.ids)}
        for u, v, inserted in random_walk_steps(graph, rng, steps=120):
            ru, rv = row_of[u], row_of[v]
            before = core.copy()
            if inserted:
                fg = insert_edge_rows(fg, ru, rv)
                core, changed = repair_insert_rows(fg, core, ru, rv)
            else:
                fg = delete_edge_rows(fg, ru, rv)
                core, changed = repair_delete_rows(fg, core, ru, rv)
            np.testing.assert_array_equal(
                core, core_numbers(fg), err_msg=str((seed, u, v, inserted))
            )
            moved = np.nonzero(core != before)[0]
            assert sorted(changed.tolist()) == moved.tolist()

    def test_splice_preserves_row_identity(self):
        graph = random_graph(12, 0.3, seed=5)
        fg = FlatGraph.from_adjacency(graph)
        u, v = 0, 1
        if not graph.has_edge(u, v):
            spliced = insert_edge_rows(fg, 0, 1)
        else:
            spliced = delete_edge_rows(fg, 0, 1)
        assert spliced.ids == fg.ids
        assert abs(spliced.indices.size - fg.indices.size) == 2

    def test_readonly_core_array_is_copied_not_mutated(self):
        # triangle + pendant: linking the pendant back in promotes it
        graph = random_graph(4, 0.0, seed=0)
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            graph.add_edge(u, v)
        fg = FlatGraph.from_adjacency(graph)
        core = core_numbers(fg)
        core.flags.writeable = False
        row_of = {vid: row for row, vid in enumerate(fg.ids)}
        r0, r3 = row_of[0], row_of[3]
        spliced = insert_edge_rows(fg, r0, r3)
        repaired, changed = repair_insert_rows(spliced, core, r0, r3)
        assert changed.size > 0
        assert repaired is not core  # copy-on-write, mmap never touched
        np.testing.assert_array_equal(repaired, core_numbers(spliced))


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_python_and_flat_walks_agree(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(25, 0.15, seed=seed)
        coreness = core_decomposition(graph)
        fg = FlatGraph.from_adjacency(graph)
        core = core_numbers(fg)
        row_of = {vid: row for row, vid in enumerate(fg.ids)}
        for u, v, inserted in random_walk_steps(graph, rng, steps=80):
            ru, rv = row_of[u], row_of[v]
            if inserted:
                repair_insert(graph, coreness, u, v)
                fg = insert_edge_rows(fg, ru, rv)
                core, _ = repair_insert_rows(fg, core, ru, rv)
            else:
                repair_delete(graph, coreness, u, v)
                fg = delete_edge_rows(fg, ru, rv)
                core, _ = repair_delete_rows(fg, core, ru, rv)
            assert {vid: int(core[row_of[vid]]) for vid in graph} == coreness
