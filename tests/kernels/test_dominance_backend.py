"""Oracle equivalence: r-dominance graph construction.

The matrix build (one (n, p) corner-score matrix, CSR parent gathers)
must produce the *identical* Hasse DAG — same insertion order, parents,
children, roots, and layers — as the pairwise python reference of
``tests/oracles/dominance.py``, on random attribute sets, degenerate
ties, and the bundled datasets.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import paper_attributes
from tests.oracles.dominance import ReferenceDominanceGraph
from repro.dominance.graph import DominanceGraph, build_dominance_graph
from repro.geometry.region import PreferenceRegion


def assert_same_dag(a: DominanceGraph, b: DominanceGraph) -> None:
    assert a.order == b.order
    assert a.parents == b.parents
    assert a.children == b.children
    assert a.roots == b.roots
    assert {v: a.layer(v) for v in a.vertices()} == {
        v: b.layer(v) for v in b.vertices()
    }


def build_pair(attrs, region, use_rtree=True):
    return (
        DominanceGraph(attrs, region, use_rtree=use_rtree),
        ReferenceDominanceGraph(attrs, region, use_rtree=use_rtree),
    )


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_attributes(self, seed, d):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        attrs = {
            v: rng.uniform(0.0, 10.0, size=d) for v in range(n)
        }
        center = [0.8 / d] * (d - 1)
        region = PreferenceRegion.centered(center, 0.05)
        flat, python = build_pair(attrs, region)
        assert_same_dag(flat, python)

    @pytest.mark.parametrize("use_rtree", [True, False])
    def test_paper_example(self, use_rtree):
        attrs = {
            v: x for v, x in paper_attributes().items() if v <= 7
        }
        region = PreferenceRegion([0.1, 0.2], [0.5, 0.4])
        flat, python = build_pair(attrs, region, use_rtree=use_rtree)
        assert_same_dag(flat, python)
        # Fig. 4(b): tops {2, 4, 6}
        assert sorted(flat.roots) == [2, 4, 6]

    def test_score_ties(self):
        # Identical attribute vectors r-dominate each other; the DAG
        # orients ties by insertion order in both builds.
        attrs = {
            0: np.asarray([2.0, 3.0, 1.0]),
            1: np.asarray([2.0, 3.0, 1.0]),
            2: np.asarray([1.0, 1.0, 1.0]),
            3: np.asarray([2.0, 3.0, 1.0]),
        }
        region = PreferenceRegion([0.2, 0.2], [0.4, 0.4])
        flat, python = build_pair(attrs, region)
        assert_same_dag(flat, python)
        assert len(flat.roots) == 1

    def test_single_vertex(self):
        region = PreferenceRegion([0.2], [0.4])
        flat, python = build_pair({7: np.asarray([1.0, 2.0])}, region)
        assert_same_dag(flat, python)
        assert flat.roots == [7]

    def test_one_dimensional_attributes(self):
        region = PreferenceRegion(np.zeros(0), np.zeros(0))
        attrs = {v: np.asarray([float(v % 5)]) for v in range(20)}
        flat, python = build_pair(attrs, region)
        assert_same_dag(flat, python)

    def test_bundled_dataset_core(self, small_dataset):
        net = small_dataset.network
        q = small_dataset.suggest_query(
            2, k=4, t=small_dataset.default_t
        )
        core = net.maximal_kt_core(q, 4, small_dataset.default_t)
        attrs = net.social.attributes_for(core.graph.vertices())
        region = PreferenceRegion.centered([0.3, 0.3], 0.01)
        flat, python = build_pair(attrs, region)
        assert_same_dag(flat, python)

    def test_subset_sweeps_agree(self):
        rng = np.random.default_rng(42)
        attrs = {v: rng.uniform(0, 5, size=3) for v in range(60)}
        region = PreferenceRegion.centered([0.3, 0.3], 0.02)
        flat, python = build_pair(attrs, region)
        subset = list(range(0, 60, 3))
        assert flat.leaves_within(subset) == python.leaves_within(subset)
        assert flat.tops_within(subset) == python.tops_within(subset)
        for v in (0, 30, 59):
            assert flat.ancestors(v) == python.ancestors(v)
            assert flat.descendants(v) == python.descendants(v)

    def test_build_helper_and_bad_backend(self):
        rng = np.random.default_rng(0)
        attrs = {v: rng.uniform(0, 5, size=2) for v in range(10)}
        region = PreferenceRegion([0.2], [0.4])
        gd = build_dominance_graph(list(range(10)), attrs, region)
        assert gd.num_vertices == 10
        # The matrix build is the only one: there is no backend option.
        with pytest.raises(TypeError):
            DominanceGraph(attrs, region, backend="vectorized")
