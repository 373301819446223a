"""Refinement-mode tests: the lower-envelope ablation must return the
same non-contained MACs as the paper's full arrangement, plus recoverable
cascade round-trips and time-budget failure injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.global_search import GlobalSearch
from repro.core.peeling import (
    cascade_delete_recoverable,
    restore_removed,
)
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion
from repro.graph.core import k_core_containing
from repro.kernels.search import search_flatgraph

from tests.conftest import (
    paper_attributes,
    paper_social_graph,
    random_graph,
)


@pytest.fixture
def paper_setup(paper_region):
    """H^t_k of the running example (as the searchers' CSR) and its Gd."""
    htk = search_flatgraph(paper_social_graph().subgraph(range(1, 8)))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    return htk, gd


class TestEnvelopeEquivalence:
    def test_paper_example_same_nc_macs(self, paper_setup, paper_region):
        htk, gd = paper_setup
        by_mode = {}
        for mode in ("arrangement", "envelope"):
            search = GlobalSearch(
                htk, gd, [2, 3, 6], 3, paper_region, refinement=mode
            )
            by_mode[mode] = {
                e.best.members for e in search.search_nc()
            }
        assert by_mode["arrangement"] == by_mode["envelope"]

    def test_envelope_produces_fewer_or_equal_partitions(
        self, paper_setup, paper_region
    ):
        htk, gd = paper_setup
        counts = {}
        for mode in ("arrangement", "envelope"):
            search = GlobalSearch(
                htk, gd, [2, 3, 6], 3, paper_region, refinement=mode
            )
            counts[mode] = len(search.search_nc())
        assert counts["envelope"] <= counts["arrangement"]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_same_nc_macs(self, seed):
        rng = np.random.default_rng(seed + 200)
        graph = random_graph(13, 0.5, seed=seed * 17 + 3)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no 3-core")
        region = PreferenceRegion([0.2, 0.2], [0.45, 0.45])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        found = {}
        for mode in ("arrangement", "envelope"):
            search = GlobalSearch(
                search_flatgraph(htk), gd, q, 3, region, refinement=mode,
            )
            found[mode] = {e.best.members for e in search.search_nc()}
        assert found["arrangement"] == found["envelope"]

    def test_unknown_refinement(self, paper_setup, paper_region):
        htk, gd = paper_setup
        with pytest.raises(QueryError):
            GlobalSearch(
                htk, gd, [2], 2, paper_region, refinement="zigzag"
            )


class TestTimeBudget:
    def test_zero_budget_raises(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            htk, gd, [2, 3, 6], 3, paper_region, time_budget=0.0
        )
        # The guard fires every 16 tasks; small instances may finish
        # before the first check, so force many tasks via a wide region.
        wide = PreferenceRegion([0.05, 0.05], [0.55, 0.42])
        gd_wide = DominanceGraph(
            {v: x for v, x in paper_attributes().items() if v <= 7}, wide
        )
        search = GlobalSearch(
            htk, gd_wide, [2], 2, wide, time_budget=0.0
        )
        try:
            entries = search.run()
        except QueryError:
            return  # budget enforced
        # tiny instance finished under 16 tasks: acceptable, but sane
        assert entries


class TestRecoverableCascade:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 5_000), st.integers(1, 4))
    def test_delete_restore_roundtrip(self, seed, k):
        g = random_graph(14, 0.3, seed=seed)
        before_vertices = set(g.vertices())
        before_edges = sorted(map(tuple, map(sorted, g.edges())))
        trigger = sorted(g.vertices())[seed % 14]
        removed = cascade_delete_recoverable(g, trigger, k)
        assert trigger not in g
        restore_removed(g, removed)
        assert set(g.vertices()) == before_vertices
        assert sorted(map(tuple, map(sorted, g.edges()))) == before_edges

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 5_000), st.integers(2, 4))
    def test_cascade_leaves_k_core(self, seed, k):
        """After a cascade, survivors form a graph of min degree >= k."""
        g = random_graph(14, 0.45, seed=seed)
        from repro.graph.core import peel_to_k_core

        core = peel_to_k_core(g, k)
        if core.num_vertices == 0:
            return
        trigger = sorted(core.vertices())[0]
        cascade_delete_recoverable(core, trigger, k)
        if core.num_vertices:
            assert core.min_degree() >= k
