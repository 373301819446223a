"""Flat-kernel search loops are asserted equivalent to the python
reference paths: same partitions, same cells, same communities, same
ordering — on the paper's running example and on random graphs.  GS
runs both of its loops (each forced through the ``force_path`` seam);
LS runs its one loop against the dict reference of
``tests/oracles/local_search.py``."""

import numpy as np
import pytest

from repro.core.global_search import GlobalSearch
from repro.core.local_search import LocalSearch
from repro.dominance.graph import DominanceGraph
from repro.geometry.region import PreferenceRegion
from repro.graph.core import k_core_containing
from repro.kernels.search import search_flatgraph

from tests.conftest import (
    on_both_sides,
    paper_attributes,
    paper_social_graph,
    random_graph,
)
from tests.core.test_prefix_cores import tied_attributes
from tests.oracles.local_search import ReferenceLocalSearch


def signature(partitions):
    """Order-sensitive digest of a search outcome: cells + communities."""
    return [
        (
            tuple(np.round(entry.sample_weight(), 9).tolist()),
            tuple(
                (tuple(sorted(c.members)), c.partial)
                for c in entry.communities
            ),
        )
        for entry in partitions
    ]


@pytest.fixture
def paper_setup(paper_region):
    htk = paper_social_graph().subgraph(range(1, 8))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    return htk, gd


class TestPaperExampleEquivalence:
    @pytest.mark.parametrize("problem,j", [("nc", 1), ("topj", 1), ("topj", 3)])
    @pytest.mark.parametrize("refinement", ["arrangement", "envelope"])
    def test_global(
        self, paper_setup, paper_region, force_path, problem, j, refinement
    ):
        htk, gd = paper_setup
        flat = search_flatgraph(htk)

        def run():
            search = GlobalSearch(
                flat, gd, [2, 3, 6], 3, paper_region, refinement=refinement,
            )
            if problem == "nc":
                return search.search_nc()
            return search.search_topj(j)

        a, b = on_both_sides(force_path, run)
        assert signature(a) == signature(b)

    @pytest.mark.parametrize("problem,j", [("nc", 1), ("topj", 2)])
    @pytest.mark.parametrize("strategy", ["eq3", "eq4"])
    @pytest.mark.parametrize("certification", ["fast", "chain"])
    def test_local(
        self, paper_setup, paper_region, problem, j, strategy, certification
    ):
        htk, gd = paper_setup
        flat = search_flatgraph(htk)

        def run(searcher):
            search = searcher(
                flat, gd, [2, 3, 6], 3, paper_region,
                strategy=strategy, certification=certification,
            )
            if problem == "nc":
                return search.search_nc()
            return search.search_topj(j)

        assert signature(run(LocalSearch)) == signature(
            run(ReferenceLocalSearch)
        )


class TestRandomGraphEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_global_topj(self, seed, force_path):
        rng = np.random.default_rng(seed + 5)
        graph = random_graph(24, 0.3, seed=seed * 7 + 1)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 2)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        flat = search_flatgraph(htk)

        def run():
            return GlobalSearch(
                flat, gd, q, 2, region, refinement="envelope",
            ).search_topj(3)

        a, b = on_both_sides(force_path, run)
        assert signature(a) == signature(b)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("strategy", ["eq3", "eq4"])
    def test_local_nc(self, seed, strategy):
        rng = np.random.default_rng(seed + 17)
        graph = random_graph(24, 0.3, seed=seed * 13 + 3)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 2)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        flat = search_flatgraph(htk)

        def run(searcher):
            return searcher(
                flat, gd, q, 2, region, strategy=strategy,
            ).search_nc()

        assert signature(run(LocalSearch)) == signature(
            run(ReferenceLocalSearch)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_local_chain_certification(self, seed):
        rng = np.random.default_rng(seed + 29)
        graph = random_graph(18, 0.4, seed=seed * 5 + 9)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        flat = search_flatgraph(htk)

        def run(searcher):
            return searcher(
                flat, gd, q, 3, region, certification="chain",
            ).search_topj(2)

        assert signature(run(LocalSearch)) == signature(
            run(ReferenceLocalSearch)
        )


class TestTiedAttributeRows:
    """Both GS loops on attribute ties: equal rows (which Gd orients by
    insertion order) and one-decimal rows whose scores tie."""

    @pytest.mark.parametrize("copies", [[(4, 5)], [(4, 5), (7, 3), (1, 6)]])
    @pytest.mark.parametrize("problem,j", [("nc", 1), ("topj", 3)])
    def test_paper_example(self, paper_region, force_path, copies, problem, j):
        htk = paper_social_graph().subgraph(range(1, 8))
        attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
        for v, u in copies:
            attrs[v] = attrs[u].copy()
        gd = DominanceGraph(attrs, paper_region)
        flat = search_flatgraph(htk)

        def run():
            search = GlobalSearch(flat, gd, [2, 3, 6], 3, paper_region)
            if problem == "nc":
                return search.search_nc()
            return search.search_topj(j)

        a, b = on_both_sides(force_path, run)
        assert a and signature(a) == signature(b)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, force_path, seed):
        graph = random_graph(22, 0.35, seed=seed * 11 + 2)
        q = [sorted(graph.vertices())[seed % 3]]
        htk = k_core_containing(graph, q, 2)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        gd = DominanceGraph(tied_attributes(htk.vertices(), 3, seed), region)
        flat = search_flatgraph(htk)

        def run():
            return GlobalSearch(
                flat, gd, q, 2, region, refinement="envelope",
            ).search_topj(2)

        a, b = on_both_sides(force_path, run)
        assert signature(a) == signature(b)
