"""Global search (Algorithm 1) tests: the paper's running example
end-to-end, partition coverage, and oracle cross-validation."""

import numpy as np
import pytest

from repro.core.api import gs_nc, gs_topj
from repro.core.global_search import GlobalSearch
from repro.core.peeling import nc_mac_at, top_j_at
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion
from repro.kernels.search import search_flatgraph

from tests.conftest import (
    paper_attributes,
    paper_social_graph,
    random_graph,
)

H1 = frozenset({2, 3, 6, 7})
H2 = frozenset({2, 3, 4, 5, 6, 7})
H3 = frozenset({2, 3, 4, 5, 6})
HTK = frozenset(range(1, 8))


@pytest.fixture
def paper_setup(paper_region):
    htk = paper_social_graph().subgraph(range(1, 8))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    return htk, gd


class TestPaperExample:
    def test_nc_macs_are_h1_and_h3(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        entries = search.search_nc()
        found = {e.best.members for e in entries}
        assert found == {H1, H3}

    def test_h3_wins_at_02_03_and_h1_at_019_03(
        self, paper_setup, paper_region
    ):
        """Example 3's headline: a 0.01 weight shift flips the answer."""
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        entries = search.search_nc()

        def best_at(w):
            w = np.asarray(w)
            for e in entries:
                if e.cell.contains(w):
                    return e.best.members
            return None

        assert best_at([0.2, 0.3]) == H3
        assert best_at([0.19, 0.3]) == H1

    def test_top2_in_r1(self, paper_setup, paper_region):
        """Example 2: the top-2 MACs for w in R1 are H1 then H2."""
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        entries = search.search_topj(2)
        w = np.array([0.15, 0.3])
        entry = next(e for e in entries if e.cell.contains(w))
        assert [c.members for c in entry.communities] == [H1, H2]

    def test_partitions_cover_region(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        entries = search.search_nc()
        rng = np.random.default_rng(0)
        for w in paper_region.sample(rng, 60):
            owners = [e for e in entries if e.cell.contains(w, tol=1e-9)]
            assert owners, f"no partition contains {w}"

    def test_every_result_is_a_kt_core(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        for e in search.search_nc():
            sub = htk.subgraph(e.best.members)
            assert sub.min_degree() >= 3
            assert sub.is_connected()
            assert {2, 3, 6} <= e.best.members

    def test_stats_populated(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        entries = search.search_nc()
        assert search.stats.partitions == len(entries)
        assert search.stats.peel_rounds > 0

    def test_max_partitions_budget(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
            max_partitions=1,
        )
        with pytest.raises(QueryError):
            search.run()

    def test_invalid_j(self, paper_setup, paper_region):
        htk, gd = paper_setup
        search = GlobalSearch(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
        )
        with pytest.raises(QueryError):
            search.search_topj(0)


class TestOracleCrossValidation:
    """The decisive correctness test: for random graphs and random
    weights, the partition output must agree with exact point peeling."""

    @pytest.mark.parametrize("seed", range(8))
    def test_nc_agrees_with_oracle(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(14, 0.45, seed=seed * 7 + 1)
        k = 3
        from repro.graph.core import k_core_containing

        pool = sorted(graph.vertices())
        q = [pool[rng.integers(len(pool))]]
        htk = k_core_containing(graph, q, k)
        if htk is None:
            pytest.skip("no k-core for this seed")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        search = GlobalSearch(search_flatgraph(htk), gd, q, k, region)
        entries = search.search_nc()

        def scores_at(w):
            return {v: gd.score_at(v, w) for v in htk.vertices()}

        for w in region.sample(rng, 25):
            owners = [e for e in entries if e.cell.contains(w, tol=1e-9)]
            assert owners
            expected = nc_mac_at(htk, q, k, scores_at(w))
            matching = [
                e for e in owners if e.best.members == expected
            ]
            # w may sit on a boundary between partitions; at least one
            # owner must agree with the oracle.
            assert matching, (
                f"w={w}: oracle={sorted(expected)}, "
                f"got={[sorted(e.best.members) for e in owners]}"
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_topj_agrees_with_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        graph = random_graph(12, 0.5, seed=seed * 13 + 5)
        from repro.graph.core import k_core_containing

        pool = sorted(graph.vertices())
        q = [pool[rng.integers(len(pool))]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no k-core for this seed")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        j = 3
        search = GlobalSearch(search_flatgraph(htk), gd, q, 3, region)
        entries = search.search_topj(j)
        for w in region.sample(rng, 15):
            owners = [e for e in entries if e.cell.contains(w, tol=1e-9)]
            assert owners
            scores = {v: gd.score_at(v, w) for v in htk.vertices()}
            expected = top_j_at(htk, q, 3, scores, j)
            assert any(
                [c.members for c in e.communities] == expected
                for e in owners
            )


class TestOneDimensionalAttributes:
    """d = 1 degenerates to influential-community peeling (single cell)."""

    def test_single_partition(self):
        graph = random_graph(12, 0.5, seed=3)
        from repro.graph.core import k_core_containing

        q = [0]
        htk = k_core_containing(graph, q, 3)
        assert htk is not None
        region = PreferenceRegion()
        rng = np.random.default_rng(1)
        attrs = {v: rng.uniform(0, 10, 1) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        search = GlobalSearch(search_flatgraph(htk), gd, q, 3, region)
        entries = search.search_nc()
        assert len(entries) == 1
        scores = {v: float(attrs[v][0]) for v in htk.vertices()}
        assert entries[0].best.members == nc_mac_at(htk, q, 3, scores)


class TestEndToEndAPI:
    def test_gs_nc_paper_network(self, paper_network, paper_region):
        res = gs_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        assert res.htk_vertices == 7
        assert {e.best.members for e in res.partitions} == {H1, H3}

    def test_gs_topj_paper_network(self, paper_network, paper_region):
        res = gs_topj(paper_network, [2, 3, 6], 3, 9.0, paper_region, j=2)
        entry = res.entry_at(np.array([0.15, 0.3]))
        assert entry is not None
        assert [c.members for c in entry.communities] == [H1, H2]

    def test_unsatisfiable_query_is_empty(self, paper_network, paper_region):
        res = gs_nc(paper_network, [2, 3, 6], 5, 9.0, paper_region)
        assert res.is_empty

    def test_tight_t_shrinks_htk(self, paper_network, paper_region):
        """t = 7 keeps only vertices within 7 of every query location."""
        res = gs_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        res_tight = gs_nc(paper_network, [2, 6], 2, 5.0, paper_region)
        assert res_tight.htk_vertices <= res.htk_vertices
