"""Local search (Algorithms 3-5) tests: Expand invariants, the paper's
Verify walkthrough, soundness, and the LS/GS ratio experiment in miniature."""

import numpy as np
import pytest

from repro.core.api import gs_nc, ls_nc, ls_topj
from repro.core.local_search import LocalSearch, expand
from repro.core.peeling import nc_mac_at, top_j_at
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

H1 = frozenset({2, 3, 6, 7})
H3 = frozenset({2, 3, 4, 5, 6})


@pytest.fixture
def paper_setup(paper_region):
    htk = paper_social_graph().subgraph(range(1, 8))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    return htk, gd


class TestExpand:
    def test_candidates_are_k_cores_containing_q(self, paper_setup):
        htk, gd = paper_setup
        for strategy in ("eq3", "eq4"):
            for members in expand(
                search_flatgraph(htk), gd, [2, 3, 6], 3, strategy=strategy,
            ):
                sub = htk.subgraph(members)
                assert {2, 3, 6} <= members
                assert sub.min_degree() >= 3
                assert sub.is_connected()

    def test_candidates_grow(self, paper_setup):
        htk, gd = paper_setup
        candidates = expand(search_flatgraph(htk), gd, [2, 3, 6], 3)
        sizes = [len(c) for c in candidates]
        assert sizes == sorted(sizes)

    def test_unknown_strategy(self, paper_setup):
        htk, gd = paper_setup
        with pytest.raises(QueryError):
            expand(search_flatgraph(htk), gd, [2], 3, strategy="nope")

    def test_max_candidates_respected(self, paper_setup):
        htk, gd = paper_setup
        out = expand(search_flatgraph(htk), gd, [2], 2, max_candidates=2)
        assert len(out) <= 2


class TestVerifyPaperWalkthrough:
    """Section VI-B: H1 is valid on R1; H3 on R2 ∪ R3; H4 is invalid."""

    def test_h1_and_h3_certified(self, paper_setup, paper_region):
        htk, gd = paper_setup
        ls = LocalSearch(search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region)
        found = {e.best.members for e in ls.search_nc()}
        assert found == {H1, H3}

    def test_h4_rejected(self, paper_setup, paper_region):
        """H4 = {v1,v2,v3,v6,v7} is a 3-core but never a non-contained
        MAC inside R (its partition falls outside R)."""
        htk, gd = paper_setup
        h4 = frozenset({1, 2, 3, 6, 7})
        assert htk.subgraph(h4).min_degree() >= 3  # sanity: promising
        ls = LocalSearch(search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region)
        assert ls._verify_candidate(h4) == []

    def test_bound_pair_v4_v5(self, paper_setup):
        """v4 and v5 are bound to each other w.r.t. H1 (Corollary 3(3)):
        each survives only with the other present."""
        htk, gd = paper_setup
        ls = LocalSearch(search_flatgraph(htk), gd, [2, 3, 6], 3, gd.region)
        assert not ls._survives_alone(4, H1)
        assert not ls._survives_alone(5, H1)

    def test_partition_weights_agree_with_oracle(
        self, paper_setup, paper_region
    ):
        htk, gd = paper_setup
        ls = LocalSearch(search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region)
        for entry in ls.search_nc():
            w = entry.sample_weight()
            scores = {v: gd.score_at(v, w) for v in htk.vertices()}
            assert entry.best.members == nc_mac_at(htk, [2, 3, 6], 3, scores)


class TestSoundness:
    """LS never reports a community that GS would not (at its sample
    weight) — certification keeps it sound though incomplete."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ls_subset_of_gs(self, seed):
        rng = np.random.default_rng(seed + 31)
        graph = random_graph(14, 0.45, seed=seed * 11 + 2)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        from repro.core.global_search import GlobalSearch

        gs_found = {
            e.best.members
            for e in GlobalSearch(
                search_flatgraph(htk), gd, q, 3, region
            ).search_nc()
        }
        ls = LocalSearch(search_flatgraph(htk), gd, q, 3, region)
        ls_found = {e.best.members for e in ls.search_nc()}
        assert ls_found <= gs_found
        assert ls_found, "LS must find at least one NC-MAC"

    @pytest.mark.parametrize("seed", range(3))
    def test_ls_topj_matches_oracle_at_sample(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(13, 0.5, seed=seed * 3 + 8)
        q = [sorted(graph.vertices())[0]]
        htk = k_core_containing(graph, q, 3)
        if htk is None:
            pytest.skip("no k-core")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in htk.vertices()}
        gd = DominanceGraph(attrs, region)
        ls = LocalSearch(search_flatgraph(htk), gd, q, 3, region)
        for entry in ls.search_topj(3):
            w = entry.sample_weight()
            scores = {v: gd.score_at(v, w) for v in htk.vertices()}
            expected = top_j_at(htk, q, 3, scores, 3)
            assert [c.members for c in entry.communities] == expected


class TestEndToEndAPI:
    def test_ls_nc_paper_network(self, paper_network, paper_region):
        res = ls_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        assert {e.best.members for e in res.partitions} == {H1, H3}
        assert res.stats.candidates > 0

    def test_ls_matches_gs_on_paper_network(
        self, paper_network, paper_region
    ):
        """The miniature Fig. 12 experiment: ratio 100% here."""
        gs = gs_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        ls = ls_nc(paper_network, [2, 3, 6], 3, 9.0, paper_region)
        assert ls.nc_communities() == gs.nc_communities()

    def test_ls_topj_paper_network(self, paper_network, paper_region):
        res = ls_topj(paper_network, [2, 3, 6], 3, 9.0, paper_region, j=2)
        w = np.array([0.15, 0.3])
        entry = res.entry_at(w)
        assert entry is not None
        assert entry.communities[0].members == H1
        assert entry.communities[1].members == frozenset(range(2, 8))

    def test_strategies_equally_sound(self, paper_network, paper_region):
        for strategy in ("eq3", "eq4"):
            res = ls_nc(
                paper_network, [2, 3, 6], 3, 9.0, paper_region,
                strategy=strategy,
            )
            assert {e.best.members for e in res.partitions} == {H1, H3}
