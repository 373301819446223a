"""k-truss MAC extension tests (the Section II-B "Remarks")."""

import numpy as np
import pytest

from repro.core.peeling import restore_removed
from repro.core.truss_mac import (
    TrussGlobalSearch,
    maximal_kt_truss,
    truss_cascade_recoverable,
    truss_deletion_chain,
    truss_mac_at,
    truss_mac_search,
)
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.truss import k_truss_containing
from repro.kernels.search import search_flatgraph

from tests.conftest import (
    paper_attributes,
    paper_social_graph,
    random_graph,
)


def _paper_truss(k=4):
    """The maximal connected k-truss around Q={2,6} in Fig. 1(a)."""
    return k_truss_containing(paper_social_graph(), [2, 6], k)


def _scores(w):
    attrs = paper_attributes()
    w = np.asarray(w)
    return {
        v: float(x[-1] + np.dot(w, x[:-1] - x[-1]))
        for v, x in attrs.items()
    }


class TestTrussCascade:
    def test_cascade_keeps_truss_property(self):
        g = _paper_truss().copy()
        victim = next(v for v in g.vertices() if v not in (2, 6))
        truss_cascade_recoverable(g, victim, 4)
        if g.num_vertices:
            from repro.graph.truss import k_truss

            survivors = k_truss(g, 4)
            assert set(survivors.vertices()) == set(g.vertices())

    def test_cascade_is_recoverable(self):
        g = _paper_truss().copy()
        before_edges = sorted(map(sorted, g.edges()))
        victim = next(v for v in g.vertices() if v not in (2, 6))
        removed = truss_cascade_recoverable(g, victim, 4)
        restore_removed(g, removed)
        assert sorted(map(sorted, g.edges())) == before_edges

    def test_missing_trigger(self):
        g = AdjacencyGraph([(1, 2)])
        assert truss_cascade_recoverable(g, 99, 3) == []


class TestTrussChain:
    def test_chain_members_are_connected_trusses(self):
        truss = _paper_truss()
        chain, batches = truss_deletion_chain(
            truss, [2, 6], 4, _scores([0.2, 0.3])
        )
        g = paper_social_graph()
        for community in chain:
            sub = g.subgraph(community)
            assert sub.is_connected()
            core = k_truss_containing(sub, [2, 6], 4)
            assert core is not None
            assert set(core.vertices()) == community
        for earlier, later, batch in zip(chain, chain[1:], batches):
            assert batch == frozenset(earlier - later)

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            truss_deletion_chain(_paper_truss(), [], 4, _scores([0.2, 0.3]))

    def test_truss_mac_is_final(self):
        truss = _paper_truss()
        scores = _scores([0.2, 0.3])
        chain, _ = truss_deletion_chain(truss, [2, 6], 4, scores)
        assert truss_mac_at(truss, [2, 6], 4, scores) == frozenset(chain[-1])


class TestTrussGlobalSearch:
    def test_agrees_with_truss_oracle(self, paper_region):
        truss = _paper_truss()
        attrs = {
            v: x for v, x in paper_attributes().items() if v in truss
        }
        gd = DominanceGraph(attrs, paper_region)
        search = TrussGlobalSearch(
            search_flatgraph(truss), gd, [2, 6], 4, paper_region,
        )
        entries = search.search_nc()
        rng = np.random.default_rng(0)
        for w in paper_region.sample(rng, 15):
            owners = [
                e for e in entries if e.cell.contains(np.asarray(w), 1e-9)
            ]
            assert owners
            scores = {v: gd.score_at(v, w) for v in truss.vertices()}
            expected = truss_mac_at(truss, [2, 6], 4, scores)
            assert any(e.best.members == expected for e in owners)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(12, 0.55, seed=seed + 70)
        q = [sorted(g.vertices())[0]]
        truss = k_truss_containing(g, q, 4)
        if truss is None:
            pytest.skip("no 4-truss")
        region = PreferenceRegion([0.25, 0.25], [0.40, 0.40])
        attrs = {v: rng.uniform(0, 10, 3) for v in truss.vertices()}
        gd = DominanceGraph(attrs, region)
        entries = TrussGlobalSearch(
            search_flatgraph(truss), gd, q, 4, region
        ).search_nc()
        for e in entries:
            w = e.sample_weight()
            scores = {v: gd.score_at(v, w) for v in truss.vertices()}
            assert e.best.members == truss_mac_at(truss, q, 4, scores)


class TestEndToEnd:
    def test_maximal_kt_truss(self, paper_network):
        truss = maximal_kt_truss(paper_network, [2, 6], 4, 9.0)
        assert truss is not None
        assert {2, 3, 6, 7} <= set(truss.vertices())
        assert maximal_kt_truss(paper_network, [2, 6], 6, 9.0) is None

    def test_truss_mac_search(self, paper_network, paper_region):
        entries = truss_mac_search(
            paper_network, [2, 6], 4, 9.0, paper_region
        )
        assert entries
        for e in entries:
            assert {2, 6} <= e.best.members

    def test_unknown_problem(self, paper_network, paper_region):
        with pytest.raises(QueryError):
            truss_mac_search(
                paper_network, [2, 6], 4, 9.0, paper_region, problem="x"
            )

    def test_infeasible_is_empty(self, paper_network, paper_region):
        assert (
            truss_mac_search(paper_network, [14], 4, 9.0, paper_region)
            == []
        )
