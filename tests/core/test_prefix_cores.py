"""The LS threshold-probing sweep: prefix entry sizes, the prefix walk,
the vectorized score ranking, and candidate-list equality with the
re-peeling reference in ``tests/oracles/threshold_probing.py``."""

import numpy as np
import pytest

import repro.core.local_search as local_search
from repro.core.local_search import LocalSearch
from repro.datasets import load_dataset
from repro.datasets.attributes import generate_attributes
from repro.dominance.graph import DominanceGraph
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import k_core_containing, peel_to_k_core
from repro.kernels.search import (
    prefix_communities,
    prefix_entry_sizes,
    prefix_sets_agree,
    search_flatgraph,
)

from tests.conftest import paper_attributes, paper_social_graph, random_graph
from tests.oracles.local_search import ReferenceLocalSearch
from tests.oracles.threshold_probing import threshold_candidates


def ranked_ids(gd, ids, w):
    return sorted(ids, key=lambda v: (-gd.score_at(v, w), v))


def tied_attributes(vertices, d, seed):
    """One-decimal attributes: many equal rows, and many distinct rows
    whose scores tie in exact arithmetic but round differently."""
    rng = np.random.default_rng(seed)
    return {v: rng.integers(0, 10, d) / 10 for v in vertices}


def two_clusters() -> AdjacencyGraph:
    """Two disjoint 4-cliques joined by a path through a degree-2 row."""
    g = AdjacencyGraph()
    for base in (0, 10):
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(base + i, base + j)
    g.add_edge(3, 20)
    g.add_edge(20, 10)
    return g


# ----------------------------------------------------------------------
# entry sizes and the prefix walk against brute-force re-peeling
# ----------------------------------------------------------------------
class TestEntrySizes:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_core_of_every_prefix(self, seed, k):
        graph = random_graph(22, 0.3, seed=seed * 17 + k)
        fg = search_flatgraph(graph)
        order = np.random.default_rng(seed).permutation(fg.n)
        entry = prefix_entry_sizes(fg, order, k)
        for size in range(fg.n + 1):
            prefix = [fg.ids[r] for r in order[:size]]
            core = set(peel_to_k_core(graph.subgraph(prefix), k).vertices())
            assert set(fg.select_ids(entry <= size)) == core

    def test_zero_k_enters_at_its_position(self):
        fg = search_flatgraph(random_graph(8, 0.3, seed=1))
        order = np.arange(fg.n)[::-1]
        assert prefix_entry_sizes(fg, order, 0)[order].tolist() == list(
            range(1, fg.n + 1)
        )

    def test_rows_outside_every_core_never_enter(self):
        fg = search_flatgraph(two_clusters())
        entry = prefix_entry_sizes(fg, np.arange(fg.n), 3)
        assert entry[fg.row_of(20)] == fg.n + 1


def brute_force_walk(graph, order_ids, query, k, step):
    """(size, k-ĉore) at each new community along lo, lo + step, ..."""
    n = len(order_ids)

    def core_of(size):
        core = k_core_containing(graph.subgraph(order_ids[:size]), query, k)
        return None if core is None else frozenset(core.vertices())

    lo = next((s for s in range(k + 1, n + 1) if core_of(s)), None)
    if lo is None:
        return []
    out, previous = [], None
    for size in range(lo, n + step, step):
        fs = core_of(min(size, n))
        if fs != previous:
            out.append((min(size, n), fs))
            previous = fs
    return out


class TestPrefixWalk:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [1, 2])
    def test_matches_brute_force(self, seed, k, step):
        graph = random_graph(20, 0.35, seed=seed * 29 + k)
        fg = search_flatgraph(graph)
        rng = np.random.default_rng(seed + 100)
        query = sorted(rng.choice(fg.n, size=1 + seed % 3, replace=False))
        query = [fg.ids[r] for r in query]
        order = rng.permutation(fg.n)
        entry = prefix_entry_sizes(fg, order, k)
        walk = [
            (size, frozenset(fg.select_ids(comp)))
            for size, comp in prefix_communities(
                fg, entry, fg.rows_of(query), k, step
            )
        ]
        order_ids = [fg.ids[r] for r in order]
        assert walk == brute_force_walk(graph, order_ids, query, k, step)

    def test_query_split_across_components(self):
        graph = two_clusters()
        fg = search_flatgraph(graph)
        qrows = fg.rows_of([0, 10])
        for order in (np.arange(fg.n), np.arange(fg.n)[::-1]):
            entry = prefix_entry_sizes(fg, order, 3)
            assert list(prefix_communities(fg, entry, qrows, 3, 2)) == []
        # The 2-core joins them through vertex 20 once it is ranked in.
        entry = prefix_entry_sizes(fg, np.arange(fg.n), 2)
        (size, comp), *_ = prefix_communities(fg, entry, qrows, 2, 2)
        assert size == fg.n and comp.all()

    def test_query_outside_the_core(self):
        fg = search_flatgraph(two_clusters())
        entry = prefix_entry_sizes(fg, np.arange(fg.n), 3)
        assert list(prefix_communities(fg, entry, fg.rows_of([20]), 3, 2)) == []

    def test_prefix_sets_agree(self):
        a = np.array([0, 1, 2, 3, 4])
        b = np.array([1, 0, 2, 4, 3])
        assert prefix_sets_agree(a, b, [0, 2, 3, 5])
        assert not prefix_sets_agree(a, b, [1])
        assert not prefix_sets_agree(a, b, [2, 4])


# ----------------------------------------------------------------------
# the vectorized ranking is score_at's ranking, bit for bit
# ----------------------------------------------------------------------
class TestRankings:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["real", "independent", "tied"])
    def test_equals_sorted_score_at(self, d, kind):
        n = 300
        if kind == "tied":
            attrs = tied_attributes(range(n), d, seed=d)
        else:
            matrix = generate_attributes(n, d, kind=kind, seed=d)
            attrs = {v: matrix[v] for v in range(n)}
        region = PreferenceRegion([0.05] * (d - 1), [0.2] * (d - 1))
        gd = DominanceGraph(attrs, region)
        rng = np.random.default_rng(d)
        weights = [region.pivot(), *region.corners()]
        # Decimal weights: exact-arithmetic ties between distinct rows.
        weights += [np.full(d - 1, 0.1), np.full(d - 1, 1.0 / d)]
        weights += [rng.dirichlet(np.ones(d))[:-1] for _ in range(4)]
        ids = sorted(attrs)
        batched = gd.rankings(weights, ids)
        for w, order in zip(weights, batched):
            expected = ranked_ids(gd, ids, w)
            assert [ids[i] for i in order] == expected
            # One weight at a time takes numpy's matrix-vector product,
            # which rounds unlike score_at's dot on these inputs.
            (single,) = gd.rankings([w], ids)
            assert [ids[i] for i in single] == expected

    def test_empty_inputs(self, paper_region):
        gd = DominanceGraph(
            {v: x for v, x in paper_attributes().items() if v <= 7},
            paper_region,
        )
        assert gd.rankings([], [1, 2]) == []
        assert gd.rankings([paper_region.pivot()], [])[0].size == 0


# ----------------------------------------------------------------------
# candidate lists equal the re-peeling reference
# ----------------------------------------------------------------------
def both_backends(htk, gd, query, k, region, **kwargs):
    """The flat loop and the dict reference loop over the same inputs."""
    flat = search_flatgraph(htk)
    for searcher in (LocalSearch, ReferenceLocalSearch):
        yield searcher(flat, gd, query, k, region, **kwargs)


class TestCandidateEquality:
    def test_paper_example(self, paper_region):
        htk = paper_social_graph().subgraph(range(1, 8))
        attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
        gd = DominanceGraph(attrs, paper_region)
        for ls in both_backends(htk, gd, [2, 3, 6], 3, paper_region):
            got = ls._threshold_candidates()
            assert got and got == threshold_candidates(ls)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_graphs(self, seed, k):
        graph = random_graph(30, 0.3, seed=seed * 7 + k)
        rng = np.random.default_rng(seed)
        query = sorted(int(v) for v in rng.choice(30, 1 + seed % 3, replace=False))
        # H^t_k stand-in: the graph itself, so Q may lie outside any
        # k-core or split across its components.
        attrs = (
            tied_attributes(graph.vertices(), 3, seed)
            if seed % 2
            else {v: rng.uniform(0, 10, 3) for v in graph.vertices()}
        )
        region = PreferenceRegion([0.2, 0.25], [0.45, 0.4])
        gd = DominanceGraph(attrs, region)
        for ls in both_backends(graph, gd, query, k, region):
            for per_probe, step in ((6, 2), (2, 1), (30, 3)):
                assert ls._threshold_candidates(
                    per_probe, step
                ) == threshold_candidates(ls, per_probe, step)


@pytest.fixture(scope="module")
def yelp_shapes():
    """H^t_k, Gd and request of the served ``miss`` LS shapes on fl+yelp
    0.5: the ``ls-mix`` requests and the ``wide`` (k=3, big-t) ones."""
    ds = load_dataset("fl+yelp", scale=0.5, seed=7)
    t = ds.default_t * 0.5 ** 0.5
    d = ds.network.social.dimensionality
    region = PreferenceRegion.centered([0.9 / d] * (d - 1), 0.01)
    specs = [(4, 6, 1.0, seed) for seed in (1, 2, 3)] + [(3, 5, 1.0, 1)]
    specs += [(1, 3, 4.0, 1), (2, 3, 2.0, 1), (2, 3, 4.0, 1), (4, 3, 4.0, 1)]
    shapes = []
    for size, k, tmul, seed in specs:
        query = ds.suggest_query(size, k=k, t=t * tmul, seed=seed)
        core = ds.network.maximal_kt_core(query, k, t * tmul)
        htk = core.graph
        attrs = ds.network.social.attributes_for(htk.vertices())
        shapes.append((htk, DominanceGraph(attrs, region), query, k, region))
    return shapes


def fresh_copy(ls):
    """A new searcher on ``ls``'s inputs (no memo carried over)."""
    return type(ls)(
        ls.flat, ls.gd, ls.query, ls.k, ls.region, strategy=ls.strategy
    )


class TestServedShapes:
    def test_candidates_match_reference(self, yelp_shapes):
        for htk, gd, query, k, region in yelp_shapes:
            for ls in both_backends(htk, gd, query, k, region):
                assert ls._threshold_candidates() == threshold_candidates(ls)

    @pytest.mark.parametrize("strategy", ["eq3", "eq4"])
    @pytest.mark.parametrize("problem", ["nc", "topj"])
    def test_search_outcome_unchanged(
        self, yelp_shapes, monkeypatch, strategy, problem
    ):
        """Full LS answers with the sweep equal those with the reference
        probing, on the ls-mix shapes and the smallest wide one."""
        shapes = sorted(yelp_shapes, key=lambda s: s[0].num_vertices)[:5]

        def outcome(ls):
            entries = ls.search_nc() if problem == "nc" else ls.search_topj(2)
            return [
                (
                    entry.sample_weight().tolist(),
                    [sorted(c.members) for c in entry.communities],
                )
                for entry in entries
            ]

        for htk, gd, query, k, region in shapes:
            for ls in both_backends(
                htk, gd, query, k, region, strategy=strategy
            ):
                swept = outcome(ls)
                with monkeypatch.context() as m:
                    m.setattr(
                        LocalSearch, "_threshold_candidates",
                        threshold_candidates,
                    )
                    reference = outcome(fresh_copy(ls))
                assert swept == reference


# ----------------------------------------------------------------------
# anytime expiry inside probing
# ----------------------------------------------------------------------
class _ArmedDeadline:
    """Deadline stand-in that expires once threshold probing starts."""

    def __init__(self):
        self.armed = False

    def expired(self):
        return self.armed

    def check(self, stage):  # pragma: no cover - anytime never checks
        raise AssertionError(stage)


class TestAnytimeInsideProbing:
    @pytest.mark.parametrize("flat", [True, False])
    def test_returns_marked_htk_fallback(
        self, paper_region, monkeypatch, flat
    ):
        htk = paper_social_graph().subgraph(range(1, 8))
        attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
        gd = DominanceGraph(attrs, paper_region)
        deadline = _ArmedDeadline()
        sweeps = []
        real = local_search.prefix_entry_sizes

        def arming_sweep(*args):
            deadline.armed = True
            sweeps.append(args)
            return real(*args)

        monkeypatch.setattr(local_search, "prefix_entry_sizes", arming_sweep)
        searcher = LocalSearch if flat else ReferenceLocalSearch
        ls = searcher(
            search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region,
            deadline=deadline, anytime=True,
        )
        entries = ls.search_nc()
        assert len(sweeps) == 1  # expired during the first probe's walk
        assert ls.partial
        assert len(entries) == 1
        (community,) = entries[0].communities
        assert community.partial
        assert community.members == frozenset(htk.vertices())
