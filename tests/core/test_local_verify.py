"""LS Verify's local checks and Gd's descendant closure, property-tested
against the probe-based reference of ``tests/oracles/local_search.py``.

Inputs: random connected k-cores with random or tied attribute rows, the
paper's running example, and the paper example with duplicated attribute
rows (ties, which Gd orients by insertion order).  On every candidate LS
verifies, the O(deg v) survival rule, the bound-only peel and the anchor
cascades must answer like fresh k-ĉore probes; the closure must answer
like the O(V + E) sweeps; and whole searches must equal the reference.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_search import LocalSearch
from repro.dominance.graph import DominanceGraph
from repro.geometry.region import PreferenceRegion
from repro.graph.core import k_core_containing
from repro.kernels.search import search_flatgraph

from tests.conftest import paper_attributes, paper_social_graph, random_graph
from tests.core.test_search_backends import signature
from tests.oracles.local_search import (
    ReferenceLocalSearch,
    leaves_within,
    tops_within,
)

REGION = PreferenceRegion([0.2, 0.25], [0.45, 0.4])
PAPER_REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])


def tied(attrs: dict, copies: list[tuple[int, int]]) -> dict:
    """``attrs`` with each ``(v, u)`` pair's row of v replaced by u's."""
    out = dict(attrs)
    for v, u in copies:
        if v in out and u in out:
            out[v] = out[u].copy()
    return out


@st.composite
def random_setups(draw):
    """(htk, gd, query, k, region) over a random connected k-core."""
    n = draw(st.integers(8, 22))
    p = draw(st.sampled_from([0.25, 0.35, 0.5]))
    k = draw(st.integers(1, 3))
    graph = random_graph(n, p, seed=draw(st.integers(0, 10_000)))
    query = sorted(
        draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    )
    htk = k_core_containing(graph, query, k)
    if htk is None:  # fall back to the first vertex's k-core
        query = [query[0]]
        htk = k_core_containing(graph, query, k)
    if htk is None:
        k, htk = 0, graph.subgraph(graph.component_of(query[0]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    vertices = sorted(htk.vertices())
    if draw(st.booleans()):
        rows = rng.integers(0, 4, (3, 3)).astype(float)
        attrs = {v: rows[rng.integers(0, 3)].copy() for v in vertices}
    else:
        attrs = {v: rng.uniform(0, 10, 3) for v in vertices}
    return htk, DominanceGraph(attrs, REGION), query, k, REGION


@st.composite
def paper_setups(draw):
    """The running example, optionally with duplicated attribute rows."""
    htk = paper_social_graph().subgraph(range(1, 8))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    pairs = st.tuples(st.integers(1, 7), st.integers(1, 7))
    attrs = tied(attrs, draw(st.lists(pairs, max_size=3)))
    return htk, DominanceGraph(attrs, PAPER_REGION), [2, 3, 6], 3, PAPER_REGION


setups = st.one_of(random_setups(), paper_setups())


def candidates(ls: LocalSearch) -> list[frozenset[int]]:
    """Every candidate ``search_nc`` verifies, in its order."""
    out = ls._expand()
    for extra in ls._threshold_candidates():
        if extra not in out:
            out.append(extra)
    if ls._all not in out:
        out.append(ls._all)
    return out


def verified(ls: LocalSearch, members: frozenset[int]) -> list:
    return [
        (cell.interior_point().tolist(), found)
        for cell, found in ls._verify_candidate(members)
    ]


@settings(max_examples=60, deadline=None)
@given(setups, st.data())
def test_closure_matches_the_sweeps(setup, data):
    _htk, gd, _query, _k, _region = setup
    vertices = gd.vertices()
    subset = data.draw(st.sets(st.sampled_from(vertices)))
    among = data.draw(st.lists(st.sampled_from(vertices), unique=True))
    assert gd.closure() is not None
    assert gd.leaves_within(subset) == leaves_within(gd, subset)
    assert gd.tops_within(subset) == tops_within(gd, subset)
    flag = gd.has_descendant_in(set(subset))
    assert gd.dominating(subset, among) == [v for v in among if flag[v]]
    for v in vertices:
        row = gd.closure()[gd.row_of(v)]
        assert {u for u in vertices if row >> gd.row_of(u) & 1} == (
            gd.descendants(v)
        )


@settings(max_examples=60, deadline=None)
@given(setups)
def test_hasse_leaves_are_the_leaves_over_htk(setup):
    htk, gd, _query, _k, _region = setup
    everyone = set(htk.vertices())
    assert set(gd.vertices()) == everyone  # the searchers' precondition
    assert gd.leaves() == leaves_within(gd, everyone)
    assert gd.leaves() == gd.leaves_within(everyone)


@settings(max_examples=60, deadline=None)
@given(setups)
def test_local_checks_match_the_probes(setup):
    htk, gd, query, k, region = setup
    ls = LocalSearch(search_flatgraph(htk), gd, query, k, region)
    ref = ReferenceLocalSearch(ls.flat, gd, query, k, region)
    found = candidates(ls)
    assert found == candidates(ref)
    for members in found:
        outside = ls._all - members
        for v in outside:
            assert ls._survives_alone(v, members) == ref._survives_alone(
                v, members
            )
        analyzed = ls._effective_tops(outside, members)
        assert analyzed == ref._effective_tops(outside, members)
        bounds = [set(outside)] + ([analyzed[1]] if analyzed else [])
        for bound in bounds:
            assert ls._has_mutual_support(
                members, bound
            ) == ref._has_mutual_support(members, bound)
        ge_leaves = gd.leaves_within(members)
        assert ls._anchors(members, ge_leaves) == ref._anchors(
            members, ge_leaves
        )
        assert verified(ls, members) == verified(ref, members)


@settings(max_examples=40, deadline=None)
@given(
    setups,
    st.sampled_from(["eq3", "eq4"]),
    st.sampled_from(["fast", "chain"]),
    st.integers(1, 3),
)
def test_search_matches_the_reference(setup, strategy, certification, j):
    htk, gd, query, k, region = setup

    def run(searcher, problem):
        search = searcher(
            search_flatgraph(htk), gd, query, k, region, strategy=strategy,
            certification=certification,
        )
        entries = search.search_nc() if problem == "nc" else (
            search.search_topj(j)
        )
        stats = search.stats
        return signature(entries), (
            stats.partitions, stats.halfspaces_inserted, stats.candidates
        )

    for problem in ("nc", "topj"):
        assert run(LocalSearch, problem) == run(ReferenceLocalSearch, problem)


def test_stats_record_the_phases(paper_region):
    htk = paper_social_graph().subgraph(range(1, 8))
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    ls = LocalSearch(search_flatgraph(htk), gd, [2, 3, 6], 3, paper_region)
    ls.search_nc()
    assert set(ls.stats.extra) == {"expand_s", "probe_s", "verify_s"}
    assert all(v >= 0 for v in ls.stats.extra.values())


def test_closure_is_cached_and_never_pickled(paper_region):
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    desc = gd.closure()
    assert gd.closure() is desc
    copy = pickle.loads(pickle.dumps(gd))
    assert copy._desc_bits is None
    assert copy.closure() == desc


def test_above_the_cap_the_sweeps_answer(paper_region, monkeypatch):
    attrs = {v: x for v, x in paper_attributes().items() if v <= 7}
    gd = DominanceGraph(attrs, paper_region)
    subsets = [set(gd.vertices()), {1, 4, 5}, {2, 3, 6, 7}, {7}]

    def answers():
        return [
            (
                gd.leaves_within(s),
                gd.tops_within(s),
                gd.dominating(s, gd.vertices()),
            )
            for s in subsets
        ]

    monkeypatch.setattr(DominanceGraph, "CLOSURE_MAX", 6)
    assert gd.closure() is None
    swept = answers()
    monkeypatch.setattr(DominanceGraph, "CLOSURE_MAX", 7)
    assert gd.closure() is not None
    assert answers() == swept
    assert swept[0][0] == [1, 5, 7] and swept[1][1] == [4, 5]
