"""Copy-on-write filter repair.

A repaired (Q, t) filter entry holds the new CSR and coreness arrays
the repair kernels return; the entry it replaces keeps its own.  After
long runs of add/remove toggles of the same edge and of edges sharing
an endpoint, every entry a query could still hold must read exactly as
it did when it was cached, and every repaired entry must equal the
old entry's CSR adjacency with (u, v) toggled, with a from-scratch
coreness (the reference BZ of ``tests/oracles/kcore.py``).
"""

import numpy as np

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.live import add_social_edge, remove_social_edge
from repro.graph.adjacency import AdjacencyGraph
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

from tests.conftest import paper_attributes, paper_road, paper_social_graph
from tests.oracles.kcore import core_decomposition

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

#: Absent and present paper edges; most share an endpoint with another.
TOGGLES = [(1, 4), (1, 5), (4, 7), (2, 3), (3, 4), (1, 2), (5, 7), (8, 9)]


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


def flat_adjacency(flat) -> dict:
    ids = np.asarray(flat.ids)
    adj = {}
    for r in range(flat.n):
        lo, hi = flat.indptr[r], flat.indptr[r + 1]
        adj[int(ids[r])] = frozenset(ids[flat.indices[lo:hi]].tolist())
    return adj


def frozen(prep) -> tuple:
    """Everything a held entry exposes, copied out."""
    return (
        flat_adjacency(prep.flat),
        prep.max_coreness,
        prep.flat.indptr.copy(),
        prep.flat.indices.copy(),
        list(prep.flat.ids),
        prep.core_rows.copy(),
    )


def assert_unchanged(prep, snapshot) -> None:
    adj, max_coreness, indptr, indices, ids, core_rows = snapshot
    assert flat_adjacency(prep.flat) == adj
    assert prep.max_coreness == max_coreness
    assert np.array_equal(prep.flat.indptr, indptr)
    assert np.array_equal(prep.flat.indices, indices)
    assert list(prep.flat.ids) == ids
    assert np.array_equal(prep.core_rows, core_rows)


def assert_repaired(new, old, u, v) -> None:
    """``new`` equals ``old``'s CSR adjacency with (u, v) toggled."""
    reference = AdjacencyGraph()
    for w, nbrs in flat_adjacency(old.flat).items():
        reference.add_vertex(w)
        for x in nbrs:
            reference.add_edge(w, x)
    if u in reference and v in reference:
        if reference.has_edge(u, v):
            reference.remove_edge(u, v)
        else:
            reference.add_edge(u, v)
    expected = core_decomposition(reference)
    assert new.max_coreness == max(expected.values(), default=0)
    assert flat_adjacency(new.flat) == {
        w: frozenset(reference.neighbors(w)) for w in reference.vertices()
    }
    assert new.flat.num_edges == reference.num_edges
    assert new.flat.relabel(new.core_rows) == expected


def test_held_entries_survive_toggle_storms():
    engine = MACEngine(make_network())
    for query, t in [((2, 3, 6), 9.0), ((2, 3, 6), 30.0), ((1, 4), 12.0), ((7,), 60.0)]:
        engine.search(MACRequest.make(query, 2, t, REGION, algorithm="global"))
    held = [(prep, frozen(prep)) for _key, prep in engine._filter_cache.items()]
    assert len(held) == 4

    graph = engine.network.social.graph
    rng = np.random.default_rng(5)
    repaired = 0
    for step in range(60):
        if step % 3 == 0:  # runs of three toggles of the same edge
            u, v = TOGGLES[rng.integers(len(TOGGLES))]
        op = remove_social_edge if graph.has_edge(u, v) else add_social_edge
        before = dict(engine._filter_cache.items())
        repaired += engine.apply([op(u, v)])["repaired_entries"]
        after = dict(engine._filter_cache.items())
        assert after.keys() == before.keys()
        for key, new in after.items():
            old = before[key]
            assert_repaired(new, old, u, v)
            if new is not old:
                held.append((new, frozen(new)))
        for prep, snapshot in held:
            assert_unchanged(prep, snapshot)
    assert repaired > 60
