"""Filter entries with zero vertices and with no edges.

Every prepared (Q, t) entry carries a CSR view and its coreness rows,
including the degenerate ones: a range filter that keeps nobody (two
query users farther apart than ``t``) has a 0-row CSR, and one that
keeps users without a friendship among them has rows but no edges.
Each must answer ``search`` and ``explain``, survive an edge toggle,
and round-trip through a snapshot.
"""

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.live import add_social_edge, remove_social_edge
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

#: r2 and r6 are 5 apart: within t=1 of both there is nobody.
EMPTY = MACRequest.make((2, 6), 1, 1.0, REGION)

#: r1 and r2 are 3 apart: the filter keeps users 1 and 2.
PAIR = MACRequest.make((1,), 1, 3.0, REGION)


def make_network(mutate=None) -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    network = RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )
    if mutate is not None:
        mutate(network)
    return network


def unlinked_network() -> RoadSocialNetwork:
    """The paper network without the friendship (1, 2)."""
    return make_network(lambda n: n.social.graph.remove_edge(1, 2))


def filter_entry(engine, request):
    prep, hit = engine._filter_cache.peek(request.filter_key)
    assert hit
    return prep


def members(result) -> set:
    """The distinct best communities across the result's partitions."""
    return {tuple(sorted(entry.best.members)) for entry in result.partitions}


class TestZeroVertices:
    def test_search_explain_toggle_and_snapshot(self, tmp_path):
        engine = MACEngine(make_network())
        assert engine.search(EMPTY).partitions == []
        prep = filter_entry(engine, EMPTY)
        assert prep.flat.n == 0 and prep.core_rows.size == 0
        assert prep.max_coreness == 0

        plan = engine.explain(MACRequest.make((2, 6), 2, 1.0, REGION))
        assert plan.cached["filter"] and not plan.cached["core"]
        assert plan.feasible is False and plan.htk_upper_bound == 0

        # No edge lies inside an empty filter: the entry stays as it is.
        summary = engine.apply([add_social_edge(1, 4)])
        assert summary["repaired_entries"] == 0
        assert filter_entry(engine, EMPTY) is prep
        assert engine.search(EMPTY).partitions == []

        engine.save(tmp_path / "snap")
        network = make_network(lambda n: n.social.graph.add_edge(1, 4))
        loaded = MACEngine.load(tmp_path / "snap", network)
        assert filter_entry(loaded, EMPTY).flat.n == 0
        result = loaded.search(EMPTY)
        assert result.partitions == []
        assert result.extra["engine"]["cache"]["core"] == "hit"


class TestNoEdges:
    def test_search_explain_toggle_and_snapshot(self, tmp_path):
        engine = MACEngine(unlinked_network())
        assert engine.search(PAIR).partitions == []
        prep = filter_entry(engine, PAIR)
        assert prep.flat.ids == [1, 2] and prep.flat.num_edges == 0
        assert prep.core_rows.tolist() == [0, 0]

        plan = engine.explain(MACRequest.make((1,), 2, 3.0, REGION))
        assert plan.cached["filter"] and not plan.cached["core"]
        assert plan.feasible is False and plan.htk_upper_bound == 0

        # Linking the two users inside the filter repairs the entry and
        # makes the 1-core {1, 2} the answer.
        summary = engine.apply([add_social_edge(1, 2)])
        assert summary["repaired_entries"] == 1
        repaired = filter_entry(engine, PAIR)
        assert repaired.core_rows.tolist() == [1, 1]
        assert prep.core_rows.tolist() == [0, 0]  # held entry untouched
        fresh = MACEngine(make_network())
        assert members(engine.search(PAIR)) == members(fresh.search(PAIR))
        assert members(engine.search(PAIR)) == {(1, 2)}

        engine.save(tmp_path / "linked")
        loaded = MACEngine.load(tmp_path / "linked", make_network())
        assert members(loaded.search(PAIR)) == {(1, 2)}

        # And back: the edgeless entry round-trips too.
        engine.apply([remove_social_edge(1, 2)])
        assert filter_entry(engine, PAIR).core_rows.tolist() == [0, 0]
        assert engine.search(PAIR).partitions == []
        engine.save(tmp_path / "unlinked")
        loaded = MACEngine.load(tmp_path / "unlinked", unlinked_network())
        restored = filter_entry(loaded, PAIR)
        assert restored.flat.num_edges == 0
        assert restored.core_rows.tolist() == [0, 0]
        assert loaded.search(PAIR).partitions == []
