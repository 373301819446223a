"""`MACEngine.apply`: equivalence with rebuilds and footprint-scoped eviction."""

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import MutationError
from repro.live import (
    add_social_edge,
    move_user,
    remove_social_edge,
    update_attributes,
    update_road_weight,
)
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

SIDES = ("python", "flat")


def make_network(mutate=None) -> RoadSocialNetwork:
    """The paper network, optionally with ``mutate(network)`` pre-applied."""
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    network = RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )
    if mutate is not None:
        mutate(network)
    return network


def make_request(**knobs) -> MACRequest:
    knobs.setdefault("algorithm", "global")
    return MACRequest.make((2, 3, 6), 3, 9.0, REGION, **knobs)


def stable(result) -> tuple:
    return (
        result.htk_vertices,
        [sorted(entry.best.members) for entry in result.partitions],
    )


class TestEquivalence:
    @pytest.mark.parametrize("backend", SIDES)
    def test_social_edge_batch_matches_rebuild(self, force_path, backend):
        force_path(backend)
        engine = MACEngine(make_network())
        engine.search(make_request())  # warm every stage
        summary = engine.apply([add_social_edge(1, 4), remove_social_edge(2, 5)])
        assert summary["applied"] == 2
        assert summary["by_kind"] == {"add_social_edge": 1, "remove_social_edge": 1}
        assert summary["delta_seq"] == 1

        def mutate(network):
            network.social.graph.add_edge(1, 4)
            network.social.graph.remove_edge(2, 5)

        reference = MACEngine(make_network(mutate))
        request = make_request()
        assert stable(engine.search(request)) == stable(reference.search(request))

    @pytest.mark.parametrize("backend", SIDES)
    def test_attribute_update_matches_rebuild(self, force_path, backend):
        force_path(backend)
        engine = MACEngine(make_network())
        engine.search(make_request())
        engine.apply([update_attributes(3, [9.5, 9.5, 9.5])])

        def mutate(network):
            network.social.set_attributes(3, (9.5, 9.5, 9.5))

        reference = MACEngine(make_network(mutate))
        request = make_request()
        assert stable(engine.search(request)) == stable(reference.search(request))

    def test_road_weight_update_matches_rebuild(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        engine.apply([update_road_weight(6, 7, 20.0)])

        def mutate(network):
            network.road.add_edge(6, 7, 20.0)

        reference = MACEngine(make_network(mutate))
        request = make_request()
        # rerouting 6-7 pushes v7's query distance past t: the filter
        # shrinks, so this really exercises the global eviction
        assert stable(engine.search(request)) == stable(reference.search(request))

    def test_move_user_matches_rebuild(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        engine.apply([move_user(12, SpatialPoint.at_vertex(1))])

        def mutate(network):
            network.social.set_location(12, SpatialPoint.at_vertex(1))

        reference = MACEngine(make_network(mutate))
        request = make_request()
        assert stable(engine.search(request)) == stable(reference.search(request))

    def test_wire_dicts_are_accepted(self):
        engine = MACEngine(make_network())
        summary = engine.apply([{"op": "add_social_edge", "u": 1, "v": 4}])
        assert summary["by_kind"] == {"add_social_edge": 1}
        assert engine.network.social.graph.has_edge(1, 4)


class TestFootprint:
    def test_disjoint_edge_keeps_everything_warm(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        # (12, 15): both endpoints outside the warm (Q, t=9) filter
        summary = engine.apply([add_social_edge(12, 15)])
        assert summary["evicted"] == 0
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"] == {"result": "hit"}
        assert engine.telemetry().cache_evicted_by_mutation == 0

    def test_insert_repairs_warm_filter_in_place(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([add_social_edge(1, 4)])
        assert summary["repaired_entries"] >= 1
        assert summary["evicted"] >= 1  # both endpoints are members
        again = engine.search(make_request())
        # downstream stages recompute, but the repaired filter stays warm
        assert again.extra["engine"]["cache"]["filter"] == "hit"

    def test_member_edge_delete_evicts(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([remove_social_edge(2, 7)])
        assert summary["evicted"] >= 1
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"].get("result") != "hit"

    def test_non_member_attribute_update_keeps_entries(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([update_attributes(12, [0.5, 0.5, 0.5])])
        assert summary["evicted"] == 0
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"] == {"result": "hit"}

    def test_member_attribute_update_evicts(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([update_attributes(5, [0.5, 0.5, 0.5])])
        assert summary["evicted"] >= 1

    def test_move_and_road_weight_evict_globally(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        summary = engine.apply([move_user(12, SpatialPoint.at_vertex(1))])
        assert summary["evicted"] >= 1
        engine.search(make_request())
        summary = engine.apply([update_road_weight(11, 12, 2.0)])
        assert summary["evicted"] >= 1


class TestAtomicity:
    def test_rejected_batch_leaves_everything_untouched(self):
        engine = MACEngine(make_network())
        engine.search(make_request())
        with pytest.raises(MutationError, match="mutation 1"):
            engine.apply(
                [
                    add_social_edge(1, 4),
                    add_social_edge(2, 3),  # already exists
                ]
            )
        assert not engine.network.social.graph.has_edge(1, 4)
        assert engine.delta_seq == 0
        assert engine.telemetry().mutations == 0
        again = engine.search(make_request())
        assert again.extra["engine"]["cache"] == {"result": "hit"}

    def test_empty_batch_is_rejected(self):
        with pytest.raises(MutationError, match="batch is empty"):
            MACEngine(make_network()).apply([])


class TestTelemetry:
    def test_counters_and_delta_seq(self):
        engine = MACEngine(make_network())
        engine.apply([add_social_edge(1, 4)])
        engine.apply([remove_social_edge(1, 4), update_attributes(3, [1.0, 1.0, 1.0])])
        assert engine.delta_seq == 2
        tel = engine.telemetry()
        assert tel.mutations == 3
        assert tel.mutations_by_kind == {
            "add_social_edge": 1,
            "remove_social_edge": 1,
            "update_attributes": 1,
        }

    def test_reset_preserves_delta_seq(self):
        engine = MACEngine(make_network())
        engine.apply([add_social_edge(1, 4)])
        engine.reset_telemetry()
        assert engine.telemetry().mutations == 0
        # delta_seq is state (snapshot replay depth), not a counter
        assert engine.delta_seq == 1
