"""Both forms of the network digest agree with the per-record oracle.

Snapshot manifests on disk carry the digest and live engines maintain
it per batch, so (a) the vectorized full ``network_fingerprint`` must
reproduce the record-at-a-time reference in ``tests/oracles/
fingerprint.py`` on random networks (sparse ids, random insertion
order) and the bundled datasets, and (b) the digest ``MACEngine.apply``
advances incrementally must equal a full recompute after every batch,
of every mutation kind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MACEngine, datasets
from repro.errors import MutationError
from repro.graph.adjacency import AdjacencyGraph
from repro.live import (
    add_social_edge,
    move_user,
    remove_social_edge,
    update_attributes,
    update_road_weight,
)
from repro.road.network import RoadNetwork, SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store import network_fingerprint

from tests.conftest import paper_attributes, paper_road, paper_social_graph
from tests.oracles.fingerprint import network_fingerprint as oracle


def assert_pinned(network: RoadSocialNetwork) -> None:
    assert network_fingerprint(network) == oracle(network)


def assert_maintained(engine: MACEngine) -> None:
    """The engine's incrementally kept digest is the full one."""
    assert engine.identity()[0] == network_fingerprint(engine.network)
    assert_pinned(engine.network)


def maintained_engine(network: RoadSocialNetwork) -> MACEngine:
    """An engine whose digest exists, so every apply advances it."""
    engine = MACEngine(network)
    engine.identity()
    return engine


@st.composite
def networks(draw) -> RoadSocialNetwork:
    """Random road-social networks over sparse, shuffled vertex ids."""
    ids = st.integers(-(2**40), 2**40)
    coords = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    road_ids = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    road = RoadNetwork()
    for v in road_ids:
        road.add_vertex(v, draw(st.none() | coords))
    road_edges = draw(st.lists(pairs_of(road_ids), unique=True))
    for u, v in road_edges:
        road.add_edge(u, v, draw(st.integers(0, 50) | st.floats(0, 1e3)))

    users = draw(st.lists(ids, max_size=14, unique=True))
    graph = AdjacencyGraph()
    for v in users:
        graph.add_vertex(v)
    for u, v in draw(st.lists(pairs_of(users), unique=True)):
        graph.add_edge(u, v)
    d = draw(st.integers(1, 4))
    vector = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)
    attrs = {v: np.asarray(draw(vector)) for v in users}
    locations = {}
    for v in users:
        kind = draw(st.sampled_from(["none", "vertex", "edge"]))
        if kind == "vertex":
            locations[v] = SpatialPoint.at_vertex(draw(st.sampled_from(road_ids)))
        elif kind == "edge" and road_edges:
            a, b = draw(st.sampled_from(road_edges))
            locations[v] = SpatialPoint.on_edge(a, b, draw(st.floats(0, 50)))
    return RoadSocialNetwork(road, SocialNetwork(graph, attrs, locations))


def draw_batch(data, network: RoadSocialNetwork) -> list:
    """A valid batch of 1-6 random mutations of all five kinds.

    Social edges are toggled against the batch's own prefix, so a pair
    drawn twice is added then removed (or the reverse) in one batch.
    """
    social, road = network.social, network.road
    users = list(social.graph.vertices())
    edges = {frozenset(e) for e in social.graph.edges()}
    road_ids = list(road.vertices())
    road_edges = [(u, v) for u, v, _w in road.edges()]
    kinds = []
    if len(users) >= 2:
        kinds.append("social")
    if users:
        kinds += ["attributes", "move"]
    if road_edges:
        kinds.append("road")
    batch = []
    d = social.dimensionality
    for _ in range(data.draw(st.integers(1, 6)) if kinds else 0):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "social":
            u, v = data.draw(pairs_of(users))
            key = frozenset((u, v))
            if key in edges:
                batch.append(remove_social_edge(u, v))
                edges.discard(key)
            else:
                batch.append(add_social_edge(u, v))
                edges.add(key)
        elif kind == "attributes":
            user = data.draw(st.sampled_from(users))
            vector = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)
            batch.append(update_attributes(user, data.draw(vector)))
        elif kind == "move":
            user = data.draw(st.sampled_from(users))
            if road_edges and data.draw(st.booleans()):
                a, b = data.draw(st.sampled_from(road_edges))
                offset = data.draw(st.floats(0, road.weight(a, b)))
                point = SpatialPoint.on_edge(a, b, offset)
            else:
                point = SpatialPoint.at_vertex(data.draw(st.sampled_from(road_ids)))
            batch.append(move_user(user, point))
        else:
            u, v = data.draw(st.sampled_from(road_edges))
            if data.draw(st.booleans()):
                u, v = v, u
            weight = data.draw(st.integers(0, 50) | st.floats(0, 1e3))
            batch.append(update_road_weight(u, v, weight))
    return batch


def pairs_of(vertices: list) -> st.SearchStrategy:
    """Ordered pairs of distinct vertices, either orientation."""
    if len(vertices) < 2:
        return st.nothing()
    return st.permutations(vertices).map(lambda p: (p[0], p[1]))


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 14)}
    locations[14] = SpatialPoint.on_edge(14, 15, 2.5)  # 15 has no location
    road = paper_road()
    road.add_vertex(99)  # a road vertex without coordinates
    road.add_edge(99, 15, 1.0)
    return RoadSocialNetwork(
        road,
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_random_networks(self, network):
        assert_pinned(network)

    def test_paper_network_with_sparse_coordinates_and_locations(self):
        assert_pinned(make_network())

    def test_empty_social_graph(self):
        social = SocialNetwork(AdjacencyGraph(), {})
        assert_pinned(RoadSocialNetwork(paper_road(), social))

    def test_isolated_users_and_no_road_edges(self):
        road = RoadNetwork()
        road.add_vertex(3)
        graph = AdjacencyGraph()
        graph.add_vertex(5)
        graph.add_vertex(2)
        social = SocialNetwork(
            graph, {5: [1.0, 2.0], 2: [0.5, 0.0]}, {5: SpatialPoint.at_vertex(3)}
        )
        assert_pinned(RoadSocialNetwork(road, social))

    @pytest.mark.parametrize("name", datasets.DATASET_NAMES)
    def test_bundled_datasets(self, name):
        assert_pinned(datasets.load_dataset(name, scale=0.05, seed=7).network)

    def test_served_dataset(self):
        network = datasets.load_dataset("fl+yelp", scale=0.2, seed=7).network
        assert_pinned(network)

    def test_aminer_case_study(self):
        assert_pinned(datasets.aminer_case_study().network)


class TestMaintainedDigest:
    @settings(max_examples=100, deadline=None)
    @given(networks(), st.data())
    def test_random_batches(self, network, data):
        engine = maintained_engine(network)
        for _ in range(data.draw(st.integers(1, 4))):
            batch = draw_batch(data, engine.network)
            if not batch:
                break
            engine.apply(batch)
            assert_maintained(engine)

    def test_same_edge_twice_in_one_batch(self):
        engine = maintained_engine(make_network())
        base = engine.identity()[0]
        engine.apply([add_social_edge(1, 4), remove_social_edge(4, 1)])
        assert engine.identity()[0] == base
        engine.apply(
            [add_social_edge(1, 4), remove_social_edge(1, 4), add_social_edge(4, 1)]
        )
        assert engine.identity()[0] != base
        assert_maintained(engine)

    def test_same_record_rewritten_in_one_batch(self):
        engine = maintained_engine(make_network())
        engine.apply(
            [
                update_attributes(3, [1.0, 2.0, 3.0]),
                update_attributes(3, [4.0, 5.0, 6.0]),
                update_road_weight(1, 2, 9.0),
                update_road_weight(2, 1, 7.5),
            ]
        )
        assert_maintained(engine)

    def test_noop_updates_keep_the_digest(self):
        network = make_network()
        engine = maintained_engine(network)
        base = engine.identity()[0]
        current = network.social.attributes[3].tolist()
        engine.apply([update_attributes(3, current)])
        engine.apply([update_road_weight(1, 2, network.road.weight(1, 2))])
        engine.apply([move_user(4, network.social.locations[4])])
        assert engine.identity()[0] == base
        assert_maintained(engine)

    def test_round_trips_return_to_the_base_digest(self):
        network = make_network()
        engine = maintained_engine(network)
        base = engine.identity()[0]
        weight = network.road.weight(99, 15)
        point = network.social.locations[4]
        vector = network.social.attributes[3].tolist()
        engine.apply([add_social_edge(1, 4)])
        engine.apply([update_road_weight(99, 15, 4.0)])
        engine.apply([move_user(4, SpatialPoint.on_edge(2, 3, 1.0))])
        engine.apply([update_attributes(3, [9.5, 9.5, 9.5])])
        assert engine.identity()[0] != base
        engine.apply([remove_social_edge(1, 4)])
        engine.apply([update_road_weight(99, 15, weight)])
        engine.apply([move_user(4, point)])
        engine.apply([update_attributes(3, vector)])
        assert engine.identity()[0] == base
        assert engine.identity()[1] == 8

    def test_signed_zero_is_content(self):
        engine = maintained_engine(make_network())
        engine.apply([update_attributes(3, [0.0, 0.0, 0.0])])
        positive = engine.identity()[0]
        engine.apply([update_attributes(3, [-0.0, 0.0, 0.0])])
        assert engine.identity()[0] != positive
        assert_maintained(engine)

    def test_rejected_batch_keeps_the_digest(self):
        engine = maintained_engine(make_network())
        base = engine.identity()
        with pytest.raises(MutationError):
            engine.apply([add_social_edge(1, 4), add_social_edge(2, 3)])
        assert engine.identity() == base
        assert_maintained(engine)


class TestAfterMutations:
    @pytest.mark.parametrize(
        "mutation",
        [
            add_social_edge(1, 4),
            remove_social_edge(2, 3),
            update_attributes(3, [9.5, 9.5, 9.5]),
            move_user(4, SpatialPoint.on_edge(2, 3, 1.0)),
            move_user(15, SpatialPoint.at_vertex(99)),
            update_road_weight(1, 2, 3.25),
            update_road_weight(99, 15, 0.0),
        ],
        ids=lambda m: m.kind,
    )
    def test_each_mutation_kind(self, mutation):
        engine = maintained_engine(make_network())
        before = network_fingerprint(engine.network)
        engine.apply([mutation])
        assert_maintained(engine)
        assert network_fingerprint(engine.network) != before
