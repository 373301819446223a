"""The vectorized network fingerprint is byte-identical to its oracle.

Snapshot manifests on disk carry the digest, so the vectorized
``network_fingerprint`` must reproduce the per-edge-tuple reference in
``tests/oracles/fingerprint.py`` exactly: on random networks (built in
random insertion order), on the bundled datasets, and after every live
mutation kind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MACEngine, datasets
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
        engine = MACEngine(make_network())
        before = network_fingerprint(engine.network)
        engine.apply([mutation])
        assert_pinned(engine.network)
        assert network_fingerprint(engine.network) != before
