"""Network fingerprints: determinism and sensitivity."""

from __future__ import annotations

from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store import network_fingerprint

from tests.conftest import paper_attributes, paper_road, paper_social_graph


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


class TestFingerprint:
    def test_deterministic_across_rebuilds(self):
        assert network_fingerprint(make_network()) == network_fingerprint(
            make_network()
        )

    def test_format(self):
        fp = network_fingerprint(make_network())
        assert fp.startswith("mset256:")
        assert len(fp) == len("mset256:") + 64

    def test_sensitive_to_road_edge(self):
        net = make_network()
        net.road.add_edge(1, 5, 2.0)
        assert network_fingerprint(net) != network_fingerprint(
            make_network()
        )

    def test_sensitive_to_road_weight(self):
        net = make_network()
        net.road.add_edge(1, 2, 3.5)  # was 3.0
        assert network_fingerprint(net) != network_fingerprint(
            make_network()
        )

    def test_sensitive_to_social_edge(self):
        net = make_network()
        net.social.graph.add_edge(1, 15)
        assert network_fingerprint(net) != network_fingerprint(
            make_network()
        )

    def test_sensitive_to_attributes(self):
        net = make_network()
        net.social.attributes[3] = net.social.attributes[3] + 0.25
        assert network_fingerprint(net) != network_fingerprint(
            make_network()
        )

    def test_sensitive_to_locations(self):
        net = make_network()
        net.social.set_location(4, SpatialPoint.on_edge(2, 3, 1.0))
        assert network_fingerprint(net) != network_fingerprint(
            make_network()
        )

    def test_dataset_fingerprint_is_reproducible(self):
        from repro import datasets

        a = datasets.load_dataset("sf+slashdot", scale=0.03, seed=7)
        b = datasets.load_dataset("sf+slashdot", scale=0.03, seed=7)
        c = datasets.load_dataset("sf+slashdot", scale=0.03, seed=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
