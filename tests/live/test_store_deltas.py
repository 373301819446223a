"""The append-only delta log beside a snapshot, and replay on load."""

import json

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion
from repro.errors import SnapshotError
from repro.live import add_social_edge, remove_social_edge, update_attributes
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store import DELTA_VERSION, append_delta, read_deltas
from repro.store.snapshot import snapshot_info

from tests.conftest import paper_attributes, paper_road, paper_social_graph

REGION = PreferenceRegion([0.1, 0.2], [0.5, 0.4])

ADD_1_4 = {"op": "add_social_edge", "u": 1, "v": 4}


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


def make_request(**knobs) -> MACRequest:
    knobs.setdefault("algorithm", "global")
    return MACRequest.make((2, 3, 6), 3, 9.0, REGION, **knobs)


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "snap"
    MACEngine(make_network()).save(path)
    return path


class TestAppendAndRead:
    def test_missing_log_is_depth_zero(self, snapshot):
        assert read_deltas(snapshot) == []
        assert snapshot_info(snapshot)["delta_depth"] == 0

    def test_append_assigns_gapless_sequence(self, snapshot):
        assert append_delta(snapshot, [add_social_edge(1, 4)]) == 1
        remove = [{"op": "remove_social_edge", "u": 1, "v": 4}]
        assert append_delta(snapshot, remove) == 2
        records = read_deltas(snapshot)
        assert [r["seq"] for r in records] == [1, 2]
        assert all(r["delta_version"] == DELTA_VERSION for r in records)
        assert records[0]["mutations"] == [{"op": "add_social_edge", "u": 1, "v": 4}]
        assert snapshot_info(snapshot)["delta_depth"] == 2

    def test_append_requires_a_real_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError):
            append_delta(tmp_path / "nowhere", [add_social_edge(1, 4)])


class TestReadValidation:
    def _write(self, snapshot, record):
        (snapshot / "deltas.jsonl").write_text(json.dumps(record) + "\n")

    def test_corrupt_json_is_typed(self, snapshot):
        (snapshot / "deltas.jsonl").write_text("{not json\n")
        with pytest.raises(SnapshotError, match="corrupted delta log"):
            read_deltas(snapshot)

    def test_version_mismatch_is_typed(self, snapshot):
        self._write(snapshot, {"delta_version": 99, "seq": 1, "mutations": [ADD_1_4]})
        with pytest.raises(SnapshotError, match="version 99"):
            read_deltas(snapshot)

    def test_empty_mutations_is_typed(self, snapshot):
        record = {"delta_version": DELTA_VERSION, "seq": 1, "mutations": []}
        self._write(snapshot, record)
        with pytest.raises(SnapshotError, match="no mutations"):
            read_deltas(snapshot)

    def test_sequence_gap_is_typed(self, snapshot):
        record = {"delta_version": DELTA_VERSION, "seq": 5, "mutations": [ADD_1_4]}
        self._write(snapshot, record)
        with pytest.raises(SnapshotError, match="seq"):
            read_deltas(snapshot)


class TestReplayOnLoad:
    def test_load_fast_forwards_through_the_log(self, snapshot):
        append_delta(snapshot, [add_social_edge(1, 4)])
        batch = [remove_social_edge(2, 5), update_attributes(3, [9.5, 9.5, 9.5])]
        append_delta(snapshot, batch)
        engine = MACEngine.load(snapshot, make_network())
        assert engine.delta_seq == 2
        graph = engine.network.social.graph
        assert graph.has_edge(1, 4) and not graph.has_edge(2, 5)

        def mutate(network):
            network.social.graph.add_edge(1, 4)
            network.social.graph.remove_edge(2, 5)
            network.social.set_attributes(3, (9.5, 9.5, 9.5))

        reference_network = make_network()
        mutate(reference_network)
        reference = MACEngine(reference_network)
        request = make_request()
        served, expected = engine.search(request), reference.search(request)
        assert served.htk_vertices == expected.htk_vertices
        assert served.communities() == expected.communities()

    def test_base_snapshot_is_never_rewritten(self, snapshot):
        digest_before = (snapshot / "manifest.json").read_bytes()
        append_delta(snapshot, [add_social_edge(1, 4)])
        MACEngine.load(snapshot, make_network())
        assert (snapshot / "manifest.json").read_bytes() == digest_before

    def test_replay_failure_names_the_seq(self, snapshot):
        # (2, 3) already exists in the base network: seq 1 cannot apply
        append_delta(snapshot, [add_social_edge(2, 3)])
        with pytest.raises(SnapshotError, match="seq 1"):
            MACEngine.load(snapshot, make_network())
