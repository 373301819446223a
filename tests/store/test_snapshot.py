"""Snapshot round-trips, warm-start guarantees, and failure modes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    MACEngine,
    MACRequest,
    PreferenceRegion,
    SnapshotError,
)
from repro.errors import GraphError
from repro.dominance.graph import DominanceGraph
from repro.kernels.flatgraph import FlatGraph
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store.snapshot import (
    FORMAT_VERSION,
    read_manifest,
    snapshot_info,
    verify_snapshot,
)

from tests.conftest import (
    paper_attributes,
    paper_road,
    paper_social_graph,
)


def make_network() -> RoadSocialNetwork:
    """A fresh, content-identical copy of the paper's running example."""
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


@pytest.fixture
def region() -> PreferenceRegion:
    return PreferenceRegion([0.1, 0.2], [0.5, 0.4])


@pytest.fixture
def request_(region) -> MACRequest:
    return MACRequest.make((2, 3, 6), 3, 9.0, region)


@pytest.fixture(autouse=True)
def flat_side(force_path):
    """Build the G-tree and run the global search on the flat side
    unless a test forces another."""
    force_path("flat")


def warmed_snapshot(tmp_path, request_, use_gtree: bool = True):
    """Build + search + save; returns (engine, result, snapshot path)."""
    engine = MACEngine(make_network(), use_gtree=use_gtree)
    result = engine.search(request_)
    path = tmp_path / "snap"
    engine.save(path)
    return engine, result, path


def members(result):
    return [sorted(entry.best.members) for entry in result.partitions]


def backed_by_memmap(arr) -> bool:
    """Does ``arr`` view a ``np.memmap`` (through its base chain)?"""
    while arr is not None:
        if isinstance(arr, np.memmap):
            return True
        arr = getattr(arr, "base", None)
    return False


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["flat", "python"])
    def test_first_query_after_load_builds_nothing(
        self, tmp_path, request_, force_path, backend
    ):
        force_path(backend)
        _engine, cold, path = warmed_snapshot(tmp_path, request_)
        engine = MACEngine.load(path, make_network())
        warm = engine.search(request_)

        timings = warm.extra["engine"]["timings"]
        assert timings["filter"] == 0.0
        assert timings["core"] == 0.0
        assert timings["dominance"] == 0.0
        cache = warm.extra["engine"]["cache"]
        assert cache["filter"] == "hit"
        assert cache["core"] == "hit"
        assert cache["dominance"] == "hit"
        stage = engine.telemetry().stage_seconds
        assert stage["filter"] == 0.0
        assert stage["core"] == 0.0
        assert stage["dominance"] == 0.0
        assert members(warm) == members(cold)
        assert warm.htk_vertices == cold.htk_vertices

    @pytest.mark.parametrize("backend", ["flat", "python"])
    def test_loaded_engine_matches_fresh_engine(
        self, tmp_path, request_, region, force_path, backend
    ):
        force_path(backend)
        _engine, _cold, path = warmed_snapshot(tmp_path, request_)
        loaded = MACEngine.load(path, make_network())
        fresh = MACEngine(make_network(), use_gtree=True)
        other = MACRequest.make(
            (2, 3, 6), 3, 9.0, region, j=2, problem="topj"
        )
        for req in (request_, other):
            assert members(loaded.search(req)) == members(fresh.search(req))

    def test_gtree_round_trips(self, tmp_path, request_):
        engine, _result, path = warmed_snapshot(tmp_path, request_)
        network = make_network()
        MACEngine.load(path, network)
        assert network.has_gtree
        original = engine.network.gtree
        restored = network.gtree
        assert restored.num_nodes == original.num_nodes
        assert restored.num_leaves == original.num_leaves
        assert restored.leaf_size == original.leaf_size
        for source in (2, 6, 9, SpatialPoint.on_edge(2, 3, 1.5)):
            for bound in (5.0, 9.0, 40.0):
                assert restored.range_query(source, bound) == pytest.approx(
                    original.range_query(source, bound)
                )

    def test_infeasible_core_entry_round_trips(self, tmp_path, region):
        impossible = MACRequest.make((2, 3, 6), 9, 9.0, region)
        engine = MACEngine(make_network())
        assert engine.search(impossible).partitions == []
        path = tmp_path / "snap"
        engine.save(path)
        loaded = MACEngine.load(path, make_network())
        result = loaded.search(impossible)
        assert result.partitions == []
        assert result.extra["engine"]["cache"]["core"] == "hit"
        stage = loaded.telemetry().stage_seconds
        assert stage["filter"] == stage["core"] == 0.0

    @pytest.mark.parametrize("compress", [True, False])
    def test_every_core_round_trips_through_its_csr(
        self, tmp_path, region, compress
    ):
        engine = MACEngine(make_network())
        for query, k, t in [
            ((2, 3, 6), 3, 9.0),
            ((2, 3, 6), 2, 30.0),
            ((1, 4), 2, 12.0),
            ((7,), 1, 60.0),
            ((2, 3, 6), 9, 9.0),  # infeasible
        ]:
            engine.search(MACRequest.make(query, k, t, region))
        path = tmp_path / "snap"
        engine.save(path, compress=compress)
        loaded = MACEngine.load(path, make_network(), mmap=True)
        saved = dict(engine._core_cache.items())
        restored = dict(loaded._core_cache.items())
        assert restored.keys() == saved.keys()
        assert sum(s.flat is not None for s in saved.values()) >= 3
        for key, state in saved.items():
            got = restored[key]
            if state.flat is None:
                assert got.flat is None and got.attributes is None
                continue
            assert got.flat.ids == state.flat.ids
            for name in ("indptr", "indices"):
                arr = getattr(got.flat, name)
                assert np.array_equal(arr, getattr(state.flat, name))
                # Adopted as stored: file-backed when stored uncompressed.
                assert backed_by_memmap(arr) == (not compress)
            assert got.attributes.keys() == state.attributes.keys()

    def test_engine_config_restored_and_overridable(
        self, tmp_path, request_
    ):
        engine = MACEngine(
            make_network(),
            use_gtree=False,
            auto_local_threshold=7,
        )
        engine.search(request_)
        path = tmp_path / "snap"
        engine.save(path)
        loaded = MACEngine.load(path, make_network())
        assert loaded._default_use_gtree is False
        assert loaded.auto_local_threshold == 7
        overridden = MACEngine.load(
            path, make_network(), auto_local_threshold=99
        )
        assert overridden.auto_local_threshold == 99

    def test_save_returns_manifest_and_info_reads_back(
        self, tmp_path, request_
    ):
        engine = MACEngine(make_network(), use_gtree=True)
        engine.search(request_)
        manifest = engine.save(tmp_path / "snap")
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["fingerprint"].startswith("mset256:")
        info = snapshot_info(tmp_path / "snap")
        assert info["entry_counts"] == {
            "filter": 1, "core": 1, "dominance": 1,
        }
        assert info["has_gtree"] is True
        assert info["files"]["arrays.npz"] > 0

    def test_verify_ok_with_and_without_network(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        info = verify_snapshot(path)
        assert info["arrays_checked"] > 0
        assert info["fingerprint_checked"] is False
        info = verify_snapshot(path, network=make_network())
        assert info["fingerprint_checked"] is True


class TestFailureModes:
    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError, match="not an index snapshot"):
            MACEngine.load(tmp_path / "nope", make_network())

    def test_unparseable_manifest(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotError, match="unreadable"):
            MACEngine.load(path, make_network())

    def test_format_version_mismatch(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            MACEngine.load(path, make_network())
        with pytest.raises(SnapshotError, match="format version"):
            verify_snapshot(path)

    def test_format_1_snapshot_asks_for_a_rebuild(self, tmp_path, request_):
        # Format 1 recorded a compute backend per entry; its keys no
        # longer match the engine's, so it is refused, never misread.
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="rebuild"):
            MACEngine.load(path, make_network())

    def test_format_2_snapshot_asks_for_a_rebuild(self, tmp_path, request_):
        # Format 2 recorded a sha256 fingerprint the engine can no
        # longer verify or maintain; refused, never misread.
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 2
        manifest["fingerprint"] = "sha256:" + "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="rebuild"):
            MACEngine.load(path, make_network())

    def test_format_3_snapshot_asks_for_a_rebuild(self, tmp_path, request_):
        # Format 3 stored a CSR view only for entries of large networks
        # (``has_flat``); entries without one cannot be served any more,
        # so it is refused, never misread.
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 3
        for entry in manifest["components"]["filter"]:
            entry["has_flat"] = False
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="rebuild"):
            MACEngine.load(path, make_network())
        with pytest.raises(SnapshotError, match="rebuild"):
            verify_snapshot(path)

    def test_format_5_snapshot_asks_for_a_rebuild(self, tmp_path, request_):
        # Format 5 stored core entries' CSR unsorted beside a query
        # distance array (``core.<i>.dist``); this build serves H^t_k
        # straight from the stored CSR, which must be row-sorted, so it
        # is refused, never misread.
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 5
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="rebuild"):
            MACEngine.load(path, make_network())
        with pytest.raises(SnapshotError, match="rebuild"):
            verify_snapshot(path)

    def test_format_4_snapshot_asks_for_a_rebuild(self, tmp_path, request_):
        # Format 4 stored filter entries' edges beside their CSR and
        # H^t_k as an edge list (``core.<i>.vertices``/``edges``); this
        # build reads only CSR arrays, so it is refused, never misread.
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 4
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="rebuild"):
            MACEngine.load(path, make_network())
        with pytest.raises(SnapshotError, match="rebuild"):
            verify_snapshot(path)

    def test_wrong_format_name(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="manifest"):
            read_manifest(path)

    def test_truncated_archive(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        arrays = path / "arrays.npz"
        data = arrays.read_bytes()
        arrays.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="corrupt"):
            MACEngine.load(path, make_network())
        with pytest.raises(SnapshotError, match="corrupt"):
            verify_snapshot(path)

    def test_garbage_archive(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        (path / "arrays.npz").write_bytes(b"\x00" * 128)
        with pytest.raises(SnapshotError, match="corrupt"):
            MACEngine.load(path, make_network())

    def test_missing_archive(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        (path / "arrays.npz").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            MACEngine.load(path, make_network())

    def test_missing_promised_array(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        arrays = dict(np.load(path / "arrays.npz"))
        arrays.pop("gtree.mat_w")
        np.savez_compressed(path / "arrays.npz", **arrays)
        with pytest.raises(SnapshotError, match="missing array"):
            verify_snapshot(path)
        with pytest.raises(SnapshotError, match="missing array"):
            MACEngine.load(path, make_network())

    def test_fingerprint_mismatch_on_load_and_verify(
        self, tmp_path, request_
    ):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        other = make_network()
        other.road.add_edge(1, 5, 2.0)
        with pytest.raises(SnapshotError, match="different network"):
            MACEngine.load(path, other)
        with pytest.raises(SnapshotError, match="does not match"):
            verify_snapshot(path, network=other)

    def test_resave_over_existing_snapshot(self, tmp_path, request_, region):
        engine, _result, path = warmed_snapshot(tmp_path, request_)
        other = MACRequest.make((2, 3, 6), 4, 9.0, region)
        engine.search(other)
        engine.save(path)  # overwrite in place with more entries
        loaded = MACEngine.load(path, make_network())
        for req in (request_, other):
            result = loaded.search(req)
            assert result.extra["engine"]["cache"]["core"] == "hit"
        assert not list(tmp_path.glob("snap/tmp-*"))
        assert not list(tmp_path.glob("snap/*.tmp"))

    def test_interrupted_resave_cannot_pair_old_manifest_new_arrays(
        self, tmp_path, request_, region, monkeypatch
    ):
        # Crash-safety contract: once a re-save has begun writing, the
        # old manifest must already be gone, so a crash before the new
        # manifest lands leaves a snapshot that fails to load loudly.
        engine, _result, path = warmed_snapshot(tmp_path, request_)

        boom = RuntimeError("simulated crash during savez")

        def exploding_savez(*args, **kwargs):
            raise boom

        monkeypatch.setattr(np, "savez_compressed", exploding_savez)
        with pytest.raises(RuntimeError):
            engine.save(path)
        monkeypatch.undo()
        with pytest.raises(SnapshotError, match="not an index snapshot"):
            MACEngine.load(path, make_network())

    def test_save_refuses_file_path(self, tmp_path, request_):
        target = tmp_path / "occupied"
        target.write_text("hello")
        engine = MACEngine(make_network())
        with pytest.raises(SnapshotError, match="not a directory"):
            engine.save(target)


class TestContentChecksums:
    def test_save_records_a_checksum_per_array(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        checksums = manifest["checksums"]
        with np.load(path / "arrays.npz") as npz:
            assert set(checksums) == set(npz.files)
        assert all(len(digest) == 64 for digest in checksums.values())

    def test_deep_verify_passes_and_counts(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        shallow = verify_snapshot(path)
        assert shallow["deep"] is False
        assert shallow["checksums_checked"] == 0
        deep = verify_snapshot(path, deep=True)
        assert deep["deep"] is True
        assert deep["checksums_checked"] == deep["arrays_checked"] > 0

    def test_bit_rot_fails_deep_but_not_shallow(self, tmp_path, request_):
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        arrays = dict(np.load(path / "arrays.npz"))
        key = next(k for k, a in arrays.items() if a.size > 0)
        flipped = np.array(arrays[key])
        flipped.flat[0] += 1
        arrays[key] = flipped
        np.savez_compressed(path / "arrays.npz", **arrays)
        # Same dtype and shape: the structural check cannot see the rot.
        assert verify_snapshot(path)["arrays_checked"] > 0
        with pytest.raises(SnapshotError, match="content checksum"):
            verify_snapshot(path, deep=True)

    def test_pre_checksum_snapshots_stay_loadable(self, tmp_path, request_):
        """Snapshots saved before checksums existed (no ``checksums``
        table) still load and deep-verify — vacuously, with zero
        checksums checked — rather than failing the upgrade."""
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["checksums"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        engine = MACEngine.load(path, make_network())
        assert engine.search(request_).partitions
        info = verify_snapshot(path, deep=True)
        assert info["deep"] is True
        assert info["checksums_checked"] == 0

    def test_checksum_is_layout_independent(self, tmp_path, request_):
        """The digest covers dtype/shape/content, not the npz encoding:
        an uncompressed re-save of identical arrays deep-verifies
        against the checksums recorded at compressed save time."""
        _engine, _result, path = warmed_snapshot(tmp_path, request_)
        arrays = dict(np.load(path / "arrays.npz"))
        np.savez(path / "arrays.npz", **arrays)  # uncompressed layout
        info = verify_snapshot(path, deep=True)
        assert info["checksums_checked"] > 0


class TestComponentCodecs:
    def test_flatgraph_array_round_trip_weighted(self):
        road = paper_road()
        original = road.flat()
        restored = FlatGraph.from_arrays(**original.to_arrays())
        assert restored.ids == original.ids
        assert np.array_equal(restored.indptr, original.indptr)
        assert np.array_equal(restored.indices, original.indices)
        assert np.array_equal(restored.weights, original.weights)
        assert restored.row_of(9) == original.row_of(9)
        assert 999 not in restored

    def test_flatgraph_array_round_trip_unweighted(self):
        original = FlatGraph.from_adjacency(paper_social_graph())
        restored = FlatGraph.from_arrays(**original.to_arrays())
        assert restored.ids == original.ids
        assert restored.weights is None
        assert np.array_equal(restored.indptr, original.indptr)

    def test_flatgraph_rejects_non_int_ids(self):
        fg = FlatGraph.from_adjacency(
            type("G", (), {
                "vertices": lambda self: ["a", "b"],
                "neighbors": lambda self, v: {"a": {"b"}, "b": {"a"}}[v],
            })()
        )
        with pytest.raises(GraphError, match="int-keyed"):
            fg.to_arrays()

    def test_dominance_from_hasse_identity(self, region):
        attrs = {
            v: x for v, x in paper_attributes().items() if v <= 7
        }
        original = DominanceGraph(attrs, region)
        restored = DominanceGraph.from_hasse(
            attrs, region, original.order, original.parents
        )
        assert restored.order == original.order
        assert restored.parents == original.parents
        assert restored.children == original.children
        assert restored.roots == original.roots
        assert all(
            restored.layer(v) == original.layer(v) for v in original.order
        )
        assert restored.tops_within([1, 3, 5]) == original.tops_within(
            [1, 3, 5]
        )

    def test_dominance_from_hasse_rejects_bad_order(self, region):
        attrs = {v: x for v, x in paper_attributes().items() if v <= 3}
        original = DominanceGraph(attrs, region)
        with pytest.raises(GraphError, match="permutation"):
            DominanceGraph.from_hasse(
                attrs, region, original.order[:-1], original.parents
            )
