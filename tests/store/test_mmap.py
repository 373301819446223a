"""Uncompressed snapshots + memory-mapped loads (the worker tier's diet)."""

import zipfile

import numpy as np
import pytest

from repro import MACEngine, MACRequest, PreferenceRegion, SnapshotError
from repro.road.network import SpatialPoint
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork
from repro.store.snapshot import (
    _get,
    _MmapArchive,
    _open_arrays,
    read_manifest,
)

from tests.conftest import paper_attributes, paper_road, paper_social_graph


def make_network() -> RoadSocialNetwork:
    locations = {v: SpatialPoint.at_vertex(v) for v in range(1, 16)}
    return RoadSocialNetwork(
        paper_road(),
        SocialNetwork(paper_social_graph(), paper_attributes(), locations),
    )


@pytest.fixture(autouse=True)
def flat_side(force_path):
    """Build every G-tree here on the flat side (the CSR payloads of the
    road and the filter entries are there either way)."""
    force_path("flat")


@pytest.fixture
def request_() -> MACRequest:
    return MACRequest.make(
        (2, 3, 6), 3, 9.0, PreferenceRegion([0.1, 0.2], [0.5, 0.4])
    )


def build_snapshot(tmp_path, request_, compress: bool):
    engine = MACEngine(make_network(), use_gtree=True)
    result = engine.search(request_)
    path = tmp_path / ("snap-c" if compress else "snap-u")
    manifest = engine.save(path, compress=compress)
    return path, manifest, result


def members(result):
    return [sorted(entry.best.members) for entry in result.partitions]


def root_buffer(arr):
    """The object at the end of ``arr``'s base chain (its mapping)."""
    while arr.base is not None and isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.base


class TestUncompressedLayout:
    def test_manifest_records_the_layout(self, tmp_path, request_):
        path, manifest, _result = build_snapshot(tmp_path, request_, False)
        assert manifest["compressed"] is False
        assert read_manifest(path)["compressed"] is False
        path, manifest, _result = build_snapshot(tmp_path, request_, True)
        assert manifest["compressed"] is True

    def test_mmap_load_matches_the_compressed_round_trip(
        self, tmp_path, request_
    ):
        path, _manifest, cold = build_snapshot(tmp_path, request_, False)
        engine = MACEngine.load(path, make_network(), mmap=True)
        warm = engine.search(request_)
        assert members(warm) == members(cold)
        timings = warm.extra["engine"]["timings"]
        assert timings["filter"] == timings["core"] == 0.0

    def test_mmap_load_is_file_backed(self, tmp_path, request_):
        path, _manifest, _cold = build_snapshot(tmp_path, request_, False)
        engine = MACEngine.load(path, make_network(), mmap=True)
        flat = engine.network.road._flat

        def backing(arr):
            # from_arrays may wrap the memmap in zero-copy ndarray
            # views; walk the base chain to the memmap that owns the
            # buffer (whose own base is the raw mmap.mmap).
            while not isinstance(arr, np.memmap) and arr.base is not None:
                arr = arr.base
            return arr

        # The CSR payload is a read-only view into arrays.npz, not a
        # private copy — this is what N workers page-share.
        for arr in (flat.indptr, flat.indices):
            owner = backing(arr)
            assert isinstance(owner, np.memmap)
            assert str(owner.filename) == str(path / "arrays.npz")
            assert not arr.flags.writeable

    def test_archive_counts_mapped_members(self, tmp_path, request_):
        path, _manifest, _cold = build_snapshot(tmp_path, request_, False)
        with _open_arrays(path, mmap=True) as npz:
            assert isinstance(npz, _MmapArchive)
            arr = npz["road_flat.indptr"]
            assert isinstance(arr, np.memmap)
            assert npz.mapped == 1

    def test_every_mapped_member_views_one_mapping(self, tmp_path, request_):
        path, _manifest, _cold = build_snapshot(tmp_path, request_, False)
        with _open_arrays(path, mmap=True) as npz:
            arrays = [npz[key] for key in npz.files]
            mapped = [a for a in arrays if isinstance(a, np.memmap)]
            assert npz.mapped == len(mapped) > 3
            roots = {id(root_buffer(a)) for a in mapped}
            assert len(roots) == 1
            assert all(not a.flags.writeable for a in mapped)
        engine = MACEngine.load(path, make_network(), mmap=True)
        (prep,) = (p for _key, p in engine._filter_cache.items())
        (core,) = (c for _key, c in engine._core_cache.items())
        loaded = [
            engine.network.road._flat.indptr,
            prep.flat.indices,
            core.flat.indptr,
            core.flat.indices,
        ]
        assert len({id(root_buffer(a)) for a in loaded}) == 1

    def test_a_bad_local_header_is_not_mapped(self, tmp_path, request_):
        path, _manifest, _cold = build_snapshot(tmp_path, request_, False)
        archive = path / "arrays.npz"
        with zipfile.ZipFile(archive) as zf:
            offset = zf.getinfo("road_flat.indptr.npy").header_offset
        data = bytearray(archive.read_bytes())
        data[offset : offset + 4] = b"JUNK"
        archive.write_bytes(bytes(data))
        with _open_arrays(path, mmap=True) as npz:
            with pytest.raises(SnapshotError, match="corrupted"):
                _get(npz, "road_flat.indptr")
            assert npz.mapped == 0
            assert isinstance(npz["road_flat.indices"], np.memmap)
            assert npz.mapped == 1

    def test_mmap_member_equals_decompressed_member(self, tmp_path, request_):
        path, _manifest, _cold = build_snapshot(tmp_path, request_, False)
        plain = np.load(path / "arrays.npz")
        with _open_arrays(path, mmap=True) as npz:
            for key in sorted(plain.files):
                np.testing.assert_array_equal(np.asarray(npz[key]), plain[key])


class TestCompressedFallback:
    def test_mmap_on_a_compressed_snapshot_degrades_to_copies(
        self, tmp_path, request_
    ):
        path, _manifest, cold = build_snapshot(tmp_path, request_, True)
        with _open_arrays(path, mmap=True) as npz:
            arr = npz["road_flat.indptr"]
            assert not isinstance(arr, np.memmap)
            assert npz.mapped == 0
        engine = MACEngine.load(path, make_network(), mmap=True)
        assert members(engine.search(request_)) == members(cold)

    def test_default_load_still_reads_uncompressed_snapshots(
        self, tmp_path, request_
    ):
        path, _manifest, cold = build_snapshot(tmp_path, request_, False)
        engine = MACEngine.load(path, make_network())
        assert not isinstance(engine.network.road._flat.indptr, np.memmap)
        assert members(engine.search(request_)) == members(cold)
