"""Versioned on-disk snapshots of prepared MAC-engine state.

The paper's index machinery is pay-once-query-many: the G-tree, the CSR
views, the per-(Q, t) coreness arrays, and the r-dominance DAGs are all
expensive to build and cheap to use.  :class:`~repro.engine.MACEngine`
amortizes them in memory; this module makes them durable, so a fresh
process warm-starts from disk instead of rebuilding — the first query
after :func:`load_snapshot` performs zero index builds.

Format (one snapshot = one directory)::

    <snapshot>/
      manifest.json   format version, dataset fingerprint, engine
                      configuration, per-entry keys + metadata
      arrays.npz      every numeric payload, keyed ``<component>.<field>``
      deltas.jsonl    optional append-only mutation log (one batch per
                      line); replayed by :func:`load_snapshot` to
                      fast-forward the base snapshot

The manifest is the source of truth for *what* is in the snapshot; the
``.npz`` holds only arrays.  Loads are strict: a missing file, corrupted
archive, unknown format version, or fingerprint mismatch against the
supplied network raises :class:`~repro.errors.SnapshotError` — a stale
snapshot must never silently answer for a different network.

The delta log makes small live mutations durable without re-saving the
whole snapshot: :func:`append_delta` appends one
:mod:`repro.live` batch (wire form) per line, and
:func:`load_snapshot` replays the log through
:meth:`~repro.engine.MACEngine.apply` after restoring the base arrays.
The manifest ``fingerprint`` always describes the *base* network; the
fingerprint check runs before replay, so the network handed to
``load_snapshot`` must match the snapshot's build-time state and is
then mutated forward batch by batch.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import zipfile
import zlib
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.dominance.graph import DominanceGraph
from repro.errors import ReproError, SnapshotError
from repro.geometry.region import PreferenceRegion
from repro.kernels.flatgraph import FlatGraph
from repro.road.gtree import GTree
from repro.social.roadsocial import RoadSocialNetwork
from repro.store.fingerprint import (
    format_digest,
    network_digest,
    network_fingerprint,
)

#: Bump on any incompatible change to the manifest or array layout.
#: v2: stage-cache keys and the manifest carry no compute backend.
#: v3: the manifest fingerprint is the ``mset256:`` multiset digest.
#: v4: every filter entry stores its CSR view and per-row coreness.
#: v5: every graph is stored as CSR arrays only (no edge lists).
#: v6: core entries store H^t_k's row-sorted CSR and no query distances.
FORMAT_VERSION = 6

FORMAT_NAME = "repro-index-snapshot"

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"
DELTAS_FILE = "deltas.jsonl"

#: Bump on any incompatible change to the delta-log record layout.
DELTA_VERSION = 1

#: The arrays of filter entry ``i``, stored as ``filter.<i>.<name>``.
_FILTER_ARRAYS = ("ids", "dist", "coreness", "flat_indptr", "flat_indices")

#: The arrays of feasible core entry ``i``, stored as ``core.<i>.<name>``:
#: H^t_k's CSR with each row's neighbors sorted.
_CORE_ARRAYS = ("ids", "indptr", "indices")

#: The G-tree state arrays, stored as ``gtree.<name>``.
_GTREE_ARRAYS = (
    "parent",
    "is_leaf",
    "vert_ptr",
    "vert_flat",
    "border_ptr",
    "border_flat",
    "mat_ptr",
    "mat_src",
    "mat_dst",
    "mat_w",
)

_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    ValueError,
    EOFError,
)


# ----------------------------------------------------------------------
# small codecs
# ----------------------------------------------------------------------
def _filter_key_json(key: tuple) -> dict:
    query, t = key
    return {"query": list(query), "t": t}


def _filter_key_from_json(entry: dict) -> tuple:
    return (tuple(int(v) for v in entry["query"]), float(entry["t"]))


def _core_key_json(key: tuple) -> dict:
    query, k, t = key
    return {"query": list(query), "k": k, "t": t}


def _core_key_from_json(entry: dict) -> tuple:
    return (
        tuple(int(v) for v in entry["query"]),
        int(entry["k"]),
        float(entry["t"]),
    )


def _dominance_key_json(key: tuple) -> dict:
    query, k, t, region = key
    return {
        "query": list(query),
        "k": k,
        "t": t,
        "region": [list(region[0]), list(region[1])],
    }


def _dominance_key_from_json(entry: dict) -> tuple:
    lows, highs = entry["region"]
    return (
        tuple(int(v) for v in entry["query"]),
        int(entry["k"]),
        float(entry["t"]),
        (
            tuple(float(x) for x in lows),
            tuple(float(x) for x in highs),
        ),
    )


def _array_sha256(arr: np.ndarray) -> str:
    """Content hash of one array: dtype + shape + C-contiguous bytes.

    Hashing the logical content (not the on-disk encoding) keeps the
    checksum stable across compressed/uncompressed saves and across
    numpy serialization details.
    """
    digest = hashlib.sha256()
    digest.update(arr.dtype.str.encode())
    digest.update(repr(tuple(arr.shape)).encode())
    digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_snapshot(engine, path, *, compress: bool = True) -> dict:
    """Serialize an engine's prepared state under directory ``path``.

    Crash-safe in both directions: any existing manifest is removed
    first (instantly invalidating the old snapshot), both files are
    written to temporary names and renamed into place, and the manifest
    lands last — so a crash mid-save leaves a snapshot that fails to
    load (no manifest), never one pairing an old manifest with new
    arrays.  Returns the manifest dict.

    ``compress=False`` stores the arrays uncompressed, which makes the
    snapshot memory-mappable: ``load_snapshot(..., mmap=True)`` then
    opens the big payloads as shared read-only pages instead of copying
    them per process (the worker tier's memory-sharing substrate).
    """
    network: RoadSocialNetwork = engine.network
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise SnapshotError(f"snapshot path {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)

    arrays: dict[str, np.ndarray] = {}
    components: dict[str, Any] = {}

    road_flat = network.road._flat
    if road_flat is not None:
        for name, arr in road_flat.to_arrays().items():
            arrays[f"road_flat.{name}"] = arr
        components["road_flat"] = {
            "vertices": road_flat.n,
            "edges": road_flat.num_edges,
            "weighted": road_flat.weights is not None,
        }

    if network.has_gtree:
        gtree = network.gtree
        for name, arr in gtree.to_state().items():
            arrays[f"gtree.{name}"] = arr
        components["gtree"] = {
            "leaf_size": gtree.leaf_size,
            "nodes": gtree.num_nodes,
            "leaves": gtree.num_leaves,
        }

    filter_entries = []
    for i, (key, prep) in enumerate(engine._filter_cache.items()):
        ids = prep.flat.ids
        arrays[f"filter.{i}.ids"] = np.asarray(ids, np.int64)
        arrays[f"filter.{i}.dist"] = np.asarray(
            [prep.query_distance[v] for v in ids], np.float64
        )
        arrays[f"filter.{i}.coreness"] = np.asarray(prep.core_rows, np.int64)
        arrays[f"filter.{i}.flat_indptr"] = prep.flat.indptr
        arrays[f"filter.{i}.flat_indices"] = prep.flat.indices
        entry = _filter_key_json(key)
        entry["vertices"] = len(ids)
        filter_entries.append(entry)
    components["filter"] = filter_entries

    core_entries = []
    for i, (key, state) in enumerate(engine._core_cache.items()):
        entry = _core_key_json(key)
        entry["feasible"] = state.flat is not None
        if state.flat is not None:
            csr = state.flat.to_arrays()
            for name in _CORE_ARRAYS:
                arrays[f"core.{i}.{name}"] = csr[name]
            entry["vertices"] = state.flat.n
        core_entries.append(entry)
    components["core"] = core_entries

    dominance_entries = []
    for i, (key, gd) in enumerate(engine._gd_cache.items()):
        order = gd.order
        pos = {v: j for j, v in enumerate(order)}
        parent_ptr = np.zeros(len(order) + 1, np.int64)
        parent_flat: list[int] = []
        for j, v in enumerate(order):
            parent_flat.extend(pos[p] for p in gd.parents[v])
            parent_ptr[j + 1] = len(parent_flat)
        arrays[f"dominance.{i}.order"] = np.asarray(order, np.int64)
        arrays[f"dominance.{i}.parent_ptr"] = parent_ptr
        arrays[f"dominance.{i}.parent_flat"] = np.asarray(
            parent_flat, np.int64
        )
        entry = _dominance_key_json(key)
        entry["vertices"] = gd.num_vertices
        entry["arcs"] = gd.num_arcs()
        dominance_entries.append(entry)
    components["dominance"] = dominance_entries

    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "repro_version": repro.__version__,
        "numpy_version": np.__version__,
        "fingerprint": network_fingerprint(network),
        "compressed": bool(compress),
        "engine": {
            "default_use_gtree": engine._default_use_gtree,
            "gtree_leaf_size": engine.gtree_leaf_size,
            "auto_local_threshold": engine.auto_local_threshold,
            "filter_cache_size": engine._filter_cache.capacity,
            "core_cache_size": engine._core_cache.capacity,
            "dominance_cache_size": engine._gd_cache.capacity,
            "result_cache_size": (
                engine._result_cache.capacity
                if engine._result_cache is not None
                else 0
            ),
        },
        "network": {
            "road_vertices": network.road.num_vertices,
            "road_edges": network.road.num_edges,
            "social_users": network.social.num_users,
            "social_edges": network.social.num_edges,
            "dimensions": network.social.dimensionality,
        },
        "components": components,
        # Per-array content hashes for `repro index verify --deep`.
        # Additive: snapshots without this table (older saves) still
        # load and shallow-verify; deep verification just reports zero
        # checksums checked.
        "checksums": {key: _array_sha256(arr) for key, arr in arrays.items()},
    }

    manifest_path = path / MANIFEST_FILE
    manifest_path.unlink(missing_ok=True)
    # The tmp name must keep the .npz suffix (savez appends it otherwise).
    arrays_tmp = path / ("tmp-" + ARRAYS_FILE)
    if compress:
        np.savez_compressed(arrays_tmp, **arrays)
    else:
        np.savez(arrays_tmp, **arrays)
    arrays_tmp.replace(path / ARRAYS_FILE)
    manifest_tmp = path / (MANIFEST_FILE + ".tmp")
    manifest_tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    manifest_tmp.replace(manifest_path)
    return manifest


# ----------------------------------------------------------------------
# read-side helpers
# ----------------------------------------------------------------------
def read_manifest(path) -> dict:
    """Parse and structurally validate a snapshot manifest."""
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not path.is_dir() or not manifest_path.is_file():
        raise SnapshotError(
            f"{path} is not an index snapshot (no {MANIFEST_FILE})"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"unreadable snapshot manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise SnapshotError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION}); rebuild the "
            f"snapshot with `python -m repro.cli index build`"
        )
    if "components" not in manifest or "fingerprint" not in manifest:
        raise SnapshotError(f"snapshot manifest {manifest_path} is incomplete")
    return manifest


def snapshot_digest(path) -> str:
    """Content digest (sha256 hex) of a snapshot's manifest.

    The network ``fingerprint`` identifies the *dataset*: two snapshots
    built from the same network — say, rebuilt with different warmed
    stages — share it.  The manifest digest identifies the *index
    build* (components, warmed cache keys, versions, build metadata),
    so the zero-downtime reload path can report an observable identity
    flip even when a live swap lands on the same dataset.
    """
    path = Path(path)
    read_manifest(path)  # validate before digesting
    return hashlib.sha256((path / MANIFEST_FILE).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# delta log
# ----------------------------------------------------------------------
def read_deltas(path) -> list[dict]:
    """Parse a snapshot's delta log into a list of batch records.

    Each record is ``{"delta_version": 1, "seq": n, "mutations": [...]}``
    with ``seq`` running 1..N without gaps — the sequence number of the
    batch doubles as the engine ``delta_seq`` after replaying it.  A
    missing log is an empty list (every base snapshot starts at depth
    0); a malformed line, version mismatch, or sequence gap raises
    :class:`SnapshotError` — a half-understood log must never be
    half-replayed.
    """
    path = Path(path)
    log = path / DELTAS_FILE
    if not log.is_file():
        return []
    try:
        lines = log.read_text().splitlines()
    except OSError as exc:
        raise SnapshotError(f"unreadable delta log {log}: {exc}") from exc
    batches: list[dict] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"corrupted delta log {log} line {lineno}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise SnapshotError(
                f"delta log {log} line {lineno} is not a batch record"
            )
        version = record.get("delta_version")
        if version != DELTA_VERSION:
            raise SnapshotError(
                f"delta log {log} line {lineno} has version {version!r} "
                f"(this build reads version {DELTA_VERSION})"
            )
        mutations = record.get("mutations")
        if not isinstance(mutations, list) or not mutations:
            raise SnapshotError(
                f"delta log {log} line {lineno} has no mutations"
            )
        expected = len(batches) + 1
        if record.get("seq") != expected:
            raise SnapshotError(
                f"delta log {log} line {lineno}: expected seq {expected}, "
                f"got {record.get('seq')!r} (the log is append-only and "
                f"gap-free)"
            )
        batches.append(record)
    return batches


def append_delta(path, mutations) -> int:
    """Append one mutation batch to a snapshot's delta log.

    ``mutations`` is a :mod:`repro.live` batch (typed mutations or wire
    dicts); it is normalized to wire form before writing, so a log line
    is always replayable without the originating process.  Returns the
    batch's sequence number (= the delta depth after the append).  The
    caller is responsible for only appending batches that actually
    applied cleanly to the snapshot's engine — the log records history,
    it does not validate against a network.
    """
    from repro.live.mutations import mutation_to_wire, normalize_batch

    path = Path(path)
    read_manifest(path)  # only ever log against a real snapshot
    wire = [mutation_to_wire(m) for m in normalize_batch(mutations)]
    seq = len(read_deltas(path)) + 1
    record = {"delta_version": DELTA_VERSION, "seq": seq, "mutations": wire}
    with open(path / DELTAS_FILE, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, separators=(",", ":")) + "\n")
    return seq


class _MmapArchive:
    """Read-only ``.npz`` view that memory-maps uncompressed members.

    ``np.load(mmap_mode=...)`` silently ignores the mmap request for
    zipped archives, so this opens the zip by hand and maps the archive
    file once: a member stored uncompressed
    (``save_snapshot(compress=False)``) comes back as a read-only
    ``np.memmap`` view into that one mapping — demand-paged physical
    memory the kernel shares across every process mapping the same
    snapshot — while a deflated member falls back to a normal in-memory
    read.  ``mapped`` counts how many lookups actually mapped, so
    callers can tell whether sharing is in effect.
    """

    def __init__(self, path: Path) -> None:
        self._zf = zipfile.ZipFile(path)
        self._base = np.memmap(path, dtype=np.uint8, mode="r")
        self.files = [
            name[:-4] for name in self._zf.namelist() if name.endswith(".npy")
        ]
        self.mapped = 0

    def __getitem__(self, key: str) -> np.ndarray:
        name = key + ".npy"
        try:
            info = self._zf.getinfo(name)
        except KeyError:
            raise KeyError(key) from None
        if info.compress_type == zipfile.ZIP_STORED:
            array = self._map_member(info)
            if array is not None:
                self.mapped += 1
                return array
        with self._zf.open(name) as member:
            return np.lib.format.read_array(member)

    def _map_member(self, info: zipfile.ZipInfo) -> np.ndarray | None:
        # ``header_offset`` points at the member's *local* file header,
        # whose name/extra fields may differ in length from the central
        # directory's copy — the payload offset must come from it.
        base = self._base
        local = base[info.header_offset : info.header_offset + 30].tobytes()
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            return None  # the copy path reports the corruption
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        start = info.header_offset + 30 + name_len + extra_len
        readers = {
            (1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0,
        }
        # A .npy header is padded to a multiple of 64 bytes; one longer
        # than this read fails to parse and takes the copy path.
        header = io.BytesIO(base[start : start + 1024].tobytes())
        try:
            read_header = readers.get(tuple(np.lib.format.read_magic(header)))
            if read_header is None:
                return None  # unknown .npy version: take the copy path
            shape, fortran, dtype = read_header(header)
        except Exception:
            return None  # unreadable .npy header: take the copy path
        if dtype.hasobject or any(s == 0 for s in shape):
            return None  # not mappable (pickled objects / zero bytes)
        start += header.tell()
        size = int(np.prod(shape)) * dtype.itemsize
        if start + size > base.size or size != info.file_size - header.tell():
            return None  # payload past the member: take the copy path
        order = "F" if fortran else "C"
        return base[start : start + size].view(dtype).reshape(shape, order=order)

    def close(self) -> None:
        self._zf.close()

    def __enter__(self) -> _MmapArchive:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _open_arrays(path: Path, mmap: bool = False):
    arrays_path = path / ARRAYS_FILE
    if not arrays_path.is_file():
        raise SnapshotError(f"snapshot is missing {arrays_path}")
    try:
        if mmap:
            return _MmapArchive(arrays_path)
        return np.load(arrays_path)
    except _CORRUPTION_ERRORS as exc:
        raise SnapshotError(
            f"corrupted snapshot archive {arrays_path}: {exc}"
        ) from exc


def _get(npz, key: str) -> np.ndarray:
    try:
        return npz[key]
    except KeyError:
        raise SnapshotError(
            f"snapshot archive is missing array {key!r}"
        ) from None
    except _CORRUPTION_ERRORS as exc:
        raise SnapshotError(
            f"corrupted snapshot array {key!r}: {exc}"
        ) from exc


def _expected_keys(manifest: dict) -> list[str]:
    """Every array key the manifest promises the archive contains."""
    comp = manifest["components"]
    keys: list[str] = []
    if "road_flat" in comp:
        keys += ["road_flat.indptr", "road_flat.indices", "road_flat.ids"]
        if comp["road_flat"].get("weighted"):
            keys.append("road_flat.weights")
    if "gtree" in comp:
        keys += [f"gtree.{name}" for name in _GTREE_ARRAYS]
    for i in range(len(comp.get("filter", []))):
        keys += [f"filter.{i}.{name}" for name in _FILTER_ARRAYS]
    for i, entry in enumerate(comp.get("core", [])):
        if entry.get("feasible"):
            keys += [f"core.{i}.{name}" for name in _CORE_ARRAYS]
    for i in range(len(comp.get("dominance", []))):
        keys += [
            f"dominance.{i}.order", f"dominance.{i}.parent_ptr",
            f"dominance.{i}.parent_flat",
        ]
    return keys


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def load_snapshot(path, network: RoadSocialNetwork, *, mmap=False, **overrides):
    """Reconstruct a warm :class:`~repro.engine.MACEngine` from ``path``.

    ``network`` must be content-identical to the network the snapshot
    was built from (checked via :func:`network_fingerprint`; mismatch
    raises :class:`SnapshotError`).  Engine construction knobs are
    restored from the manifest; ``overrides`` (any ``MACEngine``
    keyword) win over the recorded values.

    If the snapshot carries a delta log (``deltas.jsonl``, see
    :func:`append_delta`), every logged batch is replayed through
    :meth:`~repro.engine.MACEngine.apply` after the base restore: the
    network is fast-forwarded in place and the engine comes back with
    ``delta_seq`` equal to the log depth.  A batch that no longer
    applies cleanly raises :class:`SnapshotError` naming the failing
    sequence number.

    After the restore every snapshotted pipeline stage is a cache hit:
    the first query builds no filter, core, or dominance state, which
    ``telemetry().stage_seconds`` and the per-result ``timings`` report
    as exact zeros.

    Graphs are stored as CSR arrays only and adopted as they are
    (``FlatGraph.from_arrays``): no filter or core entry is rebuilt
    into adjacency sets, and each core entry's H^t_k is its stored
    row-sorted CSR.

    With ``mmap=True``, arrays stored uncompressed (``save_snapshot``
    with ``compress=False``) are opened as read-only ``np.memmap``
    views instead of copies, so the CSR payloads (road, filter and core
    graphs and the coreness rows) stay file-backed and page-shared
    across processes.  State rebuilt into Python objects (G-tree node
    maps, dominance DAGs, attribute maps) is materialized either way —
    the worker tier shares those via fork copy-on-write.  Compressed
    members silently fall back to a normal read.
    """
    from repro.engine.engine import (
        MACEngine,
        _PreparedCore,
        _PreparedFilter,
    )

    path = Path(path)
    manifest = read_manifest(path)
    digest = network_digest(network)
    fingerprint = format_digest(digest)
    if fingerprint != manifest["fingerprint"]:
        raise SnapshotError(
            f"snapshot {path} was built for a different network "
            f"(fingerprint {manifest['fingerprint'][:23]}..., "
            f"supplied network is {fingerprint[:23]}...); rebuild the "
            f"snapshot or load the matching dataset"
        )

    cfg = manifest.get("engine", {})
    kwargs: dict[str, Any] = {
        "use_gtree": cfg.get("default_use_gtree", "auto"),
        "gtree_leaf_size": cfg.get("gtree_leaf_size", 64),
        "auto_local_threshold": cfg.get("auto_local_threshold", 256),
        "filter_cache_size": cfg.get("filter_cache_size", 128),
        "core_cache_size": cfg.get("core_cache_size", 128),
        "dominance_cache_size": cfg.get("dominance_cache_size", 64),
        "result_cache_size": cfg.get("result_cache_size", 256),
    }
    kwargs.update(overrides)

    comp = manifest["components"]
    with _open_arrays(path, mmap=bool(mmap)) as npz:
        if "road_flat" in comp:
            network.road._flat = FlatGraph.from_arrays(
                _get(npz, "road_flat.indptr"),
                _get(npz, "road_flat.indices"),
                _get(npz, "road_flat.ids"),
                (
                    _get(npz, "road_flat.weights")
                    if comp["road_flat"].get("weighted")
                    else None
                ),
            )

        if "gtree" in comp and not network.has_gtree:
            meta = comp["gtree"]
            state = {name: _get(npz, f"gtree.{name}") for name in _GTREE_ARRAYS}
            network._gtree = GTree.from_state(
                network.road,
                state,
                leaf_size=int(meta["leaf_size"]),
            )

        engine = MACEngine(network, **kwargs)
        # Adopt the digest just verified; the replay below advances it.
        engine._digest = digest

        for i, entry in enumerate(comp.get("filter", [])):
            key = _filter_key_from_json(entry)
            ids = _get(npz, f"filter.{i}.ids")
            dist = _get(npz, f"filter.{i}.dist")
            flat = FlatGraph.from_arrays(
                _get(npz, f"filter.{i}.flat_indptr"),
                _get(npz, f"filter.{i}.flat_indices"),
                ids,
            )
            engine._filter_cache.put(key, _PreparedFilter(
                query_distance=dict(zip(ids.tolist(), dist.tolist())),
                flat=flat,
                core_rows=_get(npz, f"filter.{i}.coreness").astype(
                    np.int64, copy=False
                ),
            ))

        for i, entry in enumerate(comp.get("core", [])):
            key = _core_key_from_json(entry)
            if not entry.get("feasible"):
                engine._core_cache.put(key, _PreparedCore(None, None))
                continue
            htk = FlatGraph.from_arrays(
                _get(npz, f"core.{i}.indptr"),
                _get(npz, f"core.{i}.indices"),
                _get(npz, f"core.{i}.ids"),
            )
            attrs = network.social.attributes_for(htk.ids)
            engine._core_cache.put(key, _PreparedCore(htk, attrs))

        for i, entry in enumerate(comp.get("dominance", [])):
            key = _dominance_key_from_json(entry)
            order = _get(npz, f"dominance.{i}.order").tolist()
            ptr = _get(npz, f"dominance.{i}.parent_ptr").tolist()
            flat_pos = _get(npz, f"dominance.{i}.parent_flat").tolist()
            parents = {
                v: tuple(order[p] for p in flat_pos[ptr[j]:ptr[j + 1]])
                for j, v in enumerate(order)
            }
            lows, highs = key[3]
            gd = DominanceGraph.from_hasse(
                network.social.attributes_for(order),
                PreferenceRegion(lows, highs),
                order,
                parents,
            )
            engine._gd_cache.put(key, gd)

    for batch in read_deltas(path):
        try:
            engine.apply(batch["mutations"])
        except ReproError as exc:
            raise SnapshotError(
                f"snapshot {path} delta replay failed at seq "
                f"{batch['seq']}: {exc}"
            ) from exc
    return engine


# ----------------------------------------------------------------------
# info / verify
# ----------------------------------------------------------------------
def snapshot_info(path) -> dict:
    """Manifest plus on-disk sizes, without decompressing any arrays."""
    path = Path(path)
    manifest = read_manifest(path)
    files = {}
    for name in (MANIFEST_FILE, ARRAYS_FILE, DELTAS_FILE):
        f = path / name
        if f.is_file():
            files[name] = f.stat().st_size
    comp = manifest["components"]
    return {
        "path": str(path),
        "manifest": manifest,
        "files": files,
        "entry_counts": {
            "filter": len(comp.get("filter", [])),
            "core": len(comp.get("core", [])),
            "dominance": len(comp.get("dominance", [])),
        },
        "has_gtree": "gtree" in comp,
        "has_road_flat": "road_flat" in comp,
        "delta_depth": len(read_deltas(path)),
    }


def verify_snapshot(
    path, network: RoadSocialNetwork | None = None, *, deep: bool = False
) -> dict:
    """Fully check a snapshot's integrity; raise ``SnapshotError`` if bad.

    Reads the manifest (format + version checks), decompresses every
    array the manifest promises (catching truncation/corruption), and —
    when ``network`` is given — verifies the dataset fingerprint.  With
    ``deep=True``, additionally recomputes every array's sha256 content
    hash against the manifest's ``checksums`` table, catching silent
    bit-flips that still decompress cleanly; snapshots saved before the
    table existed pass deep verification with ``checksums_checked: 0``.
    Returns the :func:`snapshot_info` dict augmented with the number of
    arrays (and checksums) checked.
    """
    path = Path(path)
    info = snapshot_info(path)
    manifest = info["manifest"]
    expected = _expected_keys(manifest)
    checksums = manifest.get("checksums") if deep else None
    checksums_checked = 0
    with _open_arrays(path) as npz:
        present = set(npz.files)
        for key in expected:
            if key not in present:
                raise SnapshotError(
                    f"snapshot archive is missing array {key!r}"
                )
            arr = _get(npz, key)  # decompress: surfaces truncated members
            if checksums and key in checksums:
                actual = _array_sha256(np.asarray(arr))
                if actual != checksums[key]:
                    raise SnapshotError(
                        f"snapshot array {key!r} failed its content "
                        f"checksum (expected {checksums[key][:16]}..., "
                        f"got {actual[:16]}...); the archive is corrupted"
                    )
                checksums_checked += 1
    if network is not None:
        fingerprint = network_fingerprint(network)
        if fingerprint != manifest["fingerprint"]:
            raise SnapshotError(
                f"snapshot fingerprint {manifest['fingerprint'][:23]}... "
                f"does not match the supplied network "
                f"({fingerprint[:23]}...)"
            )
        info["fingerprint_checked"] = True
    else:
        info["fingerprint_checked"] = False
    info["arrays_checked"] = len(expected)
    info["deep"] = bool(deep)
    info["checksums_checked"] = checksums_checked
    return info
