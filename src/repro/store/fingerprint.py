"""Content fingerprints of road-social networks.

A snapshot (see :mod:`repro.store.snapshot`) is only valid against the
exact network it was built from: every serialized artifact — G-tree
matrices, CSR views, coreness arrays, dominance DAGs — is a pure
function of the road topology, social topology, attributes, and
check-in locations.  ``network_fingerprint`` digests all four into one
stable string that the snapshot manifest records and the load path
verifies, so a stale snapshot fails loudly instead of silently serving
answers for a different network.

The digest is an additive multiset hash: the network is a set of
canonical *records* — road vertex + coordinates, road edge ``(u < v)``
+ weight, user, social edge ``(u < v)``, user + attribute vector, user
+ location — and the digest is the sum mod 2^256 of their BLAKE2b-256
hashes.  A sum is independent of iteration order and of how the
network object was assembled, yet sensitive to any semantic change (an
added edge, a perturbed weight or attribute, a moved check-in; floats
are hashed by their IEEE bytes, so ``-0.0`` and NaN payloads count).
Because it is a sum, a mutation updates it in O(Δ): subtract the
records it can touch as they were before, add them as they are after
(:func:`touched_records` + :func:`records_digest`), which is how
:meth:`~repro.engine.MACEngine.apply` maintains its engine's digest.
"""

from __future__ import annotations

import hashlib
from itertools import chain

import numpy as np

from repro.live.mutations import (
    AddSocialEdge,
    MoveUser,
    RemoveSocialEdge,
    UpdateAttributes,
    UpdateRoadWeight,
)
from repro.social.roadsocial import RoadSocialNetwork

_MOD = 1 << 256

# Record tags: the first byte of every record, one per record kind.
_ROAD_VERTEX, _ROAD_EDGE, _USER, _SOCIAL_EDGE, _ATTRIBUTES, _LOCATION = range(1, 7)


def _digest_sum(tag: int, *columns: np.ndarray) -> int:
    """Sum mod 2^256 of BLAKE2b-256 over ``n`` records.

    Record ``i`` is the tag byte followed by row ``i`` of each column —
    int64 or float64, little-endian — so every record of one kind has
    the same length.  Each hash is read as a little-endian integer.
    """
    n = len(columns[0])
    if n == 0:
        return 0
    parts = [np.full((n, 1), tag, np.uint8)]
    parts += [np.ascontiguousarray(c.reshape(n, -1)).view(np.uint8) for c in columns]
    rows = np.hstack(parts)
    size = rows.shape[1]
    buf = memoryview(rows.tobytes())
    hashes = b"".join(
        hashlib.blake2b(buf[i : i + size], digest_size=32).digest()
        for i in range(0, len(buf), size)
    )
    # 32-bit limbs summed in 64-bit lanes cannot overflow below 2^32
    # records; the carries are folded in by Python's big integers.
    limbs = np.frombuffer(hashes, "<u4").reshape(n, 8).sum(axis=0, dtype=np.uint64)
    return sum(int(limb) << (32 * i) for i, limb in enumerate(limbs)) % _MOD


def _ints(values) -> np.ndarray:
    return np.asarray(values, "<i8")


def _floats(values) -> np.ndarray:
    return np.asarray(values, "<f8")


# One encoder per record kind; the full and the incremental digest both
# go through these, so the two can only agree.
def _road_vertex_records(ids, coords) -> int:
    """Road vertices with their ``(x, y)``; NaN where there are none."""
    return _digest_sum(_ROAD_VERTEX, _ints(ids), _floats(coords))


def _road_edge_records(edges, weights) -> int:
    """Road edges as ``(u < v)`` rows with their weights."""
    return _digest_sum(_ROAD_EDGE, _ints(edges), _floats(weights))


def _user_records(ids) -> int:
    return _digest_sum(_USER, _ints(ids))


def _social_edge_records(edges) -> int:
    """Friendships as ``(u < v)`` rows."""
    return _digest_sum(_SOCIAL_EDGE, _ints(edges))


def _attribute_records(ids, vectors) -> int:
    return _digest_sum(_ATTRIBUTES, _ints(ids), _floats(vectors))


def _location_records(ids, points) -> int:
    """Users with a check-in location.

    A point is ``(u, v, on_edge)`` + ``offset``; a point on a vertex has
    ``v = 0, on_edge = 0``, so any vertex id stays unambiguous.
    """
    ends = [(p.u, 0, 0) if p.v is None else (p.u, p.v, 1) for p in points]
    offsets = [p.offset for p in points]
    return _digest_sum(_LOCATION, _ints(ids), _ints(ends), _floats(offsets))


def _edge_rows(ids: np.ndarray, nbrs: list) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once as a ``(u < v)`` row.

    ``nbrs`` holds each vertex's (symmetric) neighbor collection in
    ``ids`` order; returns the ``(m, 2)`` edge array and the indices of
    the half-edges kept, for gathering aligned per-edge values.
    """
    deg = np.fromiter(map(len, nbrs), np.int64, count=len(nbrs))
    src = np.repeat(ids, deg)
    dst = np.fromiter(chain.from_iterable(nbrs), np.int64, count=len(src))
    keep = np.flatnonzero(src < dst)
    return np.stack((src[keep], dst[keep]), axis=1), keep


def network_digest(network: RoadSocialNetwork) -> int:
    """The multiset digest of a network, computed in full from live state."""
    road = network.road
    ids = list(road.vertices())
    nan = (np.nan, np.nan)
    coords = [road.coordinates(v) if road.has_coordinates(v) else nan for v in ids]
    total = _road_vertex_records(ids, np.reshape(coords, (-1, 2)))
    nbrs = list(map(road.neighbors, ids))
    edges, keep = _edge_rows(_ints(ids), nbrs)
    weights = np.fromiter(chain.from_iterable(map(dict.values, nbrs)), np.float64)
    total += _road_edge_records(edges, weights[keep])

    social = network.social
    graph = social.graph
    users = list(graph.vertices())
    total += _user_records(users)
    edges, _keep = _edge_rows(_ints(users), list(map(graph.neighbors, users)))
    total += _social_edge_records(edges)
    if users:
        vectors = [social.attributes[u] for u in users]
        total += _attribute_records(users, np.reshape(vectors, (len(users), -1)))
    located = [u for u in users if u in social.locations]
    total += _location_records(located, [social.locations[u] for u in located])
    return total % _MOD


def format_digest(digest: int) -> str:
    return f"mset256:{digest:064x}"


def network_fingerprint(network: RoadSocialNetwork) -> str:
    """Stable ``mset256:...`` digest of a road-social network's content.

    Always a full computation from live state.  A live engine keeps the
    same digest current incrementally instead
    (:meth:`~repro.engine.MACEngine.identity`).
    """
    return format_digest(network_digest(network))


def advance_digest(digest: int, before: int, after: int) -> int:
    """``digest`` with the records summed in ``before`` swapped for ``after``."""
    return (digest - before + after) % _MOD


def touched_records(batch) -> set[tuple]:
    """Keys of every record a mutation batch can change, each once.

    A key names a record slot (kind + ids), not its content: the
    content is read back from the network by :func:`records_digest`.
    Deduplication matters — a slot touched twice must still count once
    on each side of the update.
    """
    keys = set()
    for m in batch:
        if isinstance(m, (AddSocialEdge, RemoveSocialEdge)):
            keys.add((_SOCIAL_EDGE, min(m.u, m.v), max(m.u, m.v)))
        elif isinstance(m, UpdateRoadWeight):
            keys.add((_ROAD_EDGE, min(m.u, m.v), max(m.u, m.v)))
        elif isinstance(m, UpdateAttributes):
            keys.add((_ATTRIBUTES, m.user))
        elif isinstance(m, MoveUser):
            keys.add((_LOCATION, m.user))
        else:  # pragma: no cover - normalize_batch rejects foreign types
            raise TypeError(f"unsupported mutation type {type(m).__name__}")
    return keys


def records_digest(network: RoadSocialNetwork, keys) -> int:
    """Sum of the records present at ``keys``, as ``network`` holds them.

    The digest change of a mutation is this sum read after it minus the
    same sum read before it; a slot with no record (an absent edge, a
    user without a location) contributes nothing.
    """
    social, road = network.social, network.road
    total = 0
    for kind, *ids in keys:
        if kind == _SOCIAL_EDGE:
            if social.graph.has_edge(*ids):
                total += _social_edge_records([ids])
        elif kind == _ROAD_EDGE:
            u, v = ids
            if v in road.neighbors(u):
                total += _road_edge_records([ids], [road.weight(u, v)])
        elif kind == _ATTRIBUTES:
            total += _attribute_records(ids, [social.attributes[ids[0]]])
        elif kind == _LOCATION:
            point = social.locations.get(ids[0])
            if point is not None:
                total += _location_records(ids, [point])
    return total % _MOD
