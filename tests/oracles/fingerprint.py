"""Reference network digest: one ``struct``-packed record at a time.

A deliberately naive restatement of the ``mset256:`` multiset digest of
``repro.store.fingerprint``: walk the network's public accessors, pack
each canonical record by hand, hash it with BLAKE2b-256, and add the
hashes up mod 2^256.  Snapshot manifests carry the digest and live
engines maintain it incrementally, so both the vectorized full
computation and the per-mutation updates must agree with this on every
network.
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.social.roadsocial import RoadSocialNetwork


def record_hash(fmt: str, *fields) -> int:
    """One record's BLAKE2b-256 hash as a little-endian integer."""
    record = struct.pack("<" + fmt, *fields)
    return int.from_bytes(hashlib.blake2b(record, digest_size=32).digest(), "little")


def network_fingerprint(network: RoadSocialNetwork) -> str:
    """``mset256:...`` digest of a road-social network's content."""
    total = 0
    road = network.road
    for v in road.vertices():
        x, y = road.coordinates(v) if road.has_coordinates(v) else (math.nan,) * 2
        total += record_hash("Bqdd", 1, v, x, y)
    for u, v, w in road.edges():
        u, v = min(u, v), max(u, v)
        total += record_hash("Bqqd", 2, u, v, float(w))

    social = network.social
    for u in social.graph.vertices():
        total += record_hash("Bq", 3, u)
        vector = [float(x) for x in social.attributes[u]]
        total += record_hash("Bq" + "d" * len(vector), 5, u, *vector)
        point = social.locations.get(u)
        if point is not None:
            if point.v is None:
                ends = (point.u, 0, 0)
            else:
                ends = (point.u, point.v, 1)
            total += record_hash("Bqqqqd", 6, u, *ends, float(point.offset))
    for u, v in social.graph.edges():
        total += record_hash("Bqq", 4, min(u, v), max(u, v))
    return f"mset256:{total % 2**256:064x}"
