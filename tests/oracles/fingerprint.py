"""Reference network fingerprint: per-edge tuples and ``sorted()``.

The original form of ``repro.store.fingerprint.network_fingerprint``,
kept as the oracle of the vectorized implementation that replaced it.
Snapshot manifests on disk carry the digest, so the two must agree
byte for byte on every network.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.social.roadsocial import RoadSocialNetwork


def _update(h: "hashlib._Hash", tag: str, arr: np.ndarray) -> None:
    """Hash one labelled array with an unambiguous shape/dtype header."""
    h.update(tag.encode())
    h.update(repr((arr.dtype.str, arr.shape)).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def network_fingerprint(network: RoadSocialNetwork) -> str:
    """Stable ``sha256:...`` digest of a road-social network's content."""
    h = hashlib.sha256()

    road = network.road
    road_verts = np.asarray(sorted(road.vertices()), np.int64)
    _update(h, "road.vertices", road_verts)
    coords = np.asarray(
        [
            road.coordinates(v) if road.has_coordinates(v) else (np.nan, np.nan)
            for v in road_verts.tolist()
        ],
        np.float64,
    ).reshape(-1, 2)
    _update(h, "road.coordinates", coords)
    road_edges = sorted(road.edges())
    _update(
        h, "road.edges",
        np.asarray([(u, v) for u, v, _w in road_edges], np.int64).reshape(-1, 2),
    )
    _update(
        h, "road.weights",
        np.asarray([w for _u, _v, w in road_edges], np.float64),
    )

    social = network.social
    users = sorted(social.graph.vertices())
    _update(h, "social.vertices", np.asarray(users, np.int64))
    social_edges = sorted(
        (u, v) if u <= v else (v, u) for u, v in social.graph.edges()
    )
    _update(
        h, "social.edges",
        np.asarray(social_edges, np.int64).reshape(-1, 2),
    )
    if users:
        attrs = np.asarray(
            [social.attributes[u] for u in users], np.float64
        ).reshape(len(users), -1)
    else:
        attrs = np.zeros((0, 0))
    _update(h, "social.attributes", attrs)
    locs = np.asarray(
        [
            (
                (p.u, -1 if p.v is None else p.v, p.offset)
                if (p := social.locations.get(u)) is not None
                else (-1, -1, np.nan)
            )
            for u in users
        ],
        np.float64,
    ).reshape(-1, 3)
    _update(h, "social.locations", locs)

    return f"sha256:{h.hexdigest()}"
