"""Content fingerprints of road-social networks.

A snapshot (see :mod:`repro.store.snapshot`) is only valid against the
exact network it was built from: every serialized artifact — G-tree
matrices, CSR views, coreness arrays, dominance DAGs — is a pure
function of the road topology, social topology, attributes, and
check-in locations.  ``network_fingerprint`` hashes all four into one
stable digest that the snapshot manifest records and the load path
verifies, so a stale snapshot fails loudly instead of silently serving
answers for a different network.

The digest is independent of dict/set iteration order (everything is
canonicalized through sorted arrays) and of how the network object was
assembled, but deliberately sensitive to any semantic change: an added
edge, a perturbed weight or attribute, a moved check-in.
"""

from __future__ import annotations

import hashlib
from itertools import chain

import numpy as np

from repro.social.roadsocial import RoadSocialNetwork


def _update(h: "hashlib._Hash", tag: str, arr: np.ndarray) -> None:
    """Hash one labelled array with an unambiguous shape/dtype header."""
    h.update(tag.encode())
    h.update(repr((arr.dtype.str, arr.shape)).encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def _sorted_ids(vertices, n: int) -> np.ndarray:
    return np.sort(np.fromiter(vertices, np.int64, count=n))


def _edge_section(ids: np.ndarray, nbrs: list) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once as ``(u < v)`` rows, sorted by (u, v).

    ``nbrs`` holds each vertex's (symmetric) neighbor collection in
    ``ids`` order; returns the ``(m, 2)`` edge array and the order that
    sorts the half-edges kept, for gathering aligned per-edge values.
    """
    deg = np.fromiter(map(len, nbrs), np.int64, count=len(nbrs))
    src = np.repeat(ids, deg)
    dst = np.fromiter(chain.from_iterable(nbrs), np.int64, count=len(src))
    keep = np.flatnonzero(src < dst)
    keep = keep[np.lexsort((dst[keep], src[keep]))]
    return np.stack((src[keep], dst[keep]), axis=1), keep


def network_fingerprint(network: RoadSocialNetwork) -> str:
    """Stable ``sha256:...`` digest of a road-social network's content.

    Always a full recomputation from live state: the canonical arrays
    are gathered with ``np.fromiter`` over the adjacency maps and sorted
    once per section, never cached or chained across mutations.
    """
    h = hashlib.sha256()

    road = network.road
    road_verts = _sorted_ids(road.vertices(), road.num_vertices)
    _update(h, "road.vertices", road_verts)
    ids = road_verts.tolist()
    coords = np.asarray(
        [
            road.coordinates(v) if road.has_coordinates(v) else (np.nan, np.nan)
            for v in ids
        ],
        np.float64,
    ).reshape(-1, 2)
    _update(h, "road.coordinates", coords)
    nbrs = list(map(road.neighbors, ids))
    road_edges, order = _edge_section(road_verts, nbrs)
    weights = np.fromiter(chain.from_iterable(map(dict.values, nbrs)), np.float64)
    _update(h, "road.edges", road_edges)
    _update(h, "road.weights", weights[order])

    social = network.social
    graph = social.graph
    users = _sorted_ids(graph.vertices(), graph.num_vertices)
    _update(h, "social.vertices", users)
    ids = users.tolist()
    social_edges, _order = _edge_section(users, list(map(graph.neighbors, ids)))
    _update(h, "social.edges", social_edges)
    if ids:
        attrs = np.asarray(
            [social.attributes[u] for u in ids], np.float64
        ).reshape(len(ids), -1)
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
            for u in ids
        ],
        np.float64,
    ).reshape(-1, 3)
    _update(h, "social.locations", locs)

    return f"sha256:{h.hexdigest()}"
