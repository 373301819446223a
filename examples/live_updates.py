"""Live graph mutations: the community follows the network's drift.

A contact-tracing-style deployment (see ``contact_tracing.py``) where
the network changes *while the engine serves*: new friendships form,
interest scores are re-assessed, a user relocates.  Instead of
rebuilding, the engine applies typed mutation batches atomically —
repairing coreness incrementally, sweeping only the cache entries whose
queries could observe the change — and every batch is appended to the
snapshot's delta log, so a restart replays history instead of losing
it.

Run:  python examples/live_updates.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AdjacencyGraph,
    MACEngine,
    MACRequest,
    MutationError,
    PreferenceRegion,
    RoadSocialNetwork,
    SocialNetwork,
    SpatialPoint,
)
from repro.datasets import grid_road
from repro.graph.core import core_decomposition
from repro.live import add_social_edge, move_user, update_attributes
from repro.store import append_delta, read_deltas

N = 120


def build_network() -> RoadSocialNetwork:
    """The *base* network, reproducibly: the snapshot's ground truth.

    A reboot below rebuilds this exact content and lets the delta log
    bring it up to date — the live-update contract.
    """
    rng = np.random.default_rng(11)
    road = grid_road(400, seed=5, spacing=10.0)
    road_vertices = sorted(road.vertices())

    graph = AdjacencyGraph()
    for u in range(N):
        graph.add_vertex(u)
    # A handful of overlapping circles plus random weak ties.
    for _ in range(8):
        circle = rng.choice(N, size=8, replace=False)
        for i, u in enumerate(circle):
            for v in circle[i + 1:]:
                if rng.random() < 0.6 and not graph.has_edge(int(u), int(v)):
                    graph.add_edge(int(u), int(v))
    for _ in range(120):
        u, v = (int(x) for x in rng.choice(N, size=2, replace=False))
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)

    attributes = {
        u: tuple(np.round(rng.uniform(0.1, 1.0, size=2), 3))
        for u in range(N)
    }
    locations = {
        u: SpatialPoint.at_vertex(int(rng.choice(road_vertices)))
        for u in range(N)
    }
    return RoadSocialNetwork(
        road, SocialNetwork(graph, attributes, locations)
    )


network = build_network()
rng = np.random.default_rng(17)

# Query two socially-adjacent users who sit in the 3-core: a pair with
# a real chance of anchoring a (k, t)-community.
coreness = core_decomposition(network.social.graph)
query = next(
    (u, v)
    for u in sorted(coreness)
    if coreness[u] >= 3
    for v in sorted(network.social.graph.neighbors(u))
    if v > u and coreness[v] >= 3
)
request = MACRequest.make(
    query=query,
    k=3,
    t=200.0,
    region=PreferenceRegion.centered([0.5], 0.2),
    algorithm="global",
)

with tempfile.TemporaryDirectory() as tmp:
    snapshot = Path(tmp) / "idx"
    MACEngine(network).save(snapshot)
    engine = MACEngine.load(snapshot, network)

    before = engine.search(request)
    print(f"before: htk={before.htk_vertices} "
          f"partitions={len(before.partitions)}")

    # --- the network drifts ---------------------------------------------
    graph = network.social.graph
    anchor = (
        min(before.partitions[0].best.members) if before.partitions else 0
    )
    outsider = next(
        w for w in range(N) if w != anchor and not graph.has_edge(anchor, w)
    )
    road_vertices = sorted(network.road.vertices())
    batch = [
        add_social_edge(anchor, outsider),         # a friendship forms
        update_attributes(outsider, (0.95, 0.9)),  # scores re-assessed
        move_user(                                  # ... and they relocate
            outsider,
            SpatialPoint.at_vertex(int(rng.choice(road_vertices))),
        ),
    ]
    summary = engine.apply(batch)
    # Persist the accepted batch beside the snapshot (the serving layer
    # does this automatically when booted with --snapshot).
    append_delta(snapshot, batch)
    print(f"applied batch #{summary['delta_seq']}: "
          f"{summary['by_kind']} "
          f"(evicted {summary['evicted']} cache entries, "
          f"repaired {summary['repaired_entries']})")

    after = engine.search(request)
    print(f"after:  htk={after.htk_vertices} "
          f"partitions={len(after.partitions)}")

    # Batches are all-or-nothing: one bad mutation rejects the lot.
    try:
        engine.apply([add_social_edge(anchor, outsider)])  # now a duplicate
    except MutationError as exc:
        print(f"rejected atomically: {exc}")

    # The delta log beside the snapshot is the full history ...
    records = read_deltas(snapshot)
    print(f"delta log: {len(records)} batch(es), "
          f"last seq {records[-1]['seq']}")

    # ... and a fresh boot — base network rebuilt from scratch — replays
    # it before serving.
    replayed = MACEngine.load(snapshot, build_network())
    assert replayed.delta_seq == summary["delta_seq"]
    result = replayed.search(request)
    assert result.htk_vertices == after.htk_vertices
    print(f"reboot replayed to delta_seq={replayed.delta_seq}; "
          f"answers match")
