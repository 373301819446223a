"""Live graph mutations: typed deltas against a road-social network.

A production road-social graph is not frozen — friendships appear and
disappear, user attributes drift, users move, road segments slow down.
This package is the mutation side of the engine: five typed mutation
kinds, batch validation with all-or-nothing semantics, and the
footprint rules that decide which warm cache entries a mutation
actually dirties.  The bounded incremental k-core maintenance that
repairs warm entries is :mod:`repro.kernels.livecore`.

Entry points:

* :meth:`repro.engine.MACEngine.apply` — apply a batch to a live engine
  (network mutation + warm-entry repair + footprint-scoped eviction).
* ``POST /v1/admin/mutate`` / :meth:`repro.service.ServiceClient.mutate`
  — the same over the wire, broadcast to every pool worker.
* :func:`repro.store.append_delta` / ``repro mutate`` — the append-only
  delta log beside a snapshot, replayed by :meth:`MACEngine.load`.
"""

from repro.live.mutations import (
    MUTATION_KINDS,
    AddSocialEdge,
    MoveUser,
    Mutation,
    RemoveSocialEdge,
    UpdateAttributes,
    UpdateRoadWeight,
    add_social_edge,
    move_user,
    mutation_from_wire,
    mutation_to_wire,
    normalize_batch,
    remove_social_edge,
    update_attributes,
    update_road_weight,
    validate_batch,
)

__all__ = [
    "MUTATION_KINDS",
    "AddSocialEdge",
    "MoveUser",
    "Mutation",
    "RemoveSocialEdge",
    "UpdateAttributes",
    "UpdateRoadWeight",
    "add_social_edge",
    "move_user",
    "mutation_from_wire",
    "mutation_to_wire",
    "normalize_batch",
    "remove_social_edge",
    "update_attributes",
    "update_road_weight",
    "validate_batch",
]
