"""Typed mutations, their wire codec, and all-or-nothing batch validation.

A mutation batch is the unit of both application and replay: the engine
validates the *whole* batch against the current network (simulating
earlier edge operations in the batch) before touching anything, so a
rejected batch — :class:`~repro.errors.MutationError` — leaves the
network, the caches, and the delta log exactly as they were.  That
atomicity is what makes the append-only delta log deterministic to
replay.

The wire form is one JSON object per mutation with an ``"op"``
discriminator, e.g.::

    {"op": "add_social_edge", "u": 3, "v": 17}
    {"op": "update_attributes", "user": 5, "attributes": [0.2, 0.9, 0.4]}
    {"op": "move_user", "user": 5, "point": {"u": 40, "v": 41, "offset": 2.5}}
    {"op": "update_road_weight", "u": 40, "v": 41, "weight": 9.0}
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import ClassVar, Union

from repro.errors import GraphError, MutationError
from repro.road.network import SpatialPoint


@dataclass(frozen=True)
class AddSocialEdge:
    """Insert the undirected friendship edge ``(u, v)``."""

    u: int
    v: int
    kind: ClassVar[str] = "add_social_edge"

    def to_wire(self) -> dict:
        return {"op": self.kind, "u": self.u, "v": self.v}


@dataclass(frozen=True)
class RemoveSocialEdge:
    """Delete the undirected friendship edge ``(u, v)``."""

    u: int
    v: int
    kind: ClassVar[str] = "remove_social_edge"

    def to_wire(self) -> dict:
        return {"op": self.kind, "u": self.u, "v": self.v}


@dataclass(frozen=True)
class UpdateAttributes:
    """Replace user's d-dimensional attribute vector."""

    user: int
    attributes: tuple[float, ...]
    kind: ClassVar[str] = "update_attributes"

    def to_wire(self) -> dict:
        return {
            "op": self.kind,
            "user": self.user,
            "attributes": list(self.attributes),
        }


@dataclass(frozen=True)
class MoveUser:
    """Relocate a user to a new spatial point on the road network."""

    user: int
    point: SpatialPoint
    kind: ClassVar[str] = "move_user"

    def to_wire(self) -> dict:
        return {
            "op": self.kind,
            "user": self.user,
            "point": {
                "u": self.point.u,
                "v": self.point.v,
                "offset": self.point.offset,
            },
        }


@dataclass(frozen=True)
class UpdateRoadWeight:
    """Change the travel weight of the existing road edge ``(u, v)``."""

    u: int
    v: int
    weight: float
    kind: ClassVar[str] = "update_road_weight"

    def to_wire(self) -> dict:
        return {"op": self.kind, "u": self.u, "v": self.v, "weight": self.weight}


Mutation = Union[
    AddSocialEdge, RemoveSocialEdge, UpdateAttributes, MoveUser, UpdateRoadWeight
]

_MUTATION_TYPES = (
    AddSocialEdge, RemoveSocialEdge, UpdateAttributes, MoveUser, UpdateRoadWeight
)

MUTATION_KINDS: tuple[str, ...] = tuple(t.kind for t in _MUTATION_TYPES)

_BY_KIND = {t.kind: t for t in _MUTATION_TYPES}


# ----------------------------------------------------------------------
# convenience constructors (the public mutation-building API)
# ----------------------------------------------------------------------
def add_social_edge(u: int, v: int) -> AddSocialEdge:
    return AddSocialEdge(u, v)


def remove_social_edge(u: int, v: int) -> RemoveSocialEdge:
    return RemoveSocialEdge(u, v)


def update_attributes(user: int, attributes: Iterable[float]) -> UpdateAttributes:
    return UpdateAttributes(user, tuple(float(x) for x in attributes))


def move_user(user: int, point: SpatialPoint) -> MoveUser:
    return MoveUser(user, point)


def update_road_weight(u: int, v: int, weight: float) -> UpdateRoadWeight:
    return UpdateRoadWeight(u, v, float(weight))


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
def mutation_to_wire(mutation: Mutation) -> dict:
    """The JSON-safe wire form of one mutation."""
    return mutation.to_wire()


def _wire_int(obj: Mapping, field: str, op: str) -> int:
    value = obj.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MutationError(
            f"mutation {op!r} needs an integer {field!r}, got {value!r}"
        )
    return value


def mutation_from_wire(obj: Mapping) -> Mutation:
    """Decode one wire object; :class:`MutationError` on malformed input."""
    if not isinstance(obj, Mapping):
        raise MutationError(
            f"a wire mutation must be an object, got {type(obj).__name__}"
        )
    op = obj.get("op")
    cls = _BY_KIND.get(op)
    if cls is None:
        raise MutationError(
            f"unknown mutation op {op!r}; expected one of {MUTATION_KINDS}"
        )
    if cls in (AddSocialEdge, RemoveSocialEdge):
        return cls(_wire_int(obj, "u", op), _wire_int(obj, "v", op))
    if cls is UpdateAttributes:
        attrs = obj.get("attributes")
        if not isinstance(attrs, (list, tuple)):
            raise MutationError(
                f"mutation {op!r} needs an 'attributes' list, got {attrs!r}"
            )
        try:
            vector = tuple(float(x) for x in attrs)
        except (TypeError, ValueError):
            raise MutationError(
                f"mutation {op!r} attributes must be numbers, got {attrs!r}"
            ) from None
        return UpdateAttributes(_wire_int(obj, "user", op), vector)
    if cls is MoveUser:
        point = obj.get("point")
        if not isinstance(point, Mapping) or "u" not in point:
            raise MutationError(
                f"mutation {op!r} needs a 'point' object with at least 'u', "
                f"got {point!r}"
            )
        try:
            spatial = SpatialPoint(
                u=point["u"],
                v=point.get("v"),
                offset=float(point.get("offset", 0.0)),
            )
        except (TypeError, ValueError):
            raise MutationError(
                f"mutation {op!r} has a malformed point {point!r}"
            ) from None
        return MoveUser(_wire_int(obj, "user", op), spatial)
    weight = obj.get("weight")
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise MutationError(f"mutation {op!r} needs a numeric 'weight', got {weight!r}")
    return UpdateRoadWeight(
        _wire_int(obj, "u", op), _wire_int(obj, "v", op), float(weight)
    )


def normalize_batch(mutations: Iterable) -> list[Mutation]:
    """Coerce a mixed iterable of mutations / wire dicts to typed form."""
    out: list[Mutation] = []
    for m in mutations:
        if isinstance(m, _MUTATION_TYPES):
            out.append(m)
        elif isinstance(m, Mapping):
            out.append(mutation_from_wire(m))
        else:
            raise MutationError(
                f"expected a mutation or wire dict, got {type(m).__name__}"
            )
    return out


# ----------------------------------------------------------------------
# batch validation (all-or-nothing)
# ----------------------------------------------------------------------
def validate_batch(network, mutations: list[Mutation]) -> None:
    """Check every mutation against ``network`` plus the batch's own prefix.

    Social-edge operations earlier in the batch are simulated through an
    overlay, so ``[add(u,v), remove(u,v)]`` validates even when the edge
    does not exist yet.  Raises :class:`MutationError` naming the first
    offending mutation; on success the batch is guaranteed to apply
    cleanly in order.
    """
    if not mutations:
        raise MutationError("mutation batch is empty")
    social = network.social
    road = network.road
    added: set[frozenset] = set()
    removed: set[frozenset] = set()

    def has_social_edge(u: int, v: int) -> bool:
        key = frozenset((u, v))
        if key in added:
            return True
        if key in removed:
            return False
        return social.graph.has_edge(u, v)

    for i, m in enumerate(mutations):
        where = f"mutation {i} ({m.kind})"
        if isinstance(m, (AddSocialEdge, RemoveSocialEdge)):
            if m.u == m.v:
                raise MutationError(f"{where}: self-loop on user {m.u!r}")
            for w in (m.u, m.v):
                if w not in social.graph:
                    raise MutationError(
                        f"{where}: user {w!r} not in the social network"
                    )
            key = frozenset((m.u, m.v))
            if isinstance(m, AddSocialEdge):
                if has_social_edge(m.u, m.v):
                    raise MutationError(
                        f"{where}: edge ({m.u!r}, {m.v!r}) already exists"
                    )
                added.add(key)
                removed.discard(key)
            else:
                if not has_social_edge(m.u, m.v):
                    raise MutationError(
                        f"{where}: edge ({m.u!r}, {m.v!r}) does not exist"
                    )
                removed.add(key)
                added.discard(key)
        elif isinstance(m, UpdateAttributes):
            if m.user not in social.graph:
                raise MutationError(
                    f"{where}: user {m.user!r} not in the social network"
                )
            d = social.dimensionality
            if len(m.attributes) != d:
                raise MutationError(
                    f"{where}: expected {d} attributes, got "
                    f"{len(m.attributes)}"
                )
            if not all(math.isfinite(x) for x in m.attributes):
                raise MutationError(f"{where}: attributes must be finite")
        elif isinstance(m, MoveUser):
            if m.user not in social.graph:
                raise MutationError(
                    f"{where}: user {m.user!r} not in the social network"
                )
            try:
                road.validate_point(m.point)
            except GraphError as exc:
                raise MutationError(f"{where}: {exc}") from None
        elif isinstance(m, UpdateRoadWeight):
            if not math.isfinite(m.weight) or m.weight < 0:
                raise MutationError(
                    f"{where}: weight must be finite and non-negative, "
                    f"got {m.weight!r}"
                )
            try:
                road.weight(m.u, m.v)
            except GraphError:
                raise MutationError(
                    f"{where}: road edge ({m.u!r}, {m.v!r}) does not exist"
                ) from None
        else:  # pragma: no cover - normalize_batch rejects foreign types
            raise MutationError(f"{where}: unsupported mutation type")
