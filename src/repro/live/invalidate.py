"""Footprint rules: which warm cache entries does a mutation dirty?

The engine caches four stages — (Q, t) filters, (Q, k, t) cores,
(Q, k, t, R) dominance graphs, and full results.  A social-edge mutation
leaves every filter entry warm (query distances do not depend on the
social topology; the engine *repairs* the affected ones in place), and
the rules below decide, per downstream entry, whether the mutation can
possibly have changed it.  Keeping is only allowed when provably safe:

**Delete** ``(u, v)``: an entry's community ``C`` (a connected component
of the k-core of its filtered subgraph) can only change if both
endpoints lie in ``C``.  Coreness drops are confined to the subcore at
level ``r = min(core(u), core(v))``; a member of ``C`` has coreness
``>= k``, so a member can drop below ``k`` only when ``r >= k`` — and
then both endpoints are in the k-core, and an endpoint adjacent to a
member of ``C`` is itself in ``C``.  Likewise a split of ``C`` needs an
intra-``C`` edge removed.  So *both endpoints in members* is the exact
dirtiness condition, and it needs no repair context at all — it is
sound even for entries whose parent filter entry was evicted by LRU.
Infeasible entries stay infeasible (cores only shrink, components only
split).

**Insert** ``(u, v)``: with the parent filter entry warm we know the
repair delta ``changed`` (every coreness rise).  ``C`` can change by
(a) gaining an endpoint — some endpoint already in members, (b) gaining
a vertex whose coreness rose to ``>= k`` (it may be adjacent to ``C``
without being an endpoint — the naive ``members ∩ ({u,v} ∪ changed)``
test misses this), or (c) for infeasible entries, the new edge merging
two k-core components that split the query set — possible only when
both endpoints end with coreness ``>= k``.  Without a warm parent
filter there is no repair delta, so orphaned entries are evicted
conservatively.

**Attribute update** of ``user``: filters and cores keyed on topology
stay warm; an entry is dirty iff ``user`` is one of its members (the
attribute matrix / dominance DAG embeds the vector).

``move_user`` and ``update_road_weight`` change query distances, whose
footprint (every (Q, t) whose range filter the moved point intersects)
is not recoverable from cached state — the engine evicts globally for
those two kinds, by design.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RepairDelta:
    """Outcome of repairing one warm filter entry after an edge mutation.

    ``changed`` maps vertex -> new coreness for every vertex the repair
    moved; ``endpoint_coreness`` is the post-repair coreness of the
    edge's two endpoints, read from the entry's coreness rows.
    """

    changed: dict
    endpoint_coreness: tuple[int, int]


def edge_dirty_insert(k: int, members, delta: RepairDelta | None, u, v) -> bool:
    """Is a (Q, k, t) entry dirty after inserting social edge ``(u, v)``?

    ``members`` is any container supporting ``in`` over the entry's
    community vertices, or ``None`` for an infeasible (empty-core)
    entry.  ``delta`` is the parent filter entry's repair outcome, or
    ``None`` when that entry was not warm (conservative eviction).
    """
    if delta is None:
        return True
    if any(c >= k for c in delta.changed.values()):
        return True
    if members is None:
        # Feasibility can flip without any coreness change: the new edge
        # may merge k-core components that separated the query set.
        return min(delta.endpoint_coreness) >= k
    return u in members or v in members


def edge_dirty_delete(members, u, v) -> bool:
    """Is a (Q, k, t) entry dirty after deleting social edge ``(u, v)``?"""
    if members is None:
        return False
    return u in members and v in members


def attribute_dirty(members, user) -> bool:
    """Is a (Q, k, t) entry dirty after updating ``user``'s attributes?"""
    return members is not None and user in members
