"""Reference LS: the dict expand loop and the probe-based Verify.

The former dict path of ``repro.core.local_search``, kept as the oracle
of the flat loop that replaced it:

* :func:`expand` grows candidates over the dict ``AdjacencyGraph``,
  recomputing each priority from its neighbor set;
* :class:`ReferenceLocalSearch` verifies every candidate with a fresh
  k-ĉore probe per question (does an outside vertex survive next to the
  candidate, do bound vertices support each other, is a leaf an
  anchor), with O(V + E) sweeps of Gd for its leaves and tops, and
  certifies on dict subgraphs.

Both must produce the identical candidate stream, cells and communities
as :class:`~repro.core.local_search.LocalSearch`.  Threshold probing is
inherited: ``tests/oracles/threshold_probing.py`` is its own oracle.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from repro.core.local_search import LAMBDA, ZETA, LocalSearch, _UnionFind
from repro.core.peeling import (
    cascade_delete,
    deletion_chain,
    restrict_to_query_component,
)
from repro.deadline import Deadline
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.cell import Cell
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import k_core_containing


def expand(
    htk: AdjacencyGraph,
    gd: DominanceGraph,
    query: Iterable[int],
    k: int,
    strategy: str = "eq3",
    max_candidates: int = 24,
    max_vertices: int | None = None,
    deadline: Deadline | None = None,
    anytime: bool = False,
) -> list[frozenset[int]]:
    """Algorithm 4 over the dict graph; neighbor pushes in sorted order."""
    if strategy not in ("eq3", "eq4"):
        raise QueryError(f"unknown expand strategy {strategy!r}")
    q = sorted(set(query))
    members: set[int] = set(q)
    degree_in = {v: 0 for v in q}
    uf = _UnionFind()
    for v in q:
        uf.add(v)
    for v in q:
        for u in htk.neighbors(v):
            if u in members:
                degree_in[v] += 1
                uf.union(v, u)
    zeta = max(ZETA, gd.max_layer() + 1)

    def f3(v: int) -> int:
        return zeta - gd.layer(v)

    def priority(v: int) -> float:
        gain = sum(1 for u in htk.neighbors(v) if u in members)
        if strategy == "eq3":
            return LAMBDA * gain + f3(v)
        # Eq. 4: f1 is 1 when adding v raises the current minimum degree.
        current_min = min(degree_in[m] for m in members)
        joined_min = min(
            min(
                degree_in[m] + (1 if v in htk.neighbors(m) else 0)
                for m in members
            ),
            gain,
        )
        f1 = 1 if joined_min > current_min else 0
        return zeta * f1 + f3(v)

    counter = 0
    heap: list[tuple[float, int, int]] = []
    in_heap: set[int] = set()

    def push(v: int) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (-priority(v), counter, v))
        in_heap.add(v)

    for v in q:
        for u in sorted(htk.neighbors(v)):
            if u not in members and u not in in_heap:
                push(u)

    candidates: list[frozenset[int]] = []
    budget = max_vertices if max_vertices is not None else htk.num_vertices
    deficient = sum(1 for v in members if degree_in[v] < k)
    while heap and len(candidates) < max_candidates and len(members) <= budget:
        if deadline is not None:
            if anytime:
                if deadline.expired():
                    break
            else:
                deadline.check("local expand")
        neg_p, _count, v = heapq.heappop(heap)
        if v in members:
            continue
        current_p = -priority(v)
        if current_p < neg_p:  # stale priority: degree grew since push
            heapq.heappush(heap, (current_p, _count, v))
            continue
        members.add(v)
        uf.add(v)
        degree_in[v] = 0
        for u in sorted(htk.neighbors(v)):
            if u in members:
                if degree_in[u] == k - 1:
                    deficient -= 1
                degree_in[u] += 1
                degree_in[v] += 1
                uf.union(v, u)
            elif u not in in_heap:
                push(u)
        if degree_in[v] < k:
            deficient += 1
        if deficient == 0:
            roots = {uf.find(x) for x in q}
            if len(roots) == 1:
                candidates.append(frozenset(members))
    return candidates


def kcore_members(ls: LocalSearch, vertices) -> frozenset[int] | None:
    """Members of the connected k-ĉore of H^t_k[vertices] around Q,
    peeled on the dict graph of ``ls``'s CSR rows under ``vertices``."""
    mask = np.zeros(ls.flat.n, bool)
    mask[ls.flat.rows_of(vertices)] = True
    core = k_core_containing(ls.flat.to_adjacency(mask), ls.query, ls.k)
    if core is None:
        return None
    return frozenset(core.vertices())


def leaves_within(gd: DominanceGraph, subset: Iterable[int]) -> list[int]:
    """Bottom layer of Gd[subset] by one ``has_descendant_in`` sweep."""
    s = set(subset)
    flag = gd.has_descendant_in(s)
    return sorted(v for v in s if not flag[v])


def tops_within(gd: DominanceGraph, subset: Iterable[int]) -> list[int]:
    """Top layer of Gd[subset] by one ``has_ancestor_in`` sweep."""
    s = set(subset)
    flag = gd.has_ancestor_in(s)
    return sorted(v for v in s if not flag[v])


class ReferenceLocalSearch(LocalSearch):
    """A :class:`LocalSearch` on the dict expand and probe-based Verify,
    over the dict graph of the CSR it is given (``htk``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.htk = self.flat.to_adjacency()
        self._all_leaves = frozenset(leaves_within(self.gd, self._all))
        self._bound_memo: dict[tuple[int, frozenset[int]], bool] = {}

    def _expand(self) -> list[frozenset[int]]:
        return expand(
            self.htk,
            self.gd,
            self.query,
            self.k,
            strategy=self.strategy,
            max_candidates=self.max_candidates,
            deadline=self.deadline,
            anytime=self.anytime,
        )

    def _survives_alone(self, v: int, members: frozenset[int]) -> bool:
        key = (v, members)
        memo = self._bound_memo.get(key)
        if memo is not None:
            return memo
        core = kcore_members(self, members | {v})
        survives = core is not None and v in core
        self._bound_memo[key] = survives
        return survives

    def _effective_tops(self, outside, members):
        dominates_member = self.gd.has_descendant_in(set(members))
        for v in outside:
            if dominates_member[v] and self._survives_alone(v, members):
                return None
        pool = set(outside)
        bound_all: set[int] = set()
        while True:
            tops = tops_within(self.gd, pool)
            bound = [t for t in tops if not self._survives_alone(t, members)]
            safe = [t for t in tops if t not in bound]
            if not bound:
                return safe, bound_all
            bound_all.update(bound)
            pool -= set(bound)
            if not pool:
                return [], bound_all

    def _has_mutual_support(self, members, bound) -> bool:
        if not bound:
            return False
        core = kcore_members(self, members | bound)
        return core is not None and any(v in core for v in bound)

    def _anchors(self, members, leaves) -> list[int]:
        return [
            v
            for v in leaves
            if v not in self.query_set
            and kcore_members(self, members - {v}) is not None
        ]

    def _certify_chain(self, cell: Cell, members: frozenset[int]) -> bool:
        w = cell.interior_point()
        scores = {v: self.gd.score_at(v, w) for v in self._all}
        chain, _batches = deletion_chain(self.htk, self.query, self.k, scores)
        return frozenset(chain[-1]) == members

    def _certify_fast(self, cell, members, ge_leaves) -> bool:
        w = cell.interior_point()
        u = min(ge_leaves, key=lambda v: (self.gd.score_at(v, w), v))
        if u in self.query_set:
            return True  # Corollary 1(1)
        sub = self.htk.subgraph(members)
        deleted = cascade_delete(sub, u, self.k)
        if deleted & self.query_set:
            return True  # Corollary 1(2)
        return restrict_to_query_component(sub, self.query) is None

    def _verify_candidate(self, members):
        outside = set(self._all - members)
        root = Cell.from_region(self.region)
        mutual_support = False
        if outside:
            if not (self._all_leaves & outside):
                return []
            analyzed = self._effective_tops(outside, members)
            if analyzed is None:
                return []
            tops, bound = analyzed
            mutual_support = self._has_mutual_support(members, bound)
        else:
            tops = []
        ge_leaves = leaves_within(self.gd, members)
        anchors = self._anchors(members, ge_leaves)
        cell = root
        non_anchor_leaves = [u for u in ge_leaves if u not in anchors]
        for u in ge_leaves:
            for a in tops:
                cell = cell.with_constraint(self.gd.halfspace(u, a))
                self.stats.halfspaces_inserted += 1
                if cell.is_empty():
                    return []
        for a in anchors:
            for u in non_anchor_leaves:
                cell = cell.with_constraint(self.gd.halfspace(a, u))
                self.stats.halfspaces_inserted += 1
                if cell.is_empty():
                    return []
        if mutual_support or self.certification == "chain":
            certified = self._certify_chain(cell, members)
        else:
            certified = self._certify_fast(cell, members, ge_leaves)
        if certified:
            return [(cell, members)]
        return []
