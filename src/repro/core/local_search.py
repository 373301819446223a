"""Algorithms 3-5: the local search framework (LS-T / LS-NC).

``Expand`` (Algorithm 4) grows candidate communities from the vicinity of
Q with a best-first frontier; the vertex priority is Eq. 3
(``f = lambda * f2 + f3``, degree-into-H plus dominance-layer) or Eq. 4
(``f = zeta * f1 + f3``, min-degree-gain plus layer).  Whenever the grown
induced subgraph is a connected k-core containing Q it is snapshotted as
a candidate.

``Verify`` (Algorithm 5) screens candidates with Corollary 2 (an outside
leaf of Gd must exist; an outside r-dominator of a member must be
recursively deletable), computes *bound* outside vertices and *anchors*
(Lemma 8), partitions R by the competitor half-spaces between the bottom
layer of Ge and the (bound-adjusted) top layer of Gc plus the anchor
comparisons (Corollary 3), and finally certifies each sub-cell by running
the exact peeling oracle at the cell's interior point.  Certification
keeps LS sound for its sampled weight while staying incomplete exactly
like the paper's local search (the Fig. 12 ratio experiment).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from repro.deadline import Deadline
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.cell import Cell
from repro.geometry.partition_tree import PartitionTree
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import k_core_containing
from repro.kernels.flatgraph import FlatGraph
from repro.kernels.search import (
    alive_degrees,
    cascade_rows,
    k_core_containing_rows,
    prefix_communities,
    prefix_entry_sizes,
    prefix_sets_agree,
    restrict_rows,
    search_flatgraph,
)
from repro.core.global_search import SearchStats
from repro.core.peeling import (
    cascade_delete,
    deletion_chain,
    restrict_to_query_component,
)
from repro.core.query import Community, PartitionEntry

#: Eq. 3 / Eq. 4 constants, as used in the paper's experiments.
ZETA = 100
LAMBDA = 10


class _UnionFind:
    """Tiny union-find for the Q-connectivity snapshot check."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, v: int) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def expand(
    htk: AdjacencyGraph,
    gd: DominanceGraph,
    query: Iterable[int],
    k: int,
    strategy: str = "eq3",
    max_candidates: int = 24,
    max_vertices: int | None = None,
    deadline: Deadline | None = None,
    flat: FlatGraph | None = None,
    anytime: bool = False,
) -> list[frozenset[int]]:
    """Algorithm 4: candidate communities around Q, smallest first.

    ``strategy`` selects the priority function: ``"eq3"`` (degree-driven,
    Eq. 3) or ``"eq4"`` (min-degree-gain-driven, Eq. 4).  The frontier is
    a push-style best-first queue (the Andersen et al. PPR-push idiom):
    adding a member *pushes* priority increments to its neighbors instead
    of recomputing scores from scratch, so good communities surface
    early.  ``flat`` selects the array-backed implementation (a
    :func:`~repro.kernels.search.search_flatgraph` view of ``htk``);
    both paths visit vertices in the identical order — neighbor pushes
    happen in sorted order, stale entries re-enter the heap with their
    original tie-break counter — so the candidate stream is
    bit-identical across backends.  With ``anytime`` set, deadline
    expiry stops the expansion and returns the candidates found so far
    instead of raising.
    """
    if strategy not in ("eq3", "eq4"):
        raise QueryError(f"unknown expand strategy {strategy!r}")
    if flat is not None:
        return _expand_flat(
            flat, gd, query, k, strategy, max_candidates,
            max_vertices, deadline, anytime,
        )
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


def _expand_flat(
    fg: FlatGraph,
    gd: DominanceGraph,
    query: Iterable[int],
    k: int,
    strategy: str,
    max_candidates: int,
    max_vertices: int | None,
    deadline: Deadline | None,
    anytime: bool,
) -> list[frozenset[int]]:
    """Expand over a row-sorted CSR view of H^t_k.

    The push idiom pays off here: ``gain[r]`` (member neighbors of row
    r) is maintained incrementally by one increment per pushed edge, so
    a priority read is O(1) for Eq. 3 instead of a neighbor scan —
    recomputation at pop time (the lazy-stale check) becomes a lookup.
    For Eq. 4 a histogram of member degrees keeps the current minimum
    ``low``: adding r raises it iff r has more than ``low`` member
    neighbors and is adjacent to every member of degree ``low``, so f1
    needs only r's own neighbors.  Q's connectivity is tracked by
    union-find only until Q is connected (members only grow).  The
    per-vertex state lives in python lists over the cached CSR lists:
    this loop holds the GIL, and plain list indexing beats numpy scalar
    access.  Row order equals ascending id order and the CSR rows are
    pre-sorted, so heap contents match the reference path exactly.
    """
    q = sorted(set(query))
    n = fg.n
    indptr, indices, _weights = fg.lists()
    ids = fg.ids
    qrows = fg.rows_of(q)
    member = [False] * n
    for r in qrows:
        member[r] = True
    degree_in = [0] * n
    gain = [0] * n
    uf = _UnionFind()
    for r in qrows:
        uf.add(r)
    for r in qrows:
        for u in indices[indptr[r]:indptr[r + 1]]:
            if member[u]:
                degree_in[r] += 1
                uf.union(r, u)
            else:
                gain[u] += 1
    q_connected = len({uf.find(r) for r in qrows}) == 1
    zeta = max(ZETA, gd.max_layer() + 1)
    layer = [gd.layer(v) for v in ids]
    at_degree = [0] * (n + 1)  # members per degree_in value
    for r in qrows:
        at_degree[degree_in[r]] += 1
    low = min(degree_in[r] for r in qrows)
    eq4 = strategy == "eq4"

    def priority(r: int) -> int:
        g = gain[r]
        if not eq4:
            return LAMBDA * g + zeta - layer[r]
        f1 = 0
        if g > low:
            lows = sum(
                1 for u in indices[indptr[r]:indptr[r + 1]]
                if member[u] and degree_in[u] == low
            )
            f1 = 1 if lows == at_degree[low] else 0
        return zeta * f1 + zeta - layer[r]

    def bump(r: int) -> None:
        """Eq. 4: raise member r's degree by one, keeping ``low``."""
        nonlocal low
        d = degree_in[r]
        at_degree[d] -= 1
        at_degree[d + 1] += 1
        degree_in[r] = d + 1
        if d == low and at_degree[d] == 0:
            low = d + 1

    counter = 0
    heap: list[tuple[int, int, int]] = []
    in_heap = [False] * n

    def push(r: int) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (-priority(r), counter, r))
        in_heap[r] = True

    for r in qrows:
        for u in indices[indptr[r]:indptr[r + 1]]:
            if not member[u] and not in_heap[u]:
                push(u)

    candidates: list[frozenset[int]] = []
    member_ids: set[int] = set(q)
    size = len(qrows)
    budget = max_vertices if max_vertices is not None else n
    deficient = sum(1 for r in qrows if degree_in[r] < k)
    while heap and len(candidates) < max_candidates and size <= budget:
        if deadline is not None:
            if anytime:
                if deadline.expired():
                    break
            else:
                deadline.check("local expand")
        neg_p, _count, r = heapq.heappop(heap)
        if member[r]:
            continue
        current_p = -priority(r)
        if current_p < neg_p:  # stale priority: degree grew since push
            heapq.heappush(heap, (current_p, _count, r))
            continue
        member[r] = True
        member_ids.add(ids[r])
        size += 1
        if not q_connected:
            uf.add(r)
        if eq4:
            at_degree[0] += 1
            low = 0
        for u in indices[indptr[r]:indptr[r + 1]]:
            if member[u]:
                if degree_in[u] == k - 1:
                    deficient -= 1
                if eq4:
                    bump(u)
                    bump(r)
                else:
                    degree_in[u] += 1
                    degree_in[r] += 1
                if not q_connected:
                    uf.union(r, u)
            else:
                gain[u] += 1
                if not in_heap[u]:
                    push(u)
        if degree_in[r] < k:
            deficient += 1
        if deficient == 0:
            if not q_connected:
                q_connected = len({uf.find(x) for x in qrows}) == 1
            if q_connected:
                candidates.append(frozenset(member_ids))
    return candidates


class LocalSearch:
    """Algorithms 3-5 over a prepared H^t_k and its r-dominance graph."""

    def __init__(
        self,
        htk: AdjacencyGraph,
        gd: DominanceGraph,
        query: Iterable[int],
        k: int,
        region: PreferenceRegion,
        strategy: str = "eq3",
        max_candidates: int = 24,
        certification: str = "fast",
        deadline: Deadline | None = None,
        flat: FlatGraph | None = None,
        anytime: bool = False,
    ) -> None:
        if certification not in ("fast", "chain"):
            raise QueryError(f"unknown certification {certification!r}")
        self.htk = htk
        self.gd = gd
        self.query = tuple(sorted(set(query)))
        self.query_set = set(self.query)
        self.k = k
        self.region = region
        self.strategy = strategy
        self.max_candidates = max_candidates
        #: "fast" checks only the candidate's own subgraph at the cell's
        #: interior point (the paper's Verify); "chain" re-runs the exact
        #: full-graph peeling oracle there (sound per sample, used by the
        #: validation tests).
        self.certification = certification
        #: Optional request-wide budget; exceeded => DeadlineExceeded.
        #: Checked per expand step, per threshold probe, and per
        #: candidate verification.
        self.deadline = deadline
        #: Optional CSR view of ``htk`` (same vertex set) — the "flat"
        #: search backend: expand, the k-ĉore probes, and the peeling
        #: certifications run over int row arrays with batch degree
        #: updates instead of dict subgraph copies.  The engine always
        #: passes one; ``None`` runs the dict loop, the reference that
        #: ``tests/core/test_search_backends.py`` compares against.
        self.flat = flat
        self._qrows: list[int] = [] if flat is None else flat.rows_of(
            tuple(sorted(set(query)))
        )
        #: Anytime mode: deadline expiry stops the search and returns
        #: the certified entries found so far (``partial`` set) instead
        #: of raising.
        self.anytime = anytime
        self.partial = False
        self.stats = SearchStats()
        self._all = frozenset(htk.vertices())
        self._all_leaves = frozenset(gd.leaves_within(self._all))
        self._bound_memo: dict[tuple[int, frozenset[int]], bool] = {}

    def _checkpoint(self, stage: str) -> bool:
        """Deadline gate: True means "stop here" (anytime expiry).

        Without anytime this raises :class:`DeadlineExceeded` exactly
        like the direct ``deadline.check`` calls it replaces.
        """
        if self.deadline is None:
            return False
        if self.anytime:
            if self.deadline.expired():
                self.partial = True
                return True
            return False
        self.deadline.check(stage)
        return False

    def _kcore_members(self, vertices) -> frozenset[int] | None:
        """Members of the connected k-ĉore of H^t_k[vertices] around Q.

        The one k-core probe every Verify helper reduces to; the flat
        path peels a row mask in place of building a dict subgraph.
        ``None`` when no such core exists (including Q ⊄ vertices).
        """
        if self.flat is not None:
            fg = self.flat
            mask = np.zeros(fg.n, bool)
            mask[fg.rows_of(vertices)] = True
            comp = k_core_containing_rows(fg, mask, self._qrows, self.k)
            if comp is None:
                return None
            return frozenset(fg.select_ids(comp))
        core = k_core_containing(
            self.htk.subgraph(vertices), self.query, self.k
        )
        if core is None:
            return None
        return frozenset(core.vertices())

    # ------------------------------------------------------------------
    # Corollary 2 / Lemma 8 machinery
    # ------------------------------------------------------------------
    def _survives_alone(self, v: int, members: frozenset[int]) -> bool:
        """Does v survive in the k-ĉore of H^t_k[VH ∪ {v}] containing Q?

        If it does, v can never be deleted (it is not score-deletable while
        it r-dominates a member, and it is structurally safe even when all
        other outside vertices are gone) — Corollary 2(2).  If it does not,
        v is *bound*: it dies by cascade regardless of its score.
        """
        key = (v, members)
        memo = self._bound_memo.get(key)
        if memo is not None:
            return memo
        core = self._kcore_members(members | {v})
        survives = core is not None and v in core
        self._bound_memo[key] = survives
        return survives

    def _effective_tops(
        self, outside: set[int], members: frozenset[int]
    ) -> tuple[list[int], set[int]] | None:
        """Top layer of Gc after discarding bound vertices (Corollary 3(2)).

        Returns ``(tops, bound)`` — the constraint-carrying top vertices
        and the set discarded as bound — or None when Corollary 2(2)
        rejects the candidate: an outside r-dominator of a member can
        never be deleted (it is not score-deletable while its dominee
        remains in H, and it survives structurally even with every other
        outside vertex gone).
        """
        dominates_member = self.gd.has_descendant_in(set(members))
        for v in outside:
            if dominates_member[v] and self._survives_alone(v, members):
                return None
        pool = set(outside)
        bound_all: set[int] = set()
        while True:
            tops = self.gd.tops_within(pool)
            bound = [t for t in tops if not self._survives_alone(t, members)]
            safe = [t for t in tops if t not in bound]
            if not bound:
                return safe, bound_all
            bound_all.update(bound)
            pool -= set(bound)
            if not pool:
                return [], bound_all

    def _has_mutual_support(
        self, members: frozenset[int], bound: set[int]
    ) -> bool:
        """Corollary 3(3) situation: bound vertices that keep each other
        alive (e.g. the paper's v4/v5 against H1).

        Each bound vertex dies once *all* other outside vertices are gone,
        but a cluster of them may survive collectively — then one cluster
        member must be score-deleted first, a disjunctive condition the
        convex clip cell cannot express.  Such candidates are certified
        with the exact chain oracle instead.
        """
        if not bound:
            return False
        core = self._kcore_members(members | bound)
        return core is not None and any(v in core for v in bound)

    def _anchors(
        self, members: frozenset[int], leaves: list[int]
    ) -> list[int]:
        """Lemma 8: non-Q leaves of Ge whose removal keeps a k-ĉore ⊇ Q."""
        anchors = []
        for v in leaves:
            if v in self.query_set:
                continue
            if self._kcore_members(members - {v}) is not None:
                anchors.append(v)
        return anchors

    # ------------------------------------------------------------------
    def _certify_chain(self, cell: Cell, members: frozenset[int]) -> bool:
        """Exact full-graph chain at the cell's interior point."""
        w = cell.interior_point()
        scores = {v: self.gd.score_at(v, w) for v in self._all}
        chain, _batches = deletion_chain(
            self.htk, self.query, self.k, scores, flat=self.flat
        )
        return frozenset(chain[-1]) == members

    def _certify_fast(
        self, cell: Cell, members: frozenset[int], ge_leaves: list[int]
    ) -> bool:
        """Local non-containment check at the cell's interior point.

        Reachability of H (all of Gc deleted first) is vouched for by the
        Corollary-3 half-spaces already clipped into the cell; what
        remains is Definition 6: deleting H's smallest-score member must
        destroy the k-ĉore around Q.  The minimum of H is attained at a
        bottom-layer vertex of Ge, so only those are inspected, and the
        cascade runs on H's own subgraph only.
        """
        w = cell.interior_point()
        u = min(
            ge_leaves, key=lambda v: (self.gd.score_at(v, w), v)
        )
        if u in self.query_set:
            return True  # Corollary 1(1)
        if self.flat is not None:
            fg = self.flat
            mask = np.zeros(fg.n, bool)
            mask[fg.rows_of(members)] = True
            deg = alive_degrees(fg, mask)
            removed = cascade_rows(fg, deg, mask, fg.row_of(u), self.k)
            ids = fg.ids
            if {ids[i] for i in removed.tolist()} & self.query_set:
                return True  # Corollary 1(2)
            return restrict_rows(fg, mask, self._qrows) is None
        sub = self.htk.subgraph(members)
        deleted = cascade_delete(sub, u, self.k)
        if deleted & self.query_set:
            return True  # Corollary 1(2)
        return restrict_to_query_component(sub, self.query) is None

    def _certify(
        self, cell: Cell, members: frozenset[int], ge_leaves: list[int]
    ) -> bool:
        if self.certification == "chain":
            return self._certify_chain(cell, members)
        return self._certify_fast(cell, members, ge_leaves)

    def _verify_candidate(
        self, members: frozenset[int]
    ) -> list[tuple[Cell, frozenset[int]]]:
        """Algorithm 5 for one candidate: certified (cell, members)."""
        outside = set(self._all - members)
        root = Cell.from_region(self.region)
        mutual_support = False
        if outside:
            # Corollary 2(1): deletion must start at an outside leaf of Gd.
            if not (self._all_leaves & outside):
                return []
            analyzed = self._effective_tops(outside, members)
            if analyzed is None:
                return []
            tops, bound = analyzed
            mutual_support = self._has_mutual_support(members, bound)
        else:
            tops = []  # candidate is H^t_k itself: only anchors matter
        ge_leaves = self.gd.leaves_within(members)
        anchors = self._anchors(members, ge_leaves)
        # Corollary 3: H is valid where every bottom-layer member of Ge
        # scores above every (bound-adjusted) top of Gc, and no anchor is
        # the community minimum.  Each condition is one half-space, so the
        # validity region is a single convex cell — clip instead of
        # building an arrangement.
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
        if mutual_support:
            # Disjunctive reachability (Corollary 3(3)): the fast local
            # check cannot see which cluster member breaks first — use
            # the exact oracle for this (rare) shape.
            certified = self._certify_chain(cell, members)
        else:
            certified = self._certify(cell, members, ge_leaves)
        if certified:
            return [(cell, members)]
        return []

    # ------------------------------------------------------------------
    def _threshold_candidates(
        self, per_probe: int = 6, step: int = 2
    ) -> list[frozenset[int]]:
        """Candidates from score-threshold prefixes at R's pivot/corners.

        At a fixed weight w the MAC chain consists of the communities
        ``k-ĉore_Q({v : S(v) >= θ})`` for decreasing thresholds θ (every
        score-peeled vertex is gone once the global minimum passes its
        score).  The k-ĉores of growing score-ranked prefixes therefore
        reproduce the chain *bottom-up*, without peeling.  Per probe
        weight, one :func:`prefix_entry_sizes` sweep yields every prefix
        k-core at once, and :func:`prefix_communities` walks the prefix
        sizes from the smallest feasible one, stopping after
        ``per_probe`` distinct communities.  A walk reads only the prefix
        sets at the sizes it visits (and the one below its start), so a
        probe whose ranking has the same prefix sets there as an earlier
        probe's is skipped.  Both backends sweep the same row-sorted CSR
        view.
        """
        if not self.query_set <= self._all:
            return []
        fg = self.flat if self.flat is not None else search_flatgraph(
            self.htk
        )
        qrows = fg.rows_of(self.query)
        probes = [self.region.pivot()]
        probes.extend(self.region.corners())
        out: list[frozenset[int]] = []
        # (ranking, prefix sizes its walk depended on) per probe walked.
        walks: list[tuple[np.ndarray, list[int]]] = []
        for order in self.gd.rankings(probes, fg.ids):
            if self._checkpoint("local threshold probing"):
                return out
            if any(
                prefix_sets_agree(order, walked, sizes)
                for walked, sizes in walks
            ):
                # Same communities, all already collected: small regions
                # often rank (nearly) identically everywhere.
                continue
            entry = prefix_entry_sizes(fg, order, self.k)
            found = 0
            lo = end = fg.n + 1
            for size, comp in prefix_communities(
                fg, entry, qrows, self.k, step
            ):
                lo = min(lo, size)
                fs = frozenset(fg.select_ids(comp))
                if fs not in out:
                    out.append(fs)
                found += 1
                if found >= per_probe:
                    end = size
                    break
                if self._checkpoint("local threshold probing"):
                    return out
            # The walk read the prefix just below lo (infeasible) and
            # every size it visited up to its end.
            sizes = [lo - 1, *range(lo, min(end, fg.n) + step, step)]
            walks.append((order, [min(s, fg.n) for s in sizes]))
        return out

    def search_nc(self) -> list[PartitionEntry]:
        """Problem 2 via local search: non-contained MACs with partitions."""
        candidates = expand(
            self.htk,
            self.gd,
            self.query,
            self.k,
            strategy=self.strategy,
            max_candidates=self.max_candidates,
            deadline=self.deadline,
            flat=self.flat,
            anytime=self.anytime,
        )
        for extra in self._threshold_candidates():
            if extra not in candidates:
                candidates.append(extra)
        if self._all not in candidates:
            candidates.append(self._all)
        self.stats.candidates = len(candidates)
        entries: list[PartitionEntry] = []
        claimed: list[frozenset[int]] = []
        for members in candidates:
            if members in claimed:
                continue
            if self._checkpoint("local verify"):
                break
            claimed.append(members)
            for cell, found in self._verify_candidate(members):
                entries.append(PartitionEntry(cell, [Community(found)]))
        if self.partial and not entries:
            # Anytime fallback: H^t_k itself is a feasible community
            # for all of R (a connected k-core containing Q), just not
            # certified non-contained — return it as the best-so-far.
            entries.append(
                PartitionEntry(
                    Cell.from_region(self.region),
                    [Community(self._all, partial=True)],
                )
            )
        self.stats.partitions = len(entries)
        return entries

    def search_topj(self, j: int) -> list[PartitionEntry]:
        """Problem 1 via local search.

        For each certified cell the top-j chain is reconstructed by
        re-running the bounded oracle at the cell's interior point after
        refining the cell by the half-spaces among the outside top layers
        (the "up-bottom" generalization at the end of Section VI-B); the
        work grows with j through the extra refinement levels.
        """
        if j < 1:
            raise QueryError(f"j must be >= 1, got {j}")
        base = self.search_nc()
        entries: list[PartitionEntry] = []
        for entry in base:
            if self.partial and entry.best.partial:
                # Anytime fallback entry: its chain was never peeled;
                # pass it through rather than paying for a full oracle
                # run after the budget is already gone.
                entries.append(entry)
                continue
            members = entry.best.members
            outside = set(self._all - members)
            refine: list = []
            # Peel up to j-1 dominance layers off Gc, collecting pairwise
            # half-spaces per layer (score order inside a layer decides
            # which vertex returns first).
            pool = set(outside)
            for _level in range(j - 1):
                if not pool:
                    break
                tops = self.gd.tops_within(pool)
                for i, u in enumerate(tops):
                    for v in tops[i + 1 :]:
                        refine.append(self.gd.halfspace(u, v))
                pool -= set(tops)
            tree = PartitionTree(entry.cell)
            for h in refine:
                tree.insert(h)
                self.stats.halfspaces_inserted += 1
            for cell in tree.leaves():
                if self._checkpoint("local top-j refinement"):
                    # Anytime: the certified NC community still stands
                    # for this cell; report it as the chain's (partial)
                    # best instead of dropping the cell.
                    entries.append(
                        PartitionEntry(
                            cell, [Community(members, partial=True)]
                        )
                    )
                    continue
                w = cell.interior_point()
                scores = {v: self.gd.score_at(v, w) for v in self._all}
                chain, _batches = deletion_chain(
                    self.htk, self.query, self.k, scores,
                    max_batches=j - 1, flat=self.flat,
                )
                communities = [
                    Community(c) for c in reversed(chain[-j:])
                ]
                entries.append(PartitionEntry(cell, communities))
        self.stats.partitions = len(entries)
        return entries
