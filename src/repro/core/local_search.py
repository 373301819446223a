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
comparisons (Corollary 3), and finally certifies the cell at its
interior point.  Certification keeps LS sound for its sampled weight
while staying incomplete exactly like the paper's local search (the
Fig. 12 ratio experiment).

Every candidate Verify sees is a connected k-core containing Q (expand
snapshots, prefix k-ĉores and H^t_k itself), so its structural checks
stay local: an outside vertex survives next to the candidate iff it has
k neighbors in it, only bound vertices can peel when they join it, and
deleting a member removes exactly that member's cascade.  The dominance
checks read Gd's cached descendant closure.  The dict reference loop
this replaced is ``tests/oracles/local_search.py``.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable

import numpy as np

from repro.deadline import Deadline
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.cell import Cell
from repro.geometry.partition_tree import PartitionTree
from repro.geometry.region import PreferenceRegion
from repro.kernels.flatgraph import FlatGraph
from repro.kernels.search import (
    alive_degrees,
    cascade_rows,
    deletion_chain_rows,
    prefix_communities,
    prefix_entry_sizes,
    prefix_sets_agree,
    query_side,
)
from repro.core.global_search import SearchStats
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
    graph: FlatGraph,
    gd: DominanceGraph,
    query: Iterable[int],
    k: int,
    strategy: str = "eq3",
    max_candidates: int = 24,
    max_vertices: int | None = None,
    deadline: Deadline | None = None,
    anytime: bool = False,
) -> list[frozenset[int]]:
    """Algorithm 4: candidate communities around Q, smallest first.

    ``strategy`` selects the priority function: ``"eq3"`` (degree-driven,
    Eq. 3) or ``"eq4"`` (min-degree-gain-driven, Eq. 4).  The frontier is
    a push-style best-first queue (the Andersen et al. PPR-push idiom):
    adding a member *pushes* priority increments to its neighbors instead
    of recomputing scores from scratch, so good communities surface
    early.  The loop runs over ``graph``, H^t_k as a row-sorted CSR
    (:meth:`FlatGraph.sorted_subgraph`).  With ``anytime`` set, deadline
    expiry stops the expansion and returns the candidates found so far
    instead of raising.

    ``gain[r]`` (member neighbors of row r) is maintained incrementally
    by one increment per pushed edge, so a priority read is O(1) for
    Eq. 3 instead of a neighbor scan — recomputation at pop time (the
    lazy-stale check) becomes a lookup.  For Eq. 4 a histogram of member
    degrees keeps the current minimum ``low``: adding r raises it iff r
    has more than ``low`` member neighbors and is adjacent to every
    member of degree ``low``, so f1 needs only r's own neighbors.  Q's
    connectivity is tracked by union-find only until Q is connected
    (members only grow).  The per-vertex state lives in python lists
    over the cached CSR lists: this loop holds the GIL, and plain list
    indexing beats numpy scalar access.  Rows are in ascending id order
    and neighbor pushes happen in row order; stale entries re-enter the
    heap with their original tie-break counter.
    """
    if strategy not in ("eq3", "eq4"):
        raise QueryError(f"unknown expand strategy {strategy!r}")
    fg = graph
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
    """Algorithms 3-5 over a prepared H^t_k and its r-dominance graph.

    ``graph`` is H^t_k as a row-sorted CSR
    (:meth:`FlatGraph.sorted_subgraph`, or
    :func:`~repro.kernels.search.search_flatgraph` of a dict graph) that
    expand, the probes and the certifications run over.  It must be a
    connected k-core containing Q, as H^t_k is: every candidate the
    search verifies then is one too.  ``gd`` must span exactly
    ``graph``'s vertices: its Hasse leaves are H^t_k's leaves.
    """

    def __init__(
        self,
        graph: FlatGraph,
        gd: DominanceGraph,
        query: Iterable[int],
        k: int,
        region: PreferenceRegion,
        strategy: str = "eq3",
        max_candidates: int = 24,
        certification: str = "fast",
        deadline: Deadline | None = None,
        anytime: bool = False,
    ) -> None:
        if certification not in ("fast", "chain"):
            raise QueryError(f"unknown certification {certification!r}")
        self.flat = graph
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
        self._qrows: list[int] = self.flat.rows_of(self.query)
        #: Anytime mode: deadline expiry stops the search and returns
        #: the certified entries found so far (``partial`` set) instead
        #: of raising.
        self.anytime = anytime
        self.partial = False
        self.stats = SearchStats()
        self._all = frozenset(self.flat.ids)
        self._all_leaves = frozenset(gd.leaves())
        self._root = Cell.from_region(region)

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

    def _neighbors(self, v: int) -> list[int]:
        """Neighbor ids of ``v`` in H^t_k."""
        fg = self.flat
        indptr, indices, _weights = fg.lists()
        r = fg.row_map[v]
        ids = fg.ids
        return [ids[u] for u in indices[indptr[r]:indptr[r + 1]]]

    # ------------------------------------------------------------------
    # Corollary 2 / Lemma 8 machinery
    # ------------------------------------------------------------------
    def _survives_alone(self, v: int, members: frozenset[int]) -> bool:
        """Does v survive in the k-ĉore of H^t_k[VH ∪ {v}] containing Q?

        If it does, v can never be deleted (it is not score-deletable while
        it r-dominates a member, and it is structurally safe even when all
        other outside vertices are gone) — Corollary 2(2).  If it does not,
        v is *bound*: it dies by cascade regardless of its score.

        VH is a connected k-core containing Q, so adding v keeps every
        member's degree >= k: v survives iff it has k neighbors in VH
        (and one, to join Q's component, when k = 0).
        """
        d = sum(1 for u in self._neighbors(v) if u in members)
        return d >= max(self.k, 1)

    def _effective_tops(
        self, outside: frozenset[int], members: frozenset[int]
    ) -> tuple[list[int], set[int]] | None:
        """Top layer of Gc after discarding bound vertices (Corollary 3(2)).

        Returns ``(tops, bound)`` — the constraint-carrying top vertices
        and the set discarded as bound — or None when Corollary 2(2)
        rejects the candidate: an outside r-dominator of a member can
        never be deleted (it is not score-deletable while its dominee
        remains in H, and it survives structurally even with every other
        outside vertex gone).
        """
        for v in self.gd.dominating(members, outside):
            if self._survives_alone(v, members):
                return None
        pool = set(outside)
        bound_all: set[int] = set()
        while True:
            tops = self.gd.tops_within(pool)
            bound = [t for t in tops if not self._survives_alone(t, members)]
            if not bound:
                return tops, bound_all
            bound_all.update(bound)
            pool.difference_update(bound)
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

        Only bound vertices can peel from the k-core of VH ∪ bound (every
        member keeps its k neighbors in VH); a survivor is in Q's
        component iff some survivor touches VH.
        """
        if not bound:
            return False
        nbrs = {v: self._neighbors(v) for v in bound}
        alive = set(bound)
        deg = {
            v: sum(1 for u in nbrs[v] if u in members or u in alive)
            for v in bound
        }
        stack = [v for v in bound if deg[v] < self.k]
        while stack:
            v = stack.pop()
            if v not in alive:
                continue
            alive.discard(v)
            for u in nbrs[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] < self.k:
                        stack.append(u)
        return any(u in members for v in alive for u in nbrs[v])

    def _anchors(
        self, members: frozenset[int], leaves: list[int]
    ) -> list[int]:
        """Lemma 8: non-Q leaves of Ge whose removal keeps a k-ĉore ⊇ Q.

        VH is a k-core, so the k-core of VH - {v} is VH minus v's
        deletion cascade; v is an anchor iff that cascade spares Q and
        leaves Q connected.
        """
        targets = [v for v in leaves if v not in self.query_set]
        if not targets:
            return []
        fg = self.flat
        mask = np.zeros(fg.n, bool)
        mask[fg.rows_of(members)] = True
        deg = alive_degrees(fg, mask)
        anchors = []
        for v in targets:
            alive = mask.copy()
            cascade_rows(fg, deg.copy(), alive, fg.row_map[v], self.k)
            if query_side(fg, alive, self._qrows) is not None:
                anchors.append(v)
        return anchors

    # ------------------------------------------------------------------
    def _certify_chain(self, cell: Cell, members: frozenset[int]) -> bool:
        """Exact full-graph chain at the cell's interior point."""
        w = cell.interior_point()
        scores = {v: self.gd.score_at(v, w) for v in self._all}
        chain, _batches = deletion_chain_rows(
            self.flat, self.query, self.k, scores
        )
        return frozenset(chain[-1]) == members

    def _certify_fast(
        self, cell: Cell, ge_leaves: list[int], anchors: list[int]
    ) -> bool:
        """Local non-containment check at the cell's interior point.

        Reachability of H (all of Gc deleted first) is vouched for by the
        Corollary-3 half-spaces already clipped into the cell; what
        remains is Definition 6: deleting H's smallest-score member must
        destroy the k-ĉore around Q.  The minimum of H is attained at a
        bottom-layer vertex u of Ge, and the anchor test already ran that
        deletion's cascade for every such u outside Q: it breaks the
        k-ĉore exactly when u is no anchor (Corollary 1(2)).  Q's
        members are never anchors (Corollary 1(1)).
        """
        w = cell.interior_point()
        u = min(
            ge_leaves, key=lambda v: (self.gd.score_at(v, w), v)
        )
        return u not in anchors

    def _verify_candidate(
        self, members: frozenset[int]
    ) -> list[tuple[Cell, frozenset[int]]]:
        """Algorithm 5 for one candidate: certified (cell, members)."""
        outside = self._all - members
        mutual_support = False
        tops: list[int] = []  # H^t_k itself: only anchors matter
        if outside:
            # Corollary 2(1): deletion must start at an outside leaf of Gd.
            if not (self._all_leaves & outside):
                return []
            analyzed = self._effective_tops(outside, members)
            if analyzed is None:
                return []
            tops, bound = analyzed
            mutual_support = self._has_mutual_support(members, bound)
        ge_leaves = self.gd.leaves_within(members)
        anchors = self._anchors(members, ge_leaves)
        # Corollary 3: H is valid where every bottom-layer member of Ge
        # scores above every (bound-adjusted) top of Gc, and no anchor is
        # the community minimum.  Each condition is one half-space, so the
        # validity region is a single convex cell — clip instead of
        # building an arrangement.
        cell = self._root
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
            # Disjunctive reachability (Corollary 3(3)): the fast local
            # check cannot see which cluster member breaks first — use
            # the exact oracle for this (rare) shape.
            certified = self._certify_chain(cell, members)
        else:
            certified = self._certify_fast(cell, ge_leaves, anchors)
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
        probe's is skipped.
        """
        fg = self.flat
        qrows = self._qrows
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

    def _expand(self) -> list[frozenset[int]]:
        return expand(
            self.flat,
            self.gd,
            self.query,
            self.k,
            strategy=self.strategy,
            max_candidates=self.max_candidates,
            deadline=self.deadline,
            anytime=self.anytime,
        )

    def search_nc(self) -> list[PartitionEntry]:
        """Problem 2 via local search: non-contained MACs with partitions.

        ``stats.extra`` records the seconds spent in expand
        (``expand_s``), threshold probing (``probe_s``) and Verify
        (``verify_s``).
        """
        start = time.perf_counter()
        candidates = self._expand()
        expanded = time.perf_counter()
        for extra in self._threshold_candidates():
            if extra not in candidates:
                candidates.append(extra)
        if self._all not in candidates:
            candidates.append(self._all)
        probed = time.perf_counter()
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
        self.stats.extra.update(
            expand_s=expanded - start,
            probe_s=probed - expanded,
            verify_s=time.perf_counter() - probed,
        )
        if self.partial and not entries:
            # Anytime fallback: H^t_k itself is a feasible community
            # for all of R (a connected k-core containing Q), just not
            # certified non-contained — return it as the best-so-far.
            entries.append(
                PartitionEntry(self._root, [Community(self._all, partial=True)])
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
                chain, _batches = deletion_chain_rows(
                    self.flat, self.query, self.k, scores, max_batches=j - 1
                )
                communities = [
                    Community(c) for c in reversed(chain[-j:])
                ]
                entries.append(PartitionEntry(cell, communities))
        self.stats.partitions = len(entries)
        return entries
