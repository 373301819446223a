"""Algorithm 1: the DFS-based global search (GS-T / GS-NC).

The search maintains a work queue of tasks ``(alive, batches, leaves,
cell)``: the current subgraph H (as its vertex set), the deletion history
(one batch per peeling round, for top-j backtracking), the current leaf
set of the restricted r-dominance graph G'd, and the partition ρ of R.

Per task, the pairwise score half-spaces of the current leaves are tested
against ρ.  If none crosses, the smallest-score leaf is unambiguous over
all of ρ: peel it (DFS cascade, lines 15-20), check the Corollary-1
early-termination conditions, and loop.  Otherwise ρ is refined by the
crossing half-spaces via the Algorithm-2 partition tree and each sub-cell
is re-queued — each inherits H and the history, exactly the recursion of
Algorithm 1 with the paper's half-space caching (each pair's half-space is
computed once, in :class:`DominanceGraph`).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.deadline import Deadline
from repro.dominance.graph import DominanceGraph
from repro.errors import QueryError
from repro.geometry.cell import Cell
from repro.geometry.partition_tree import PartitionTree
from repro.geometry.region import PreferenceRegion
from repro.graph.adjacency import AdjacencyGraph
from repro.kernels.backend import gs_path
from repro.kernels.flatgraph import FlatGraph
from repro.kernels.search import (
    alive_degrees,
    cascade_rows,
    restrict_rows_incremental,
)
from repro.core.peeling import (
    Removal,
    cascade_delete_recoverable,
    restrict_after_removal,
)
from repro.core.query import Community, PartitionEntry


@dataclass
class SearchStats:
    """Counters reported by a search run (Fig. 11 uses these)."""

    partitions: int = 0
    tasks: int = 0
    peel_rounds: int = 0
    halfspaces_inserted: int = 0
    candidates: int = 0  # used by local search
    extra: dict = field(default_factory=dict)


class GlobalSearch:
    """Algorithm 1 over a prepared H^t_k and its r-dominance graph.

    ``graph`` is H^t_k as a row-sorted CSR
    (:meth:`FlatGraph.sorted_subgraph`, or
    :func:`~repro.kernels.search.search_flatgraph` of a dict graph).  It
    must be connected and contain Q, as H^t_k (and the maximal
    connected k-truss of the truss variant) is: both peel loops restrict
    to Q's component incrementally, from the vertices each cascade
    removed.  ``gd`` must span exactly ``graph``'s vertices: its Hasse
    leaves (:meth:`DominanceGraph.leaves`) are the first task's leaves.
    """

    def __init__(
        self,
        graph: FlatGraph,
        gd: DominanceGraph,
        query: Iterable[int],
        k: int,
        region: PreferenceRegion,
        max_partitions: int | None = None,
        refinement: str = "arrangement",
        time_budget: float | None = None,
        deadline: Deadline | None = None,
        anytime: bool = False,
    ) -> None:
        if refinement not in ("arrangement", "envelope"):
            raise QueryError(f"unknown refinement {refinement!r}")
        self.flat = graph
        self.gd = gd
        self.query = tuple(sorted(set(query)))
        self.query_set = set(self.query)
        self.k = k
        self.region = region
        self.max_partitions = max_partitions
        #: "arrangement" is the paper's Algorithm 1 (insert the pairwise
        #: half-spaces of *all* current leaf vertices, Line 7); "envelope"
        #: is an ablation that refines only by half-spaces against the
        #: current minimum (the lower envelope) — it yields the same
        #: non-contained MACs with far fewer partitions (see the ablation
        #: benchmark), but different top-j chain groupings.
        self.refinement = refinement
        #: Optional wall-clock cap in seconds; exceeded => QueryError.
        self.time_budget = time_budget
        #: Optional request-wide budget; exceeded => DeadlineExceeded.
        #: Unlike ``time_budget`` (a per-search knob that starts ticking
        #: here), the deadline covers the whole request and is checked
        #: every task and peeling round — this is what tames GS-T's
        #: partition explosion into a typed, bounded failure.
        self.deadline = deadline
        #: Anytime mode: on deadline expiry, the in-progress and queued
        #: tasks are flushed as best-so-far results instead of raising.
        #: Their alive sets are feasible (connected k-cores ⊇ Q for the
        #: whole cell — structure does not depend on w), just not
        #: certified non-contained; ``partial`` marks them.
        self.anytime = anytime
        self.partial = False
        self._partial_from: int | None = None
        self.stats = SearchStats()

    # ------------------------------------------------------------------
    # leaf maintenance on the alive-restricted dominance graph
    # ------------------------------------------------------------------
    def _is_leaf(self, v: int, alive: frozenset[int]) -> bool:
        """No alive strict descendant (walking through dead vertices)."""
        stack = list(self.gd.children[v])
        seen: set[int] = set()
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            if c in alive:
                return False
            stack.extend(self.gd.children[c])
        return True

    def _updated_leaves(
        self,
        leaves: frozenset[int],
        batch: frozenset[int],
        alive: frozenset[int],
        mask: np.ndarray | None = None,
    ) -> frozenset[int]:
        """Leaves after removing ``batch``; new leaves are alive ancestors.

        Given the flat loop's alive row ``mask``, each candidate's leaf
        test is one AND of its Gd descendant closure against the alive
        bits (``desc ∩ alive = ∅``) instead of a reachability walk.  The
        flat rows are Gd's rows: both number H^t_k's vertices in
        ascending id order.
        """
        out = set(leaves) - batch
        candidates: set[int] = set()
        stack = [p for b in batch for p in self.gd.parents[b]]
        seen: set[int] = set()
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            if p in alive:
                candidates.add(p)
            else:
                stack.extend(self.gd.parents[p])
        candidates -= out
        desc = None
        if mask is not None and mask.shape[0] == self.gd.num_vertices:
            desc = self.gd.closure()
        if desc is None:
            out.update(p for p in candidates if self._is_leaf(p, alive))
        else:
            bits = int.from_bytes(
                np.packbits(mask, bitorder="little").tobytes(), "little"
            )
            row = self.gd.row_of
            out.update(p for p in candidates if not desc[row(p)] & bits)
        return frozenset(out)

    # ------------------------------------------------------------------
    def _argmin_crossing(
        self,
        leaves: Iterable[int],
        u_min: int,
        cell: Cell,
        dominated: set[tuple[int, int]],
    ):
        """Half-spaces ``S(v) >= S(u_min)`` that cross the cell.

        Computing the smallest-score vertex only needs the lower envelope
        of the leaves' score functions, not their full arrangement: if
        every other leaf scores above ``u_min`` throughout the cell, the
        minimum is settled.  ``dominated`` caches (v, u) pairs already
        known to satisfy S(v) >= S(u) over this task's cell (the cell is
        fixed between peeling rounds of one task).
        """
        # Sorted like _pairwise_crossing: half-space insertion order
        # shapes the partition tree, and set iteration order is an
        # insertion-history artifact the two backends don't share.
        crossing = []
        for v in sorted(leaves):
            if v == u_min or (v, u_min) in dominated:
                continue
            h = self.gd.halfspace(v, u_min)
            side = cell.side_of(h)
            if side == "split":
                crossing.append(h)
            else:
                # "inside": v >= u_min everywhere.  "outside" can only be
                # an eps-scale tie (u_min was the argmin at the interior
                # point); either peel order is then acceptable — treat as
                # settled to avoid refining on degenerate hyperplanes.
                dominated.add((v, u_min))
        return crossing

    def _pairwise_crossing(
        self,
        leaves: Iterable[int],
        cell: Cell,
        resolved: set[tuple[int, int]],
    ):
        """All leaf-pair half-spaces crossing the cell (Algorithm 1, L7).

        ``resolved`` caches pairs already known not to cross this task's
        cell (the cell is fixed between peeling rounds of one task, and
        relations never un-resolve as leaves churn)."""
        ordered = sorted(leaves)
        crossing = []
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                key = (u, v)
                if key in resolved:
                    continue
                h = self.gd.halfspace(u, v)
                if cell.side_of(h) == "split":
                    crossing.append(h)
                else:
                    resolved.add(key)
        return crossing

    def _smallest_leaf(self, leaves: Iterable[int], w: np.ndarray) -> int:
        return min(leaves, key=lambda v: (self.gd.score_at(v, w), v))

    def _loop(self) -> str:
        """``"flat"`` (row masks, batch degree updates) or ``"python"``
        (a per-task dict graph peeled by :meth:`_cascade`), by the size
        rule; a subclass overriding :meth:`_cascade` pins ``"python"``."""
        return gs_path(self.flat.n)

    def _cascade(self, graph: AdjacencyGraph, trigger: int) -> Removal:
        """Structural cascade after deleting ``trigger`` (override point
        for other cohesiveness metrics, e.g. the k-truss extension)."""
        return cascade_delete_recoverable(graph, trigger, self.k)

    def _working_graph(self, alive: frozenset[int]) -> AdjacencyGraph:
        """The dict graph of the set loop: H^t_k[alive], labelled by row.

        Built from the CSR's cached lists; cascades and the component
        restriction are order-independent fixpoints, so row labels give
        the same answers as id labels.
        """
        fg = self.flat
        indptr, indices, _weights = fg.lists()
        graph = AdjacencyGraph()
        if len(alive) == fg.n:
            graph._adj = {
                r: set(indices[indptr[r]:indptr[r + 1]]) for r in range(fg.n)
            }
        else:
            rows = set(map(fg.row_map.__getitem__, alive))
            graph._adj = {
                r: rows.intersection(indices[indptr[r]:indptr[r + 1]])
                for r in rows
            }
        graph._num_edges = sum(map(len, graph._adj.values())) // 2
        return graph

    def _drain_partial(self, results, queue, current) -> None:
        """Anytime expiry: flush current + queued tasks as best-so-far."""
        self.partial = True
        self._partial_from = len(results)
        results.append(current)
        for alive, batches, _leaves, cell in queue:
            results.append((cell, alive, batches))
        queue.clear()

    # ------------------------------------------------------------------
    def run(self) -> list[tuple[Cell, frozenset[int], tuple[frozenset[int], ...]]]:
        """Execute the search; returns (cell, final alive set, batches)."""
        fg = self.flat
        alive0 = frozenset(fg.ids)
        if not self.query_set <= alive0:
            raise QueryError("query vertices missing from H^t_k")
        row, ids = fg.row_map, fg.ids
        qrows = [row[q] for q in self.query]
        flat_loop = self._loop() == "flat"
        leaves0 = frozenset(self.gd.leaves())
        root = Cell.from_region(self.region)
        results: list[
            tuple[Cell, frozenset[int], tuple[frozenset[int], ...]]
        ] = []
        queue: deque = deque([(alive0, (), leaves0, root)])
        deadline = (
            time.perf_counter() + self.time_budget
            if self.time_budget is not None
            else None
        )
        while queue:
            alive, batches, leaves, cell = queue.popleft()
            self.stats.tasks += 1
            if self.deadline is not None:
                if self.anytime:
                    if self.deadline.expired():
                        self._drain_partial(
                            results, queue, (cell, alive, batches)
                        )
                        break
                else:
                    self.deadline.check("global search")
            if (
                deadline is not None
                and self.stats.tasks % 16 == 0
                and time.perf_counter() > deadline
            ):
                raise QueryError(
                    f"global search exceeded its time budget "
                    f"({self.time_budget}s)"
                )
            graph = None  # built lazily: split-only tasks never peel
            mask = None  # flat loop: lazy alive mask + degree array
            deg = None
            dominated: set[tuple[int, int]] = set()
            w = cell.interior_point()  # the cell is fixed within a task
            while True:
                if self.deadline is not None:
                    if self.anytime:
                        if self.deadline.expired():
                            self._drain_partial(
                                results, queue, (cell, alive, batches)
                            )
                            break
                    else:
                        self.deadline.check("global search peeling")
                u = self._smallest_leaf(leaves, w)
                if self.refinement == "arrangement":
                    crossing = self._pairwise_crossing(
                        leaves, cell, dominated
                    )
                else:
                    crossing = self._argmin_crossing(
                        leaves, u, cell, dominated
                    )
                if crossing:
                    tree = PartitionTree(cell)
                    for h in crossing:
                        tree.insert(h)
                        self.stats.halfspaces_inserted += 1
                    for sub in tree.leaves():
                        queue.append((alive, batches, leaves, sub))
                    if (
                        self.max_partitions is not None
                        and len(results) + len(queue) > self.max_partitions
                    ):
                        raise QueryError(
                            "partition budget exceeded "
                            f"({self.max_partitions}); enlarge max_partitions"
                        )
                    break
                # u is the smallest-score leaf across the whole cell.
                if u in self.query_set:
                    results.append((cell, alive, batches))
                    break
                self.stats.peel_rounds += 1
                if flat_loop:
                    # Batch cascade + component restriction over row
                    # masks.  On the Corollary-1 breaks the mutated mask
                    # is simply discarded, as the set loop's graph is.
                    if mask is None:
                        mask = np.zeros(fg.n, bool)
                        mask[fg.rows_of(alive)] = True
                        deg = alive_degrees(fg, mask)
                    removed_rows = cascade_rows(fg, deg, mask, row[u], self.k)
                    removed = removed_rows.tolist()
                else:
                    if graph is None:
                        graph = self._working_graph(alive)
                    log = self._cascade(graph, row[u])
                    removed = [r for r, _nbrs in log]
                deleted = {ids[r] for r in removed}
                if deleted & self.query_set:
                    results.append((cell, alive, batches))
                    break
                if flat_loop:
                    dropped = restrict_rows_incremental(
                        fg, mask, qrows, removed_rows
                    )
                    dropped = None if dropped is None else dropped.tolist()
                else:
                    dropped = restrict_after_removal(graph, qrows, log)
                if dropped is None:
                    results.append((cell, alive, batches))
                    break
                batch = frozenset(deleted.union(ids[r] for r in dropped))
                alive = alive - batch
                batches = batches + (batch,)
                leaves = self._updated_leaves(leaves, batch, alive, mask)
        self.stats.partitions = len(results)
        return results

    # ------------------------------------------------------------------
    def _is_partial(self, index: int) -> bool:
        """Whether result ``index`` was flushed by an anytime drain."""
        return self._partial_from is not None and index >= self._partial_from

    def search_nc(self) -> list[PartitionEntry]:
        """Problem 2: the non-contained MAC per partition of R."""
        return [
            PartitionEntry(
                cell, [Community(alive, partial=self._is_partial(i))]
            )
            for i, (cell, alive, _batches) in enumerate(self.run())
        ]

    def search_topj(self, j: int) -> list[PartitionEntry]:
        """Problem 1: the top-j MACs per partition of R (best first).

        The chain is recovered by backtracking the deletion history j-1
        times (line 13 of Algorithm 1): each backtrack unions the most
        recent batch back into the community.
        """
        if j < 1:
            raise QueryError(f"j must be >= 1, got {j}")
        entries = []
        for i, (cell, alive, batches) in enumerate(self.run()):
            partial = self._is_partial(i)
            chain = [Community(alive, partial=partial)]
            current = set(alive)
            for batch in reversed(batches):
                if len(chain) >= j:
                    break
                current |= batch
                chain.append(Community(current, partial=partial))
            entries.append(PartitionEntry(cell, chain))
        return entries
