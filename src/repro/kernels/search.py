"""Flat-array primitives for the GS/LS search hot loops.

PR 2 flattened the *index* stages (core decomposition, components,
dominance); this module flattens the *search* loops — the cascade
deletes, per-task peeling, query-connectivity checks, prefix k-core
sweeps and fixed-weight deletion chains that GS and LS run thousands of
times per query.  Everything operates on int row arrays of a :class:`FlatGraph`
with batch degree updates (one ragged gather + ``bincount`` per cascade
round), mirroring the level-synchronous pattern of
:func:`repro.kernels.core.core_numbers`.

Equivalence with the dict-based reference paths rests on two facts:

* a cascade delete (and any ``deg < k`` peel) is an order-independent
  fixpoint, so batch rounds remove exactly the set the per-vertex DFS
  removes;
* rows are assigned in ascending vertex-id order, so every ``(score,
  row)`` tie-break matches the reference ``(score, id)`` tie-break.

:meth:`FlatGraph.sorted_subgraph` (and :func:`search_flatgraph`, its
adapter for dict graphs) additionally sorts each CSR row's neighbor
list, which pins the frontier push order of the LS expand loop to the
sorted-neighbor order the python path uses — heap contents stay
bit-identical across backends.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import heapq

import numpy as np

from repro.errors import QueryError
from repro.kernels.core import _gather_neighbors, component_mask
from repro.kernels.flatgraph import FlatGraph, ragged_offsets

_EMPTY = np.empty(0, np.int64)


def search_flatgraph(graph) -> FlatGraph:
    """CSR view of a dict ``graph`` with each row's neighbors sorted by
    row (:meth:`FlatGraph.sorted_subgraph` of its flattening).

    The searchers' substrate: sorted rows make neighbor iteration order
    deterministic (and identical to iterating ``sorted(neighbors(v))``
    on the dict graph), which the expand frontier's heap tie-breaking
    depends on.  The engine cuts its H^t_k this way straight from the
    filter CSR; this adapter serves callers that hold a dict graph.
    """
    return FlatGraph.from_adjacency(graph).sorted_subgraph()


def _gather(fg: FlatGraph, rows: np.ndarray) -> np.ndarray:
    return _gather_neighbors(fg.indptr, fg.indices, rows)


def alive_degrees(fg: FlatGraph, alive: np.ndarray) -> np.ndarray:
    """Per-row degree within the subgraph induced by the ``alive`` mask.

    Entries of dead rows are zero (and meaningless — the searchers only
    read degrees of alive rows).
    """
    if fg.indices.size == 0:
        return np.zeros(fg.n, np.int64)
    src = np.repeat(np.arange(fg.n), np.diff(fg.indptr))
    live = alive[src] & alive[fg.indices]
    return np.bincount(src[live], minlength=fg.n)


def cascade_rows(
    fg: FlatGraph,
    deg: np.ndarray,
    alive: np.ndarray,
    trigger: int,
    k: int,
) -> np.ndarray:
    """Flat cascade delete: remove ``trigger``, then peel ``deg < k``.

    Mutates ``alive`` and ``deg`` in place (degrees of removed rows are
    left stale — only alive rows carry meaningful degrees) and returns
    the removed rows.  The removed set is the unique fixpoint of the
    DFS procedure of Algorithm 1 (lines 15-20), computed one cascade
    level per python iteration.
    """
    if not alive[trigger]:
        return _EMPTY
    n = fg.n
    removed: list[np.ndarray] = []
    cand = np.asarray([trigger], np.int64)
    while cand.size:
        alive[cand] = False
        removed.append(cand)
        nb = _gather(fg, cand)
        nb = nb[alive[nb]]
        if nb.size == 0:
            break
        deg -= np.bincount(nb, minlength=n)
        touched = np.unique(nb)
        cand = touched[deg[touched] < k]
    return np.concatenate(removed)


def query_side(
    fg: FlatGraph, alive: np.ndarray, query_rows: list[int]
) -> np.ndarray | None:
    """Rows an early-exit BFS from Q's first row reaches over ``alive``,
    stopping once every query row is reached; ``None`` when a query row
    is dead or unreachable (Q is not connected in ``fg[alive]``)."""
    if not all(alive[r] for r in query_rows):
        return None
    qside = np.zeros(fg.n, bool)
    q0 = query_rows[0]
    qside[q0] = True
    frontier = np.asarray([q0], np.int64)
    while frontier.size and not all(qside[r] for r in query_rows):
        step = _gather(fg, frontier)
        step = step[alive[step] & ~qside[step]]
        frontier = np.unique(step)
        qside[frontier] = True
    if not all(qside[r] for r in query_rows):
        return None
    return qside


def restrict_rows_incremental(
    fg: FlatGraph,
    alive: np.ndarray,
    query_rows: list[int],
    removed_rows: np.ndarray,
) -> np.ndarray | None:
    """Keep only the component of Q after ``removed_rows`` just died.

    Relies on the search loops' invariant: *before* the removal, the
    alive rows (plus the removed ones) formed a single connected
    component containing Q.  Any
    component split off by the removal must then contain an alive
    ex-neighbor of the removed set, so only those neighbors need
    classifying.  An early-exit BFS first re-verifies Q-side
    connectivity (stopping as soon as every query row is reached);
    each ex-neighbor's BFS then either touches the known query side
    (same component — its explored prefix joins the known side) or
    exhausts, which is exactly a dropped component.  Per peel round
    this replaces a full-component sweep with work proportional to
    the dropped components plus short early-exit prefixes
    (:func:`query_side`).

    Mutates ``alive`` down to the query component and returns the
    dropped rows, or ``None`` when Q itself breaks apart.  Degrees of
    surviving rows need no update: a dropped component has no alive
    neighbor in the kept one.
    """
    if not all(alive[r] for r in query_rows):
        return None
    nb = _gather(fg, removed_rows)
    touched = np.unique(nb[alive[nb]])
    if touched.size == 0:
        return _EMPTY
    qside = query_side(fg, alive, query_rows)
    if qside is None:
        return None
    seen = np.zeros(fg.n, bool)
    dropped: list[np.ndarray] = []
    for a in touched.tolist():
        if qside[a] or not alive[a]:
            continue
        start = np.asarray([a], np.int64)
        seen[a] = True
        comp = [start]
        frontier = start
        hit = False
        while frontier.size:
            step = _gather(fg, frontier)
            step = step[alive[step]]
            if qside[step].any():
                hit = True
                break
            step = step[~seen[step]]
            frontier = np.unique(step)
            seen[frontier] = True
            comp.append(frontier)
        rows = np.concatenate(comp)
        seen[rows] = False
        if hit:
            qside[rows] = True
        else:
            alive[rows] = False
            dropped.append(rows)
    if not dropped:
        return _EMPTY
    return np.concatenate(dropped)


def prefix_entry_sizes(
    fg: FlatGraph, order: np.ndarray, k: int
) -> np.ndarray:
    """Entry size of every row into the k-cores of the ``order`` prefixes.

    ``e[r]`` is the smallest s such that row r lies in the k-core of
    ``fg[order[:s]]`` (``n + 1`` when no prefix's k-core holds it).
    Prefix k-cores are nested, so the k-core of prefix s is exactly
    ``e <= s`` — one sweep answers every prefix size at once.

    r is in the k-core of prefix s iff it is in the prefix and has k
    neighbors in that core, so ``e`` is the least fixpoint of
    ``e[r] = max(pos[r], k-th smallest e over N(r))``.  The map is
    monotone and ``pos`` lies below the fixpoint, so iterating upward
    from ``e = pos`` reaches it; each round recomputes only the rows
    next to a changed row, with one segmented sort for all of them.
    """
    n = fg.n
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(1, n + 1)
    if k <= 0:
        return pos
    never = n + 1
    deg = np.diff(fg.indptr)
    e = np.where(deg >= k, pos, never)
    scratch = np.zeros(n, bool)
    active = np.flatnonzero(deg >= k)
    while active.size:
        offsets, counts = ragged_offsets(fg.indptr, active)
        # Row-major keys keep each row's segment in place when sorted.
        base = np.arange(active.size, dtype=np.int64) * (never + 1)
        keys = np.sort(np.repeat(base, counts) + e[fg.indices[offsets]])
        kth = np.cumsum(counts) - counts + (k - 1)
        value = np.maximum(pos[active], keys[kth] - base)
        grown = value > e[active]
        changed = active[grown]
        if changed.size == 0:
            break
        e[changed] = value[grown]
        nb = _gather(fg, changed)
        scratch[nb[e[nb] < never]] = True
        active = np.flatnonzero(scratch)
        scratch[active] = False
    return e


def prefix_communities(
    fg: FlatGraph,
    entry: np.ndarray,
    query_rows: list[int],
    k: int,
    step: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Each new k-ĉore of Q along the prefix sizes ``lo, lo + step, ...``.

    ``entry`` comes from :func:`prefix_entry_sizes`; the k-ĉore of
    prefix s is Q's component of ``entry <= s``, and ``lo`` is the
    smallest prefix where that component holds all of Q.  Feasibility
    is monotone in s and changes only where the core grows, so ``lo`` is
    the first size holding Q, or else a binary search over the later
    growth sizes.  Past ``lo`` the component only grows, and only
    through a row entering next to it: the walk BFSes from those rows
    alone, and yields ``(size, row mask)`` whenever the component grew
    (the caller must not mutate the mask).  Sizes past ``n`` clip to
    ``n``.
    """
    n = fg.n

    def q_component(size: int) -> np.ndarray | None:
        comp = component_mask(fg, query_rows[0], entry <= size)
        return comp if comp[query_rows].all() else None

    lo = max(k + 1, int(entry[query_rows].max()))
    if lo > n:
        return
    comp = q_component(lo)
    if comp is None:
        sizes = np.unique(entry[(entry > lo) & (entry <= n)])
        comp = q_component(int(sizes[-1])) if sizes.size else None
        if comp is None:
            return
        left, right = 0, sizes.size - 1
        while left < right:
            mid = (left + right) // 2
            found = q_component(int(sizes[mid]))
            if found is None:
                left = mid + 1
            else:
                right, comp = mid, found
        lo = int(sizes[left])
    yield lo, comp
    # Rows in entry order: those entering between two walk sizes are
    # one slice of it.
    by_entry = np.argsort(entry, kind="stable")
    core_size = np.cumsum(np.bincount(entry, minlength=n + 2))
    walked = lo
    for size in range(lo + step, n + step, step):
        size = min(size, n)
        entered = by_entry[core_size[walked]:core_size[size]]
        walked = size
        if entered.size == 0:
            continue
        offsets, counts = ragged_offsets(fg.indptr, entered)
        seeds = np.unique(
            np.repeat(entered, counts)[comp[fg.indices[offsets]]]
        )
        if seeds.size:
            comp = comp | component_mask(fg, seeds, (entry <= size) & ~comp)
            yield size, comp


def prefix_sets_agree(
    order: np.ndarray, other: np.ndarray, sizes: Iterable[int]
) -> bool:
    """Do ``order[:s]`` and ``other[:s]`` hold the same rows for every s?

    The prefix of size s is the same set exactly when the rows of
    ``order[:s]`` all sit within the first s places of ``other``.
    """
    place = np.empty(other.size, np.int64)
    place[other] = np.arange(other.size)
    agree = np.maximum.accumulate(place[order]) == np.arange(order.size)
    return all(s == 0 or agree[s - 1] for s in sizes)


def deletion_chain_rows(
    fg: FlatGraph,
    query: Iterable[int],
    k: int,
    scores: Mapping[int, float],
    max_batches: int | None = None,
) -> tuple[list[set[int]], list[frozenset[int]]]:
    """Flat :func:`repro.core.peeling.deletion_chain` (id-space output).

    Same contract: ``chain[i]`` is the vertex-id set of the i-th MAC,
    ``batches[i]`` the set removed between chain[i] and chain[i+1].
    The heap orders by ``(score, row)``, which equals the reference
    ``(score, id)`` order because rows ascend with ids; the early
    Corollary-1 breaks discard the mutated state instead of restoring
    it (the reference restores only to immediately break too).
    """
    q = list(query)
    if not q:
        raise QueryError("query set must be non-empty")
    n = fg.n
    qrows = fg.rows_of(q)
    qrow_set = set(qrows)
    query_set = set(q)
    alive = np.ones(n, bool)
    deg = np.diff(fg.indptr).astype(np.int64)
    ids = fg.ids
    heap = [(scores[ids[r]], r) for r in range(n)]
    heapq.heapify(heap)
    current = set(ids)
    chain: list[set[int]] = [set(current)]
    batches: list[frozenset[int]] = []
    while heap:
        _s, r = heapq.heappop(heap)
        if not alive[r]:
            continue
        if r in qrow_set:
            break  # Corollary 1, condition (1): Q member is the minimum.
        removed = cascade_rows(fg, deg, alive, r, k)
        removed_ids = {ids[i] for i in removed.tolist()}
        if removed_ids & query_set:
            break  # Corollary 1, condition (2): cascade destroys Q.
        dropped = restrict_rows_incremental(fg, alive, qrows, removed)
        if dropped is None:
            break
        batch = frozenset(
            removed_ids | {ids[i] for i in dropped.tolist()}
        )
        current -= batch
        batches.append(batch)
        chain.append(set(current))
        if max_batches is not None and len(chain) > max_batches + 1:
            chain.pop(0)
            batches.pop(0)
    return chain, batches
