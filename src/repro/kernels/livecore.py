"""Incremental k-core maintenance on CSR rows.

The live-mutation counterpart of :func:`repro.kernels.core.core_numbers`:
instead of re-peeling the whole graph after a social edge insert/delete,
these kernels repair the per-row coreness array by a bounded traversal
around the touched endpoints.  The classic locality theorems (Li, Yu &
Mao, TKDE'14; Sariyüce et al., PVLDB'13) guarantee only vertices of
coreness exactly ``r = min(core(u), core(v))`` change, each by exactly
±1, and two prunings keep the traversal small even when the level-``r``
subcore spans most of the graph:

* **insert**: candidates are the *purecore* — coreness-``r`` vertices
  reachable from the endpoints through vertices with more than ``r``
  neighbors of coreness ``>= r`` (anything with fewer can never rise
  and screens the region behind it).  A candidate survives at ``r + 1``
  iff it keeps ``r + 1`` supporters (neighbors of coreness ``> r`` plus
  still-alive candidates) through a cascade peel.
* **delete**: no candidate region at all — support (neighbors of
  current coreness ``>= r``) is locally computable, so the drop cascade
  starts at the endpoints and touches only vertices that actually fall
  plus their immediate frontier.

The dict reference implementation with identical semantics is the
oracle ``tests/oracles/kcore.py``; the randomized equivalence suite in
``tests/live`` pits both against full re-peels.

Edges are spliced into the immutable CSR by :func:`insert_edge_rows` /
:func:`delete_edge_rows`, which return a new :class:`FlatGraph` sharing
the id mapping of the old one (row numbering is untouched, so cached
per-row arrays like coreness stay aligned).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.kernels.flatgraph import FlatGraph, ragged_offsets


def _spliced(fg: FlatGraph, indptr: np.ndarray, indices: np.ndarray) -> FlatGraph:
    """A new FlatGraph over ``fg``'s ids with replaced CSR arrays."""
    out = FlatGraph(indptr, indices, fg.ids, None)
    out._ids_arr = fg._ids_arr
    out._row_of = fg._row_of
    return out


def insert_edge_rows(fg: FlatGraph, u: int, v: int) -> FlatGraph:
    """New FlatGraph with undirected edge ``(u, v)`` added (rows).

    Row numbering and the id map are preserved, so per-row companion
    arrays (coreness, masks) remain aligned with the result.
    """
    if fg.weights is not None:
        raise GraphError("insert_edge_rows expects an unweighted FlatGraph")
    if u == v:
        raise GraphError("self-loops not allowed in a FlatGraph")
    if u > v:
        u, v = v, u
    indptr = fg.indptr
    # Splice each direction at the end of its row; positions are sorted
    # (u < v), and on a tie (all rows between are empty) np.insert keeps
    # the given order, which places row u's element first.
    pu, pv = int(indptr[u + 1]), int(indptr[v + 1])
    new_indices = np.insert(fg.indices, [pu, pv], [v, u])
    new_indptr = indptr.copy()
    new_indptr[u + 1:] += 1
    new_indptr[v + 1:] += 1
    return _spliced(fg, new_indptr, new_indices)


def delete_edge_rows(fg: FlatGraph, u: int, v: int) -> FlatGraph:
    """New FlatGraph with undirected edge ``(u, v)`` removed (rows)."""
    if fg.weights is not None:
        raise GraphError("delete_edge_rows expects an unweighted FlatGraph")
    indptr, indices = fg.indptr, fg.indices
    su, eu = int(indptr[u]), int(indptr[u + 1])
    sv, ev = int(indptr[v]), int(indptr[v + 1])
    at_u = np.nonzero(indices[su:eu] == v)[0]
    at_v = np.nonzero(indices[sv:ev] == u)[0]
    if at_u.size == 0 or at_v.size == 0:
        raise GraphError(f"edge rows ({u}, {v}) not in FlatGraph")
    new_indices = np.delete(indices, [su + int(at_u[0]), sv + int(at_v[0])])
    new_indptr = indptr.copy()
    new_indptr[u + 1:] -= 1
    new_indptr[v + 1:] -= 1
    return _spliced(fg, new_indptr, new_indices)


def _candidate_mask(
    fg: FlatGraph, core: np.ndarray, roots: list[int], r: int
) -> np.ndarray:
    """Boolean mask of the insert candidates at level ``r`` from ``roots``.

    BFS restricted to vertices of coreness exactly ``r``, expanding only
    through vertices with more than ``r`` neighbors of coreness ``>= r``
    (the *purecore* pruning of Sariyüce et al.): a vertex with at most
    ``r`` such neighbors can never collect the ``r + 1`` supporters a
    rise needs, so it stays at ``r`` and screens everything behind it —
    risers always form a chain of prunable-degree-passing vertices back
    to an inserted endpoint.  On graphs whose level-``r`` subcore is
    huge (low modal coreness), this keeps the traversal near the
    actually-affected region instead of most of the graph.
    """
    in_cand = np.zeros(fg.n, bool)
    frontier = np.asarray(roots, np.int64)
    in_cand[frontier] = True
    while frontier.size:
        offsets, counts = ragged_offsets(fg.indptr, frontier)
        owner = np.repeat(np.arange(frontier.size), counts)
        nbrs = fg.indices[offsets]
        nbr_core = core[nbrs]
        mcd = np.bincount(owner[nbr_core >= r], minlength=frontier.size)
        conducting = mcd > r
        fresh = nbrs[(nbr_core == r) & conducting[owner] & ~in_cand[nbrs]]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        in_cand[frontier] = True
    return in_cand


def _writable(core: np.ndarray) -> np.ndarray:
    # Snapshot-restored coreness arrays may be read-only memory maps;
    # repair copies on first write instead of mutating the page cache.
    return core if core.flags.writeable else core.copy()


def repair_insert_rows(
    fg: FlatGraph, core: np.ndarray, u: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repair ``core`` after edge ``(u, v)`` was inserted into ``fg``.

    ``fg`` must already contain the new edge.  Returns
    ``(core, changed_rows)`` where ``core`` is the repaired per-row
    coreness array (the input array mutated in place when writable) and
    ``changed_rows`` the rows whose coreness rose (by exactly one).
    """
    r = int(min(core[u], core[v]))
    roots = [w for w in (u, v) if core[w] == r]
    in_cand = _candidate_mask(fg, core, roots, r)
    cand = np.nonzero(in_cand)[0]
    # Support at level r+1: neighbors of coreness > r always count;
    # same-level neighbors count only while they are still candidates.
    alive = in_cand.copy()
    offsets, counts = ragged_offsets(fg.indptr, cand)
    owner = np.repeat(np.arange(cand.size), counts)
    nbrs = fg.indices[offsets]
    good = (core[nbrs] > r) | alive[nbrs]
    supp = np.bincount(owner[good], minlength=cand.size)
    pos = np.full(fg.n, -1, np.int64)
    pos[cand] = np.arange(cand.size)
    drop = cand[supp <= r]
    while drop.size:
        alive[drop] = False
        offsets, _ = ragged_offsets(fg.indptr, drop)
        nbrs = fg.indices[offsets]
        nbrs = nbrs[alive[nbrs]]
        lost = np.bincount(pos[nbrs], minlength=cand.size)
        newly = (supp > r) & (supp - lost <= r)
        supp -= lost
        drop = cand[newly & alive[cand]]
    changed = cand[alive[cand]]
    if changed.size:
        core = _writable(core)
        core[changed] = r + 1
    return core, changed


def repair_delete_rows(
    fg: FlatGraph, core: np.ndarray, u: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repair ``core`` after edge ``(u, v)`` was deleted from ``fg``.

    ``fg`` must no longer contain the edge.  Returns
    ``(core, changed_rows)`` where ``changed_rows`` are the rows whose
    coreness fell (by exactly one).

    Support is computed lazily against the *current* core array
    (already-dropped rows count as ``r - 1``), so the cascade never
    leaves the damaged region — no subcore is materialized.
    """
    r = int(min(core[u], core[v]))
    indptr, indices = fg.indptr, fg.indices
    supp: dict[int, int] = {}
    changed: list[int] = []
    stack = [w for w in (u, v) if core[w] == r]
    while stack:
        w = stack.pop()
        if core[w] < r:
            continue
        nbrs = indices[indptr[w]:indptr[w + 1]]
        if w not in supp:
            supp[w] = int(np.count_nonzero(core[nbrs] >= r))
        if supp[w] >= r:
            continue
        if not changed:
            core = _writable(core)
        core[w] = r - 1
        changed.append(w)
        for n in nbrs[core[nbrs] == r]:
            n = int(n)
            if n in supp:
                supp[n] -= 1
                if supp[n] < r:
                    stack.append(n)
            else:
                stack.append(n)
    return core, np.asarray(changed, np.int64)
