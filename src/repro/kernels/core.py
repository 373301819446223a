"""Vectorized core decomposition and component kernels over CSR arrays.

``core_numbers`` replaces the per-vertex Batagelj–Zaversnik bucket walk
with level-synchronous batch peeling: every cascade round removes *all*
current candidates at once and updates neighbor degrees with one ragged
gather + ``bincount``, so the python-level loop runs once per cascade
round instead of once per vertex.  On power-law social graphs (shallow
cascades) that is a large constant-factor win; the result is exactly the
coreness array of the sequential algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.flatgraph import FlatGraph, ragged_offsets

_EMPTY = np.empty(0, np.int64)


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor rows of ``rows`` (ragged CSR gather).

    A single row — most cascade and BFS steps on small cores — is a
    plain slice (a read-only view: callers filter it into new arrays).
    """
    if rows.size == 1:
        row = rows[0]
        return indices[indptr[row]:indptr[row + 1]]
    offsets, _counts = ragged_offsets(indptr, rows)
    return indices[offsets]


def core_numbers(fg: FlatGraph) -> np.ndarray:
    """Coreness of every row (the k-core decomposition), batch-peeled."""
    n = fg.n
    if n == 0:
        return np.zeros(0, np.int64)
    indptr, indices = fg.indptr, fg.indices
    deg = np.diff(indptr).astype(np.int64)
    core = np.zeros(n, np.int64)
    alive = np.ones(n, bool)
    remaining = n
    k = 0
    cand = np.nonzero(deg <= 0)[0]
    while remaining:
        if cand.size == 0:
            # All alive degrees exceed k: jump to the next level.
            k = int(deg[alive].min())
            cand = np.nonzero(alive & (deg <= k))[0]
        while cand.size:
            core[cand] = k
            alive[cand] = False
            remaining -= cand.size
            if remaining == 0:
                break
            nb = _gather_neighbors(indptr, indices, cand)
            nb = nb[alive[nb]]
            if nb.size == 0:
                cand = _EMPTY
                break
            deg -= np.bincount(nb, minlength=n)
            # New candidates can only appear among just-touched rows.
            touched = np.unique(nb)
            cand = touched[deg[touched] <= k]
    return core


def k_core_mask(
    fg: FlatGraph, k: int, core: np.ndarray | None = None
) -> np.ndarray:
    """Boolean row mask of the maximal k-core (coreness >= k)."""
    if core is None:
        core = core_numbers(fg)
    return core >= k


def component_mask(
    fg: FlatGraph,
    source_row: int | np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Rows of the connected component of ``source_row`` (array BFS).

    ``mask`` restricts the traversal to an induced subgraph; the source
    must lie inside it.  An array of distinct source rows (all inside
    the mask) yields the union of their components.
    """
    n = fg.n
    seen = np.zeros(n, bool)
    frontier = np.atleast_1d(np.asarray(source_row, dtype=np.int64))
    if mask is not None and not mask[frontier].all():
        return seen
    seen[frontier] = True
    indptr, indices = fg.indptr, fg.indices
    # Scratch mask for per-level frontier dedup: marking + flatnonzero
    # is a linear scan, far cheaper than hashing every gathered edge
    # with np.unique (this BFS runs once per peel round in the search
    # loops, so its constant factor is the restrict stage's cost).
    scratch = np.zeros(n, bool)
    while frontier.size:
        nb = _gather_neighbors(indptr, indices, frontier)
        if mask is not None:
            nb = nb[mask[nb]]
        nb = nb[~seen[nb]]
        if nb.size == 0:
            break
        scratch[nb] = True
        frontier = np.flatnonzero(scratch)
        scratch[frontier] = False
        seen[frontier] = True
    return seen


def component_labels(
    fg: FlatGraph, mask: np.ndarray | None = None
) -> np.ndarray:
    """Connected-component label per row (-1 for rows outside ``mask``)."""
    labels = np.full(fg.n, -1, np.int64)
    todo = (
        np.ones(fg.n, bool) if mask is None else mask.copy()
    )
    label = 0
    while True:
        rest = np.nonzero(todo)[0]
        if rest.size == 0:
            return labels
        comp = component_mask(fg, int(rest[0]), mask)
        labels[comp] = label
        todo &= ~comp
        label += 1


def k_core_component(
    fg: FlatGraph,
    query_rows: list[int],
    k: int,
    core: np.ndarray | None = None,
) -> np.ndarray | None:
    """Row mask of the connected k-core containing all ``query_rows``.

    The flat version of Lemma 2/3's k-ĉore extraction: ``None`` when a
    query row falls outside the k-core or the rows straddle components.
    """
    mask = k_core_mask(fg, k, core)
    if not all(mask[r] for r in query_rows):
        return None
    comp = component_mask(fg, query_rows[0], mask)
    if not all(comp[r] for r in query_rows):
        return None
    return comp
