"""Reference k-core routines on adjacency sets (dicts and per-vertex loops).

The former python paths of :mod:`repro.graph.core` and
:mod:`repro.live`, kept as the oracles of the CSR kernels that replaced
them (:mod:`repro.kernels.core`, :mod:`repro.kernels.livecore`):

* :func:`core_decomposition` — sequential Batagelj–Zaversnik (the O(m)
  routine cited as [14] in the paper);
* :func:`k_core_containing` — the k-ĉore of Lemma 2/3 by the per-vertex
  removal cascade and a component walk;
* :func:`repair_insert` / :func:`repair_delete` — bounded incremental
  k-core maintenance after one edge insert/delete.

When an edge ``(u, v)`` is inserted into or deleted from a graph, the
classic traversal-based maintenance results (Li, Yu & Mao, TKDE'14;
Sariyüce et al., PVLDB'13) localize the damage: only vertices of
coreness exactly ``r = min(core(u), core(v))`` can change, and any
change is exactly ±1.  Two prunings keep the repaired region small even
when the level-``r`` subcore is most of the graph (low modal coreness):

* **insert** explores the *purecore*: a vertex can rise only if it has
  more than ``r`` neighbors of coreness ``>= r``, and risers form a
  connected chain of such vertices back to an inserted endpoint — so
  the traversal expands only through vertices passing that degree test.
* **delete** needs no candidate region at all: support (neighbors of
  current coreness ``>= r``) is locally computable, so the drop cascade
  starts at the endpoints and touches only vertices that actually fall
  plus their immediate frontier.

Both repair functions mutate the ``coreness`` dict in place and return
the ``{vertex: new_coreness}`` delta.
"""

from __future__ import annotations

from repro.graph.core import peel_cascade


def core_decomposition(graph) -> dict:
    """Sequential Batagelj–Zaversnik with the position-swap bucket layout.

    ``vert`` holds the vertices sorted by current degree, ``pos`` each
    vertex's slot, and ``bin_start[d]`` the first slot of degree-d
    vertices.  A degree decrement swaps the vertex with the first member
    of its bucket and advances the boundary — O(1) per decrement and
    O(n) total memory.
    """
    degree = {v: graph.degree(v) for v in graph.vertices()}
    n = len(degree)
    if n == 0:
        return {}
    max_deg = max(degree.values())
    bin_count = [0] * (max_deg + 1)
    for d in degree.values():
        bin_count[d] += 1
    bin_start = [0] * (max_deg + 1)
    start = 0
    for d in range(max_deg + 1):
        bin_start[d] = start
        start += bin_count[d]
    vert = [None] * n
    pos = {}
    fill = list(bin_start)
    for v, d in degree.items():
        p = fill[d]
        vert[p] = v
        pos[v] = p
        fill[d] += 1
    core = {}
    for i in range(n):
        v = vert[i]
        dv = degree[v]
        core[v] = dv
        for u in graph.neighbors(v):
            du = degree[u]
            if du > dv:
                pu = pos[u]
                pw = bin_start[du]
                w = vert[pw]
                if u is not w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] += 1
                degree[u] = du - 1
    return core


def k_core_containing(graph, query, k: int):
    """The maximal connected k-core holding every query vertex, or None."""
    q = list(query)
    if any(v not in graph for v in q):
        return None
    core = peel_cascade(graph, k)
    if any(v not in core for v in q):
        return None
    component = core.component_of(q[0])
    if not all(v in component for v in q):
        return None
    return core.subgraph(component)


def _insert_candidates(graph, coreness: dict, roots: list, r: int) -> set:
    """Vertices that could rise past ``r`` after an insert at ``roots``.

    BFS over coreness-``r`` vertices, expanding only through vertices
    with more than ``r`` neighbors of coreness ``>= r``: anything with
    fewer can never collect the ``r + 1`` supporters a rise needs, so it
    stays at ``r`` and screens everything behind it.
    """
    seen = set(roots)
    stack = list(roots)
    while stack:
        w = stack.pop()
        mcd = sum(1 for n in graph.neighbors(w) if coreness[n] >= r)
        if mcd <= r:
            continue
        for n in graph.neighbors(w):
            if n not in seen and coreness[n] == r:
                seen.add(n)
                stack.append(n)
    return seen


def repair_insert(graph, coreness: dict, u, v) -> dict:
    """Repair ``coreness`` after edge ``(u, v)`` was added to ``graph``.

    ``graph`` must already contain the new edge.  A candidate survives
    at level ``r + 1`` iff the cascade leaves it with more than ``r``
    supporters — neighbors of coreness ``> r`` plus still-alive
    candidates; survivors rise by exactly one.
    """
    r = min(coreness[u], coreness[v])
    roots = [w for w in (u, v) if coreness[w] == r]
    cand = _insert_candidates(graph, coreness, roots, r)
    alive = set(cand)
    supp = {
        w: sum(1 for n in graph.neighbors(w) if coreness[n] > r or n in alive)
        for w in cand
    }
    stack = [w for w in cand if supp[w] <= r]
    while stack:
        w = stack.pop()
        if w not in alive:
            continue
        alive.discard(w)
        for n in graph.neighbors(w):
            if n in alive:
                supp[n] -= 1
                if supp[n] <= r:
                    stack.append(n)
    changed = {}
    for w in alive:
        coreness[w] = r + 1
        changed[w] = r + 1
    return changed


def repair_delete(graph, coreness: dict, u, v) -> dict:
    """Repair ``coreness`` after edge ``(u, v)`` was removed from ``graph``.

    ``graph`` must no longer contain the edge.  Support is computed
    lazily against the *current* coreness (already-dropped neighbors
    count as ``r - 1``), so the cascade never leaves the damaged region:
    a vertex drops by exactly one as soon as it has fewer than ``r``
    neighbors of coreness ``>= r``.
    """
    r = min(coreness[u], coreness[v])
    supp: dict = {}
    changed = {}
    stack = [w for w in (u, v) if coreness[w] == r]
    while stack:
        w = stack.pop()
        if coreness[w] < r:
            continue
        if w not in supp:
            supp[w] = sum(1 for n in graph.neighbors(w) if coreness[n] >= r)
        if supp[w] >= r:
            continue
        coreness[w] = r - 1
        changed[w] = r - 1
        for n in graph.neighbors(w):
            if coreness[n] == r:
                if n in supp:
                    supp[n] -= 1
                    if supp[n] < r:
                        stack.append(n)
                else:
                    stack.append(n)
    return changed
