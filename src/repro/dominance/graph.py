"""The r-dominance graph Gd of Section IV: a Hasse DAG over H^t_k.

Vertices are streamed in non-increasing pivot-score order by the adapted
BBS over an R-tree of the attribute vectors; each arrival is attached
below its most specific r-dominators (transitive-reduction arcs only, as
in Fig. 4(b)).  Pivot ordering guarantees no later vertex can r-dominate
an earlier one, so the insertion order is a topological order.  One
reverse-topological OR sweep over it yields every vertex's
strict-descendant bitset (:meth:`DominanceGraph.closure`, built lazily
and cached); the subset queries (leaves/tops within a vertex subset,
dominators of a subset) then cost one big-int AND or OR per member.
Above ``CLOSURE_MAX`` vertices they fall back to O(V + E) sweeps.

Construction keeps every corner score in one ``(n, p)`` matrix:
dominator detection is a single vectorized comparison against the
inserted prefix, and Hasse-parent minimization is an array gather over a
CSR store of parent rows.  The per-vertex pairwise build it replaced is
the oracle of ``tests/oracles/dominance.py``; the two produce identical
DAGs.

Tie handling: two vertices whose score functions coincide on all of R
would r-dominate each other under the paper's weak inequality; we orient
the arc toward the later vertex in the (deterministic) BBS order, keeping
Gd acyclic.  This is the only deliberate deviation from the paper's
definitions and is recorded in DESIGN.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.dominance.relation import (
    DOMINATES,
    EQUAL,
    SCORE_EPS,
    dominance_case,
)
from repro.errors import GeometryError, GraphError
from repro.geometry.halfspace import Halfspace, score_halfspace
from repro.geometry.region import PreferenceRegion
from repro.kernels.flatgraph import ragged_offsets
from repro.spatial.bbs import bbs_order
from repro.spatial.rtree import RTree

Vertex = int


class DominanceGraph:
    """Pairwise r-dominance relationships of a vertex set, as a Hasse DAG."""

    def __init__(
        self,
        attributes: Mapping[Vertex, np.ndarray],
        region: PreferenceRegion,
        use_rtree: bool = True,
    ) -> None:
        self._init_base(attributes, region)
        self._build(use_rtree)

    def _init_base(
        self,
        attributes: Mapping[Vertex, np.ndarray],
        region: PreferenceRegion,
    ) -> None:
        """Validate inputs and compute corner scores (no DAG yet)."""
        if not attributes:
            raise GeometryError("dominance graph needs at least one vertex")
        self.region = region
        self._corners = region.corners()
        self._ids: list[Vertex] = sorted(attributes)
        d = region.num_attributes
        self._attrs: dict[Vertex, np.ndarray] = {}
        for v in self._ids:
            x = np.asarray(attributes[v], dtype=float)
            if x.shape != (d,):
                raise GeometryError(
                    f"vertex {v} has {x.shape[0]}-d attributes, expected {d}"
                )
            self._attrs[v] = x
        # One (n, d) stack + one affine product: every corner score in a
        # single matrix, replacing n per-vertex evaluations.
        x_all = np.asarray([self._attrs[v] for v in self._ids])
        if self._corners.shape[1] == 0:
            p = max(1, self._corners.shape[0])
            cs_all = np.repeat(x_all[:, :1], p, axis=1)
        else:
            tail = x_all[:, -1:]
            cs_all = tail + (x_all[:, :-1] - tail) @ self._corners.T
        self._cs_all = cs_all
        self._cs_row = {v: i for i, v in enumerate(self._ids)}
        self.parents: dict[Vertex, tuple[Vertex, ...]] = {}
        self.children: dict[Vertex, list[Vertex]] = {v: [] for v in self._ids}
        self.order: list[Vertex] = []
        self._pos: dict[Vertex, int] = {}
        self.roots: list[Vertex] = []
        self._layer: dict[Vertex, int] = {}
        self._halfspace_cache: dict[tuple[Vertex, Vertex], Halfspace] = {}
        self._desc_bits: list[int] | None = None

    @classmethod
    def from_hasse(
        cls,
        attributes: Mapping[Vertex, np.ndarray],
        region: PreferenceRegion,
        order: Sequence[Vertex],
        parents: Mapping[Vertex, Sequence[Vertex]],
    ) -> DominanceGraph:
        """Rebuild a Gd from a previously computed Hasse DAG.

        The snapshot restore path: skips the BBS stream and all
        dominator detection — only the (cheap) corner-score matrix is
        recomputed and the recorded insertion order replayed.  ``order``
        must be a permutation of the attribute keys and ``parents`` must
        reference already-inserted vertices (both hold for any DAG
        produced by the normal constructor).
        """
        self = cls.__new__(cls)
        self._init_base(attributes, region)
        if sorted(order) != self._ids:
            raise GraphError(
                "Hasse order is not a permutation of the attribute keys"
            )
        for v in order:
            pars = list(parents.get(v, ()))
            if any(p not in self._layer for p in pars):
                raise GraphError(
                    f"Hasse parent of {v!r} is not inserted before it "
                    f"in the order"
                )
            self._attach(v, pars)
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _cscore(self, v: Vertex) -> np.ndarray:
        """Corner-score row of ``v`` (a view into the score matrix)."""
        return self._cs_all[self._cs_row[v]]

    def _stream(self, use_rtree: bool) -> Iterable[Vertex]:
        if use_rtree and len(self._ids) > 1:
            points = np.asarray([self._attrs[v] for v in self._ids])
            rtree = RTree(points, payloads=list(self._ids))
            return (payload for payload, _score in bbs_order(rtree, self.region))
        pivot = self.region.pivot()
        if self.region.dim:
            pivot_scores = {
                v: float(
                    x[-1] + np.dot(pivot, x[:-1] - x[-1])
                ) for v, x in self._attrs.items()
            }
        else:
            pivot_scores = {v: float(x[0]) for v, x in self._attrs.items()}
        # Secondary key: corner-score sum, so that on an exact pivot tie a
        # strict r-dominator still precedes its dominatee (its corner sum
        # is strictly larger), keeping the insertion order topological.
        corner_sums = {
            v: float(self._cscore(v).sum()) for v in self._ids
        }
        return sorted(
            self._ids,
            key=lambda v: (-pivot_scores[v], -corner_sums[v], v),
        )

    def dag_dominates(self, u: Vertex, v: Vertex) -> bool:
        """DAG orientation of r-dominance: true partial order + id tie-break."""
        case = dominance_case(self._cscore(u), self._cscore(v), SCORE_EPS)
        if case == DOMINATES:
            return True
        if case == EQUAL:
            pu, pv = self._pos.get(u), self._pos.get(v)
            if pu is not None and pv is not None:
                return pu < pv
            return u < v
        return False

    def _attach(self, v: Vertex, parents: list[Vertex]) -> None:
        """Shared bookkeeping once a vertex's Hasse parents are known."""
        self._pos[v] = len(self.order)
        self.order.append(v)
        self.parents[v] = tuple(parents)
        for par in parents:
            self.children[par].append(v)
        if not parents:
            self.roots.append(v)
        self._layer[v] = (
            0 if not parents else 1 + max(self._layer[p] for p in parents)
        )

    def _build(self, use_rtree: bool) -> None:
        """Vectorized insertion: one comparison and one gather per vertex.

        ``cs_ins`` mirrors the corner scores in insertion order;
        ``parent_flat``/``parent_ptr`` store each inserted row's Hasse
        parents as rows (an append-only CSR).  The dominators D of an
        arrival are one ``all(diff >= -eps)`` row reduction; the
        non-minimal members of D are exactly the union of the Hasse
        parents of D (every non-minimal dominator is an ancestor of a
        deeper one, and ancestors of dominators are dominators), so the
        Hasse parents fall out of one ragged gather + mask instead of a
        per-dominator set union.
        """
        n = len(self._ids)
        p = self._cs_all.shape[1]
        cs_ins = np.empty((n, p))
        parent_ptr = np.zeros(n + 1, np.int64)
        parent_flat = np.empty(max(4, n), np.int64)
        parent_len = 0
        mark = np.zeros(n, bool)
        for v in self._stream(use_rtree):
            count = len(self.order)
            cs_v = self._cscore(v)
            if count == 0:
                minimal_rows: list[int] = []
            else:
                diff = cs_ins[:count] - cs_v
                dominator_rows = np.nonzero(
                    np.all(diff >= -SCORE_EPS, axis=1)
                )[0]
                if dominator_rows.size == 0:
                    minimal_rows = []
                else:
                    offs, _counts = ragged_offsets(
                        parent_ptr, dominator_rows
                    )
                    if offs.size:
                        non_minimal = parent_flat[offs]
                        mark[non_minimal] = True
                        minimal = dominator_rows[~mark[dominator_rows]]
                        mark[non_minimal] = False
                    else:
                        minimal = dominator_rows
                    minimal_rows = minimal.tolist()
            cs_ins[count] = cs_v
            need = parent_len + len(minimal_rows)
            if need > parent_flat.shape[0]:
                parent_flat = np.resize(
                    parent_flat, max(need, 2 * parent_flat.shape[0])
                )
            for r in minimal_rows:
                parent_flat[parent_len] = r
                parent_len += 1
            parent_ptr[count + 1] = parent_len
            self._attach(v, [self.order[r] for r in minimal_rows])

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._attrs

    def vertices(self) -> list[Vertex]:
        return list(self._ids)

    def attribute(self, v: Vertex) -> np.ndarray:
        return self._attrs[v]

    def layer(self, v: Vertex) -> int:
        """Depth of ``v`` in Gd (roots at layer 0); the l(v) of Eq. 3/4."""
        return self._layer[v]

    def max_layer(self) -> int:
        return max(self._layer.values())

    def score_at(self, v: Vertex, w: np.ndarray) -> float:
        x = self._attrs[v]
        if w.shape[0] == 0:
            return float(x[0])
        return float(x[-1] + np.dot(w, x[:-1] - x[-1]))

    def scores_at(self, w: np.ndarray, subset: Iterable[Vertex]) -> dict[Vertex, float]:
        return {v: self.score_at(v, w) for v in subset}

    def rankings(
        self, weights: Sequence[np.ndarray], vertices: Sequence[Vertex]
    ) -> list[np.ndarray]:
        """Per weight w, the permutation of ``vertices`` (ascending ids)
        that equals ``sorted(vertices, key=(-score_at(v, w), v))``.

        One matrix product scores every distinct attribute row at every
        weight; a ``lexsort`` per weight ranks them.  The product may
        round differently from :meth:`score_at`'s dot product, by at
        most a few ulps of the row's magnitude, so rows whose product
        scores lie within ``tol`` of a neighbor in rank take their exact
        :meth:`score_at` value: every pair the product could misorder
        is such a near tie, and exact values keep clear of every other
        row.  Equal attribute rows always score equal, so only distinct
        rows are scored.
        """
        n = len(vertices)
        if n == 0 or not weights:
            return [np.empty(0, np.int64) for _ in weights]
        x = np.asarray([self._attrs[v] for v in vertices])
        uniq, first, inverse = np.unique(
            x, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        tail = uniq[:, -1]
        diff = uniq[:, :-1] - tail[:, None]
        approx = tail[:, None] + diff @ np.asarray(weights, dtype=float).T
        magnitude = float(np.abs(uniq).max())
        eps = np.finfo(float).eps
        rows = np.arange(n)
        out = []
        for p, w in enumerate(weights):
            score = approx[:, p]
            tol = 8 * x.shape[1] * eps * magnitude * (1 + 2 * np.abs(w).sum())
            by_score = np.argsort(-score)
            ranked = score[by_score]
            near = np.flatnonzero(ranked[:-1] - ranked[1:] <= tol)
            if near.size:
                score = score.copy()
                for u in np.union1d(by_score[near], by_score[near + 1]):
                    score[u] = self.score_at(vertices[first[u]], w)
            out.append(np.lexsort((rows, -score[inverse])))
        return out

    def halfspace(self, u: Vertex, v: Vertex) -> Halfspace:
        """Cached half-space where ``S(u) >= S(v)`` (Section V-B caching)."""
        key = (u, v)
        h = self._halfspace_cache.get(key)
        if h is None:
            h = score_halfspace(self._attrs[u], self._attrs[v])
            self._halfspace_cache[key] = h
        return h

    # ------------------------------------------------------------------
    # descendant closure (bitsets over sorted-id rows)
    # ------------------------------------------------------------------
    #: Size cap for the closure: ``n`` Python-int bitsets of ``n`` bits
    #: cost ~n**2 / 8 bytes (32 MiB at the cap); above it the subset
    #: queries fall back to the O(V + E) sweeps.
    CLOSURE_MAX = 16384

    def closure(self) -> list[int] | None:
        """Strict-descendant bitset of every vertex, or None above the cap.

        Entry ``r`` describes the vertex of sorted-id row ``r`` (see
        :meth:`row_of`); bit ``c`` is set iff that vertex r-dominates the
        vertex of row ``c``.  Built lazily in one reverse-topological OR
        sweep and cached on this graph (a benign race under concurrent
        first use: every racing call computes the same list).  Never
        pickled.
        """
        desc = self._desc_bits
        if desc is None and len(self._ids) <= self.CLOSURE_MAX:
            row = self._cs_row
            desc = [0] * len(self._ids)
            for v in reversed(self.order):
                bits = 0
                for c in self.children[v]:
                    rc = row[c]
                    bits |= desc[rc] | (1 << rc)
                desc[row[v]] = bits
            self._desc_bits = desc
        return desc

    def row_of(self, v: Vertex) -> int:
        """Sorted-id row of ``v``: its bit in :meth:`closure` masks."""
        return self._cs_row[v]

    def mask_of(self, subset: Iterable[Vertex]) -> int:
        """Bitset of ``subset`` over sorted-id rows."""
        rows = np.zeros(len(self._ids), bool)
        rows[[self._cs_row[v] for v in subset]] = True
        return int.from_bytes(
            np.packbits(rows, bitorder="little").tobytes(), "little"
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_desc_bits"] = None
        return state

    def dominating(
        self, targets: Iterable[Vertex], among: Iterable[Vertex]
    ) -> list[Vertex]:
        """Members of ``among`` that r-dominate some member of ``targets``
        (strict descendants, as :meth:`has_descendant_in`)."""
        desc = self.closure()
        if desc is None:
            flag = self.has_descendant_in(set(targets))
            return [v for v in among if flag[v]]
        mask = self.mask_of(targets)
        row = self._cs_row
        return [v for v in among if desc[row[v]] & mask]

    # ------------------------------------------------------------------
    # subset sweeps (all O(V + E_hasse) using the topological order)
    # ------------------------------------------------------------------
    def has_descendant_in(self, subset: set[Vertex]) -> dict[Vertex, bool]:
        """For every vertex: does any strict Hasse-descendant lie in subset?"""
        flag: dict[Vertex, bool] = {}
        for v in reversed(self.order):
            flag[v] = any(
                (c in subset) or flag[c] for c in self.children[v]
            )
        return flag

    def has_ancestor_in(self, subset: set[Vertex]) -> dict[Vertex, bool]:
        """For every vertex: does any strict Hasse-ancestor lie in subset?"""
        flag: dict[Vertex, bool] = {}
        for v in self.order:
            flag[v] = any((p in subset) or flag[p] for p in self.parents[v])
        return flag

    def leaves_within(self, subset: Iterable[Vertex]) -> list[Vertex]:
        """Bottom layer of Gd[subset]: members dominating no other member.

        These are the only possible smallest-score vertices of the subset
        (lb(Ge) in Section VI-B).
        """
        s = set(subset)
        desc = self.closure()
        if desc is None:
            flag = self.has_descendant_in(s)
            return sorted(v for v in s if not flag[v])
        mask = self.mask_of(s)
        row = self._cs_row
        return sorted(v for v in s if not desc[row[v]] & mask)

    def leaves(self) -> list[Vertex]:
        """``leaves_within(self.vertices())`` without a sweep: a vertex
        r-dominating another has a Hasse path down to it, so a child."""
        return [v for v in self._ids if not self.children[v]]

    def tops_within(self, subset: Iterable[Vertex]) -> list[Vertex]:
        """Top layer of Gd[subset]: members with r-dominance count 0 inside.

        lt(Gc) in Section VI-B: every subset member is (weakly) dominated
        by some top-layer member.
        """
        s = set(subset)
        desc = self.closure()
        if desc is None:
            flag = self.has_ancestor_in(s)
            return sorted(v for v in s if not flag[v])
        row = self._cs_row
        covered = 0
        for v in s:
            covered |= desc[row[v]]
        return sorted(v for v in s if not covered >> row[v] & 1)

    def ancestors(self, v: Vertex) -> set[Vertex]:
        """All strict Hasse-ancestors (the r-dominators) of ``v``."""
        out: set[Vertex] = set()
        stack = list(self.parents[v])
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(self.parents[u])
        return out

    def descendants(self, v: Vertex) -> set[Vertex]:
        """All strict Hasse-descendants (vertices ``v`` r-dominates)."""
        out: set[Vertex] = set()
        stack = list(self.children[v])
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(self.children[u])
        return out

    def r_dominance_count(self, v: Vertex) -> int:
        """Number of vertices that r-dominate ``v`` (Section IV-B)."""
        return len(self.ancestors(v))

    def num_arcs(self) -> int:
        return sum(len(c) for c in self.children.values())

    def to_dot(self, labels: Mapping[Vertex, str] | None = None) -> str:
        """Graphviz DOT rendering of Gd (layers as ranks, like Fig. 4(b))."""
        labels = labels or {}
        lines = ["digraph Gd {", "  rankdir=TB;"]
        by_layer: dict[int, list[Vertex]] = {}
        for v in self._ids:
            by_layer.setdefault(self._layer[v], []).append(v)
        for layer in sorted(by_layer):
            names = " ".join(f'"{v}"' for v in sorted(by_layer[layer]))
            lines.append(f"  {{ rank=same; {names} }}")
        for v in self._ids:
            label = labels.get(v, str(v))
            lines.append(f'  "{v}" [label="{label}"];')
        for v, kids in self.children.items():
            for c in kids:
                lines.append(f'  "{v}" -> "{c}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DominanceGraph(|V|={self.num_vertices}, arcs={self.num_arcs()},"
            f" depth={self.max_layer()})"
        )


def build_dominance_graph(
    vertices: Sequence[Vertex],
    attributes: Mapping[Vertex, np.ndarray],
    region: PreferenceRegion,
    use_rtree: bool = True,
) -> DominanceGraph:
    """Convenience constructor over a vertex subset."""
    return DominanceGraph(
        {v: attributes[v] for v in vertices}, region, use_rtree=use_rtree
    )
