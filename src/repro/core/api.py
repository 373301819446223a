"""Free-function entry points for MAC search (thin engine wrappers).

The primary API of this package is the stateful
:class:`repro.engine.MACEngine`: construct it once per network, submit
typed :class:`repro.engine.MACRequest` objects through ``search`` /
``search_batch``, and the engine reuses the expensive pipeline stages
(G-tree, Lemma-1 range filters, coreness arrays, (k,t)-cores,
r-dominance graphs) across queries.  See ``ENGINE.md`` for the guide
and the migration table.

The functions here are the original one-shot convenience API, kept
working as thin wrappers that delegate to a per-call engine:
``mac_search`` runs the full pipeline of the paper — range filter
(Lemma 1, optionally G-tree accelerated), maximal (k,t)-core (Lemma 3),
r-dominance graph construction (Section IV), then global (Algorithm 1)
or local (Algorithms 3-5) search for Problem 1 (top-j) or Problem 2
(non-contained).  The four named algorithms of Section VII are the
convenience wrappers ``gs_topj`` (GS-T), ``gs_nc`` (GS-NC), ``ls_topj``
(LS-T) and ``ls_nc`` (LS-NC).  Each call rebuilds all prepared state
except the G-tree, which lives on the network
(:attr:`RoadSocialNetwork.gtree`) and is shared with any engine; for
repeated-query workloads, hold an engine instead.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion
from repro.core.global_search import SearchStats
from repro.core.query import Community, MACQuery, PartitionEntry
from repro.social.roadsocial import RoadSocialNetwork


@dataclass
class MACSearchResult:
    """Outcome of a MAC search: partitions of R with their communities.

    ``partial`` marks an anytime answer: the deadline expired and the
    result holds the best feasible communities found so far instead of
    the complete, certified set (see ``MACRequest.anytime``).
    ``progress`` then records how far the search got (tasks done, peel
    rounds, candidates seen); it is empty for exact results.
    """

    query: MACQuery
    partitions: list[PartitionEntry]
    stats: SearchStats
    elapsed: float
    htk_vertices: int = 0
    htk_edges: int = 0
    extra: dict = field(default_factory=dict)
    partial: bool = False
    progress: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.partitions

    def communities(self) -> set[Community]:
        """All distinct communities across every partition and rank."""
        out: set[Community] = set()
        for entry in self.partitions:
            out.update(entry.communities)
        return out

    def nc_communities(self) -> set[Community]:
        """Distinct rank-1 (non-contained / best) communities."""
        return {entry.best for entry in self.partitions if entry.communities}

    def entry_at(self, w_reduced: np.ndarray) -> PartitionEntry | None:
        """The partition whose cell contains the weight ``w_reduced``."""
        w = np.asarray(w_reduced, dtype=float)
        for entry in self.partitions:
            if entry.cell.contains(w):
                return entry
        return None

    def summary(self, max_rows: int = 10) -> str:
        """Human-readable digest of the result (one line per partition)."""
        mark = " [partial]" if self.partial else ""
        if self.is_empty:
            return (
                f"MAC search {self.query.query}: no maximal (k,t)-core — "
                f"no communities{mark} ({self.elapsed:.3f}s)"
            )
        lines = [
            f"MAC search Q={self.query.query} k={self.query.k} "
            f"t={self.query.t:g}: {len(self.partitions)} partition(s), "
            f"{len(self.communities())} distinct MAC(s), "
            f"|H^t_k|={self.htk_vertices}, {self.elapsed:.3f}s{mark}"
        ]
        for i, entry in enumerate(self.partitions[:max_rows]):
            w = entry.sample_weight()
            sizes = "/".join(str(len(c)) for c in entry.communities)
            lines.append(
                f"  [{i}] w≈{np.round(w, 3).tolist()} sizes {sizes}"
            )
        if len(self.partitions) > max_rows:
            lines.append(f"  ... {len(self.partitions) - max_rows} more")
        return "\n".join(lines)


def mac_search(
    network: RoadSocialNetwork,
    query: Iterable[int],
    k: int,
    t: float,
    region: PreferenceRegion,
    j: int = 1,
    algorithm: str = "global",
    problem: str = "nc",
    use_gtree: bool = False,
    max_partitions: int | None = None,
    strategy: str = "eq3",
    max_candidates: int = 24,
    refinement: str = "arrangement",
    certification: str = "fast",
    time_budget: float | None = None,
    deadline: float | None = None,
    anytime: bool = False,
) -> MACSearchResult:
    """Run one MAC search end to end (one-shot engine delegation).

    Parameters
    ----------
    network:
        The road-social network.
    query, k, t, region, j:
        The query of Problems 1/2 (Section II-D).  ``j`` only applies to
        ``problem="topj"`` and is ignored for ``"nc"``.
    algorithm:
        ``"global"`` (Algorithm 1), ``"local"`` (Algorithms 3-5), or
        ``"auto"`` (pick by the size of the maximal (k,t)-core).
    problem:
        ``"nc"`` (Problem 2, non-contained MACs) or ``"topj"`` (Problem 1).
    use_gtree:
        Accelerate the Lemma-1 range filter with the network's shared
        G-tree (built on first use, reused forever).
    max_partitions:
        Safety budget for the global search's output size.
    strategy, max_candidates:
        Local-search knobs (Eq. 3 vs Eq. 4 priority; Expand snapshots).
    refinement:
        Global-search partitioning: ``"arrangement"`` (the paper's
        Algorithm 1 — all pairwise leaf half-spaces) or ``"envelope"``
        (lower-envelope ablation: refine only against the current
        minimum; same non-contained MACs, far fewer partitions).
    deadline, anytime:
        Wall-clock budget in seconds; with ``anytime=True`` expiry
        returns the best-so-far feasible community (``partial=True``)
        instead of raising :class:`~repro.errors.DeadlineExceeded`.
    """
    from repro.engine import MACEngine, MACRequest

    if j < 1:
        # Validate before the nc-path normalization below masks a bad j.
        raise QueryError(f"j must be >= 1, got {j}")
    request = MACRequest.make(
        query, k, t, region,
        j=j if problem == "topj" else 1,
        algorithm=algorithm,
        problem=problem,
        use_gtree=use_gtree,
        max_partitions=max_partitions,
        strategy=strategy,
        max_candidates=max_candidates,
        refinement=refinement,
        certification=certification,
        time_budget=time_budget,
        deadline=deadline,
        anytime=anytime,
    )
    return MACEngine(network).search(request)


#: Optional keyword arguments the ``gs_*`` / ``ls_*`` wrappers may
#: forward to :func:`mac_search`.  ``algorithm`` and ``problem`` are
#: fixed by the wrapper's identity, and ``j`` is positional-only on the
#: top-j wrappers / meaningless on the non-contained ones.
_WRAPPER_KWARGS = frozenset(
    {
        "use_gtree",
        "max_partitions",
        "strategy",
        "max_candidates",
        "refinement",
        "certification",
        "time_budget",
        "deadline",
        "anytime",
    }
)


def _check_wrapper_kwargs(name: str, kwargs: dict) -> None:
    """Reject conflicting/unknown kwargs instead of silently passing them.

    The wrappers historically accepted ``**kwargs`` verbatim, so e.g.
    ``gs_nc(..., j=5)`` silently ran a different query than the caller
    intended (``j`` is meaningless for Problem 2) and
    ``ls_nc(..., algorithm="global")`` would have crashed with a
    confusing ``TypeError`` about duplicate keywords.
    """
    conflicting = sorted(
        k for k in kwargs if k in ("algorithm", "problem", "j")
    )
    if conflicting:
        raise QueryError(
            f"{name}() fixes {', '.join(conflicting)}; pass them to "
            f"mac_search() instead"
        )
    unknown = sorted(set(kwargs) - _WRAPPER_KWARGS)
    if unknown:
        raise QueryError(
            f"{name}() got unknown keyword(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(_WRAPPER_KWARGS))}"
        )


def gs_topj(network, query, k, t, region, j, **kwargs) -> MACSearchResult:
    """GS-T: global search for the top-j MACs (Problem 1)."""
    _check_wrapper_kwargs("gs_topj", kwargs)
    return mac_search(
        network, query, k, t, region, j=j,
        algorithm="global", problem="topj", **kwargs,
    )


def gs_nc(network, query, k, t, region, **kwargs) -> MACSearchResult:
    """GS-NC: global search for the non-contained MACs (Problem 2)."""
    _check_wrapper_kwargs("gs_nc", kwargs)
    return mac_search(
        network, query, k, t, region,
        algorithm="global", problem="nc", **kwargs,
    )


def ls_topj(network, query, k, t, region, j, **kwargs) -> MACSearchResult:
    """LS-T: local search for the top-j MACs (Problem 1)."""
    _check_wrapper_kwargs("ls_topj", kwargs)
    return mac_search(
        network, query, k, t, region, j=j,
        algorithm="local", problem="topj", **kwargs,
    )


def ls_nc(network, query, k, t, region, **kwargs) -> MACSearchResult:
    """LS-NC: local search for the non-contained MACs (Problem 2)."""
    _check_wrapper_kwargs("ls_nc", kwargs)
    return mac_search(
        network, query, k, t, region,
        algorithm="local", problem="nc", **kwargs,
    )
