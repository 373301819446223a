"""`MACRequest`: the typed, validated unit of work of the query engine.

A request captures everything ``mac_search`` used to take as loose
keyword arguments — the query of Problems 1/2 (Q, k, t, R, j), the
problem/algorithm selection, and the per-algorithm knobs — as a frozen
dataclass that validates eagerly at construction.  Frozen-ness matters:
requests are used as (partial) cache keys and may be shared across batch
worker threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

from repro.errors import QueryError
from repro.geometry.region import PreferenceRegion

PROBLEMS = ("nc", "topj")
ALGORITHMS = ("auto", "global", "local")
STRATEGIES = ("eq3", "eq4")
REFINEMENTS = ("arrangement", "envelope")
CERTIFICATIONS = ("fast", "chain")


def region_key(region: PreferenceRegion) -> tuple:
    """Hashable identity of a region (the engine's dominance-cache key)."""
    return (tuple(region.lows.tolist()), tuple(region.highs.tolist()))


@dataclass(frozen=True)
class MACRequest:
    """One MAC query against a prepared :class:`~repro.engine.MACEngine`.

    Required fields are the paper's query parameters; everything else
    defaults to the values the free-function API used.  ``algorithm``
    additionally accepts ``"auto"``, which lets the engine pick global
    vs local search from the size of the maximal (k,t)-core.
    """

    query: tuple[int, ...]
    k: int
    t: float
    region: PreferenceRegion
    j: int = 1
    problem: str = "nc"
    algorithm: str = "auto"
    use_gtree: bool | None = None  # None: engine default
    max_partitions: int | None = None
    strategy: str = "eq3"
    max_candidates: int = 24
    refinement: str = "arrangement"
    certification: str = "fast"
    time_budget: float | None = None
    #: Wall-clock budget (seconds) for the whole request: every pipeline
    #: stage and search loop checks it, raising the typed
    #: :class:`~repro.errors.DeadlineExceeded` on expiry.  Like ``label``
    #: it cannot change the answer, so it is excluded from the request's
    #: semantic identity (``result_key``) and equality.
    deadline: float | None = field(default=None, compare=False)
    #: Anytime mode: when the ``deadline`` expires, return the best
    #: feasible community found so far (marked ``partial=True`` with
    #: progress stats) instead of raising.  Like ``deadline`` it cannot
    #: change a *completed* answer, so it is excluded from the semantic
    #: identity — and partial results are never cached, so an anytime
    #: request can never poison the result cache for an exact one.
    anytime: bool = field(default=False, compare=False)
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        raw = tuple(self.query)
        if any(not isinstance(v, Integral) for v in raw):
            raise QueryError("query users must be integers")
        # Coerce numpy integers etc. to plain ints: canonical cache keys,
        # and the historical free-function API accepted numpy arrays.
        object.__setattr__(
            self, "query", tuple(sorted({int(v) for v in raw}))
        )
        if not self.query:
            raise QueryError("query user set Q must be non-empty")
        if not isinstance(self.k, Integral):
            raise QueryError(
                f"coreness threshold k must be an integer, got {self.k!r}"
            )
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise QueryError(
                f"coreness threshold k must be >= 1, got {self.k}"
            )
        if not isinstance(self.t, Real):
            raise QueryError(
                f"distance threshold t must be a number, got {self.t!r}"
            )
        object.__setattr__(self, "t", float(self.t))
        if self.t < 0:
            raise QueryError(
                f"distance threshold t must be >= 0, got {self.t}"
            )
        if not isinstance(self.region, PreferenceRegion):
            raise QueryError(
                f"region must be a PreferenceRegion, got "
                f"{type(self.region).__name__}"
            )
        if not isinstance(self.j, Integral):
            raise QueryError(f"j must be an integer, got {self.j!r}")
        object.__setattr__(self, "j", int(self.j))
        if self.j < 1:
            raise QueryError(f"j must be >= 1, got {self.j}")
        if self.problem not in PROBLEMS:
            raise QueryError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEMS}"
            )
        if self.problem == "nc" and self.j != 1:
            raise QueryError(
                f"j={self.j} conflicts with problem 'nc' (the non-contained "
                f"MAC is rank-1 by definition); use problem='topj'"
            )
        if self.algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{ALGORITHMS}"
            )
        if self.strategy not in STRATEGIES:
            raise QueryError(
                f"unknown expand strategy {self.strategy!r}; expected one "
                f"of {STRATEGIES}"
            )
        if self.refinement not in REFINEMENTS:
            raise QueryError(
                f"unknown refinement {self.refinement!r}; expected one of "
                f"{REFINEMENTS}"
            )
        if self.certification not in CERTIFICATIONS:
            raise QueryError(
                f"unknown certification {self.certification!r}; expected "
                f"one of {CERTIFICATIONS}"
            )
        if self.max_candidates < 1:
            raise QueryError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        if self.max_partitions is not None and self.max_partitions < 1:
            raise QueryError(
                f"max_partitions must be >= 1, got {self.max_partitions}"
            )
        if self.time_budget is not None and self.time_budget <= 0:
            raise QueryError(
                f"time_budget must be positive, got {self.time_budget}"
            )
        if self.deadline is not None:
            if not isinstance(self.deadline, Real):
                raise QueryError(
                    f"deadline must be a number of seconds, got "
                    f"{self.deadline!r}"
                )
            object.__setattr__(self, "deadline", float(self.deadline))
            if self.deadline <= 0:
                raise QueryError(
                    f"deadline must be positive, got {self.deadline}"
                )
        object.__setattr__(self, "anytime", bool(self.anytime))

    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        query: Iterable[int],
        k: int,
        t: float,
        region: PreferenceRegion,
        **knobs,
    ) -> MACRequest:
        """Build a request from any iterable of query users plus knobs.

        Unknown keyword arguments raise :class:`QueryError` (rather than
        ``TypeError``) so callers translating loose dicts — e.g. the CLI's
        JSONL batch reader — get a library-typed failure.
        """
        allowed = {f.name for f in fields(cls)} - {"query", "k", "t", "region"}
        unknown = sorted(set(knobs) - allowed)
        if unknown:
            raise QueryError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        return cls(tuple(query), k, t, region, **knobs)

    # ------------------------------------------------------------------
    # cache keys for the engine's staged pipeline
    # ------------------------------------------------------------------
    @property
    def filter_key(self) -> tuple:
        """Key of the Lemma-1 range filter: (Q, t) only."""
        return (self.query, float(self.t))

    @property
    def core_key(self) -> tuple:
        """Key of the maximal (k,t)-core: (Q, k, t)."""
        return (self.query, self.k, float(self.t))

    @property
    def dominance_key(self) -> tuple:
        """Key of the r-dominance graph: (Q, k, t, R)."""
        return (self.query, self.k, float(self.t), region_key(self.region))

    @property
    def result_key(self) -> tuple:
        """Full semantic identity of the request (result-cache key).

        Everything that can influence the answer — all fields except the
        display ``label`` and the ``deadline`` budget (a request that
        beat its deadline produced the same answer any deadline allows).
        """
        return (
            self.query,
            self.k,
            float(self.t),
            region_key(self.region),
            self.j,
            self.problem,
            self.algorithm,
            self.use_gtree,
            self.max_partitions,
            self.strategy,
            self.max_candidates,
            self.refinement,
            self.certification,
            self.time_budget,
        )

    def describe(self) -> str:
        """Short one-line rendering used by logs and batch output."""
        name = self.label or "request"
        return (
            f"{name}(Q={list(self.query)}, k={self.k}, t={self.t:g}, "
            f"{self.problem}"
            + (f", j={self.j}" if self.problem == "topj" else "")
            + f", {self.algorithm})"
        )
