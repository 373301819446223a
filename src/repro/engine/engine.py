"""`MACEngine`: a long-lived, stateful MAC query engine.

The free-function API (``repro.mac_search``) rebuilds the whole pipeline
— Lemma-1 range filter, maximal (k,t)-core, r-dominance graph — on every
call.  The engine amortizes that work across queries the way production
community-search systems amortize their distance and attribute indexes:
it is constructed once from a :class:`RoadSocialNetwork` and owns

* the shared G-tree accelerator (built at most once, on the network),
* an LRU cache of Lemma-1 range-filter results + coreness arrays keyed
  on the canonicalized ``(Q, t)``,
* an LRU cache of maximal (k,t)-cores and their attribute matrices
  keyed on ``(Q, k, t)``,
* an LRU cache of r-dominance graphs keyed on ``(Q, k, t, R)``,
* an LRU cache of complete results keyed on the full request identity,
  so byte-identical repeated queries (the hot case under heavy traffic)
  are served without re-running the search at all.

Requests are typed (:class:`MACRequest`), single queries run through
:meth:`MACEngine.search`, independent queries through
:meth:`MACEngine.search_batch` on a thread pool sharing the caches, and
:meth:`MACEngine.explain` returns the resolved plan without running it.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.api import MACSearchResult
from repro.core.global_search import GlobalSearch, SearchStats
from repro.core.local_search import LocalSearch
from repro.core.query import MACQuery, PartitionEntry
from repro.deadline import Deadline
from repro.dominance.graph import DominanceGraph
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.request import MACRequest
from repro.errors import DeadlineExceeded, QueryError
from repro.graph.core import core_decomposition
from repro.kernels import (
    FlatGraph,
    core_numbers,
    delete_edge_rows,
    insert_edge_rows,
    k_core_component,
    repair_delete_rows,
    repair_insert_rows,
    search_flatgraph,
)
from repro.kernels.backend import gs_path, stage_path
from repro.live.invalidate import (
    RepairDelta,
    attribute_dirty,
    edge_dirty_delete,
    edge_dirty_insert,
)
from repro.live.kcore import repair_delete, repair_insert
from repro.live.mutations import (
    AddSocialEdge,
    MoveUser,
    RemoveSocialEdge,
    UpdateAttributes,
    normalize_batch,
    validate_batch,
)
from repro.social.roadsocial import (
    KTCore,
    RoadSocialNetwork,
    kt_core_from_coreness,
)
from repro.store.fingerprint import (
    advance_digest,
    format_digest,
    network_digest,
    records_digest,
    touched_records,
)

#: Stages whose wall time the engine accounts separately.
STAGES = ("filter", "core", "dominance", "search")

SEARCHER_NAMES = {
    ("global", "nc"): "GS-NC",
    ("global", "topj"): "GS-T",
    ("local", "nc"): "LS-NC",
    ("local", "topj"): "LS-T",
}


@dataclass
class _PreparedFilter:
    """Cached per-(Q, t) state: Lemma-1 filter plus coreness arrays.

    On the flat path the stage also materializes the CSR view of the
    filtered subgraph and the per-row coreness array, so every later
    (Q, k, t) core extraction reuses them instead of re-deriving flat
    state per k.

    Invariant: a cached entry is immutable, ``filtered`` included.  A
    live repair builds a new entry whose graph shares every adjacency
    set but the two endpoints' with its predecessor
    (:meth:`AdjacencyGraph.toggled`), so every consumer reads
    ``filtered`` or derives from it with ``subgraph()``/``copy()``,
    never mutates it in place.
    """

    query_distance: dict[int, float]
    filtered: object  # AdjacencyGraph of the t-bounded social subgraph
    coreness: dict[int, int]
    max_coreness: int
    flat: FlatGraph | None = None
    core_rows: object | None = None  # np.ndarray aligned with flat rows


@dataclass
class _PreparedCore:
    """Cached per-(Q, k, t) state: H^t_k and its attribute matrix.

    ``search_flat`` is the row-sorted CSR view of H^t_k the flat search
    loop peels over; it is built lazily on the first flat search of
    this core and memoized here so repeat queries (and other (R, j,
    problem) variations over the same core) reuse it.
    """

    core: KTCore | None
    attributes: dict[int, np.ndarray] | None
    search_flat: FlatGraph | None = None


@dataclass(frozen=True)
class EngineTelemetry:
    """Aggregate counters of an engine instance.

    ``stage_seconds`` holds the cumulative wall time spent *building*
    each pipeline stage (cache hits contribute nothing) plus the time
    spent in the search phase — the observability hook that makes
    per-stage kernel wins measurable.  ``deadline_exceeded`` counts
    requests aborted by their :class:`~repro.errors.DeadlineExceeded`
    budget (the serving metric that distinguishes "slow" from "hung");
    ``partial_results`` counts anytime requests that degraded to a
    best-so-far ``partial=True`` answer instead.  ``mutations`` (total
    and per-kind) and ``cache_evicted_by_mutation`` account the live
    update path of :meth:`MACEngine.apply` — the eviction counter is
    how footprint-scoped invalidation is made observable.
    """

    searches: int
    batches: int
    filter: CacheStats
    core: CacheStats
    dominance: CacheStats
    result: CacheStats
    stage_seconds: dict = field(default_factory=dict)
    deadline_exceeded: int = 0
    partial_results: int = 0
    mutations: int = 0
    mutations_by_kind: dict = field(default_factory=dict)
    cache_evicted_by_mutation: int = 0

    @property
    def hits(self) -> int:
        return (
            self.filter.hits + self.core.hits + self.dominance.hits
            + self.result.hits
        )

    @property
    def misses(self) -> int:
        return (
            self.filter.misses + self.core.misses + self.dominance.misses
            + self.result.misses
        )


def merge_telemetry(snapshots: Iterable[EngineTelemetry]) -> EngineTelemetry:
    """Sum telemetry snapshots into one aggregate view.

    The worker tier (:mod:`repro.pool`) runs one engine per process;
    ``/v1/metrics`` reports the fleet as if it were a single engine by
    merging the per-worker snapshots — counters and stage seconds add,
    cache sizes add (each worker owns its LRU), and capacities add too
    (the fleet-wide number of cacheable entries).
    """
    searches = batches = deadline_exceeded = partial_results = 0
    mutations = cache_evicted_by_mutation = 0
    mutations_by_kind: dict = {}
    cache_sums = {
        name: [0, 0, 0, 0]
        for name in ("filter", "core", "dominance", "result")
    }
    stage_seconds: dict = {}
    for tel in snapshots:
        searches += tel.searches
        batches += tel.batches
        deadline_exceeded += tel.deadline_exceeded
        partial_results += tel.partial_results
        mutations += tel.mutations
        cache_evicted_by_mutation += tel.cache_evicted_by_mutation
        for kind, n in tel.mutations_by_kind.items():
            mutations_by_kind[kind] = mutations_by_kind.get(kind, 0) + n
        for name, sums in cache_sums.items():
            stats = getattr(tel, name)
            sums[0] += stats.hits
            sums[1] += stats.misses
            sums[2] += stats.size
            sums[3] += stats.capacity
        for stage, seconds in tel.stage_seconds.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    merged_caches = {
        name: CacheStats(
            hits=sums[0], misses=sums[1], size=sums[2], capacity=sums[3]
        )
        for name, sums in cache_sums.items()
    }
    return EngineTelemetry(
        searches=searches,
        batches=batches,
        stage_seconds=stage_seconds,
        deadline_exceeded=deadline_exceeded,
        partial_results=partial_results,
        mutations=mutations,
        mutations_by_kind=mutations_by_kind,
        cache_evicted_by_mutation=cache_evicted_by_mutation,
        **merged_caches,
    )


@dataclass
class QueryPlan:
    """The resolved execution plan of a request (``explain`` output).

    ``algorithm`` is the final choice when it can be resolved from the
    request or cached state; an ``"auto"`` request whose (k,t)-core has
    not been materialized yet resolves provisionally (see ``notes``).
    """

    request: MACRequest
    problem: str
    algorithm: str
    algorithm_reason: str
    searcher: str
    filter_strategy: str
    backend: str
    search_backend: str
    frontier: str
    gtree_built: bool
    cached: dict[str, bool]
    feasible: bool | None
    htk_vertices: int | None
    htk_upper_bound: int
    stage_seconds: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"plan for {self.request.describe()}:",
            f"  searcher        {self.searcher} ({self.algorithm_reason})",
            f"  range filter    {self.filter_strategy} "
            f"(G-tree built: {self.gtree_built})",
            f"  backend         {self.backend}",
            f"  search          backend={self.search_backend}, "
            f"frontier={self.frontier}",
            f"  cached stages   "
            + ", ".join(f"{k}={v}" for k, v in self.cached.items()),
            f"  |H^t_k|         "
            + (
                str(self.htk_vertices)
                if self.htk_vertices is not None
                else f"<= {self.htk_upper_bound} (not materialized)"
            ),
            f"  feasible        "
            + ("unknown" if self.feasible is None else str(self.feasible)),
            f"  stage seconds   "
            + ", ".join(
                f"{k}={v:.3f}" for k, v in self.stage_seconds.items()
            )
            + " (engine totals)",
        ]
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


class MACEngine:
    """A stateful query engine over one road-social network.

    Parameters
    ----------
    network:
        The substrate all requests run against.  The network must only
        be mutated through :meth:`apply`, which repairs or evicts the
        affected cached state; out-of-band mutation leaves the caches
        silently stale.
    use_gtree:
        Default Lemma-1 strategy for requests that leave
        ``MACRequest.use_gtree`` as ``None``: ``True`` / ``False`` force
        it; ``"auto"`` uses the G-tree when the road network has at
        least ``gtree_auto_threshold`` vertices.
    eager:
        Build the G-tree at construction time (only when the resolved
        default strategy uses it) instead of on first use.
    auto_local_threshold:
        ``algorithm="auto"`` requests run the exact global search when
        ``|H^t_k|`` is at most this, the local search otherwise.
    result_cache_size:
        Capacity of the full-result LRU (0 disables result caching;
        the staged pipeline caches stay active either way).
    """

    def __init__(
        self,
        network: RoadSocialNetwork,
        *,
        use_gtree: bool | str = "auto",
        gtree_auto_threshold: int = 2048,
        gtree_leaf_size: int = 64,
        auto_local_threshold: int = 256,
        filter_cache_size: int = 128,
        core_cache_size: int = 128,
        dominance_cache_size: int = 64,
        result_cache_size: int = 256,
        eager: bool = False,
    ) -> None:
        if use_gtree not in (True, False, "auto"):
            raise QueryError(
                f"use_gtree must be True, False or 'auto', got {use_gtree!r}"
            )
        self.network = network
        self.gtree_leaf_size = gtree_leaf_size
        self.auto_local_threshold = auto_local_threshold
        if use_gtree == "auto":
            self._default_use_gtree = (
                network.road.num_vertices >= gtree_auto_threshold
            )
        else:
            self._default_use_gtree = bool(use_gtree)
        self._filter_cache = LRUCache(filter_cache_size)
        self._core_cache = LRUCache(core_cache_size)
        self._gd_cache = LRUCache(dominance_cache_size)
        self._result_cache = (
            LRUCache(result_cache_size) if result_cache_size > 0 else None
        )
        self._counter_lock = threading.Lock()
        self._mutate_lock = threading.Lock()
        self._searches = 0
        self._batches = 0
        self._deadline_exceeded = 0
        self._partial_results = 0
        self._mutations = 0
        self._mutations_by_kind: dict[str, int] = {}
        self._cache_evicted_by_mutation = 0
        self._delta_seq = 0
        # Content digest of the network (repro.store.fingerprint), kept
        # current by apply once it exists; None until first needed.
        self._digest: int | None = None
        self._stage_seconds = {stage: 0.0 for stage in STAGES}
        if eager:
            self.prepare()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Eagerly build network-level indexes the default plan will use."""
        if self._default_use_gtree:
            self.network.build_gtree(leaf_size=self.gtree_leaf_size)

    def save(self, path, *, compress: bool = True) -> dict:
        """Persist the prepared state as an index snapshot at ``path``.

        Serializes everything expensive the engine has built so far —
        the shared G-tree, the road CSR view, and every live entry of
        the filter/core/dominance stage caches — plus a manifest with
        the format version, a content fingerprint of the network, and
        the engine configuration.  Returns the manifest dict.  See
        :mod:`repro.store` for the format and guarantees.

        ``compress=False`` stores the array payloads uncompressed so
        :meth:`load` can open them as shared read-only memory maps
        (``mmap=True``) — the layout the worker tier serves from.
        """
        from repro.store.snapshot import save_snapshot

        return save_snapshot(self, path, compress=compress)

    @classmethod
    def load(cls, path, network: RoadSocialNetwork, **overrides) -> MACEngine:
        """Warm-start an engine from a snapshot written by :meth:`save`.

        ``network`` must be content-identical to the snapshotted one
        (fingerprint-checked; :class:`~repro.errors.SnapshotError` on
        mismatch, corruption, or format-version skew).  The restored
        engine serves its first query on snapshotted state with zero
        index builds — ``telemetry().stage_seconds`` stays 0.0 for the
        filter/core/dominance stages until a genuinely new key arrives.
        ``overrides`` are :class:`MACEngine` constructor keywords that
        win over the recorded configuration; ``mmap=True`` additionally
        opens uncompressed array payloads as shared read-only memory
        maps (see :func:`repro.store.snapshot.load_snapshot`).
        """
        from repro.store.snapshot import load_snapshot

        return load_snapshot(path, network, **overrides)

    def clear_caches(self) -> None:
        """Drop all cached query state (keeps the network's G-tree)."""
        self._filter_cache.clear()
        self._core_cache.clear()
        self._gd_cache.clear()
        if self._result_cache is not None:
            self._result_cache.clear()

    def telemetry(self) -> EngineTelemetry:
        """Aggregate cache and search counters since construction."""
        with self._counter_lock:
            searches, batches = self._searches, self._batches
            deadline_exceeded = self._deadline_exceeded
            partial_results = self._partial_results
            mutations = self._mutations
            mutations_by_kind = dict(self._mutations_by_kind)
            cache_evicted_by_mutation = self._cache_evicted_by_mutation
            stage_seconds = dict(self._stage_seconds)
        disabled = CacheStats(hits=0, misses=0, size=0, capacity=0)
        return EngineTelemetry(
            searches=searches,
            batches=batches,
            filter=self._filter_cache.stats,
            core=self._core_cache.stats,
            dominance=self._gd_cache.stats,
            result=(
                self._result_cache.stats
                if self._result_cache is not None
                else disabled
            ),
            stage_seconds=stage_seconds,
            deadline_exceeded=deadline_exceeded,
            partial_results=partial_results,
            mutations=mutations,
            mutations_by_kind=mutations_by_kind,
            cache_evicted_by_mutation=cache_evicted_by_mutation,
        )

    def reset_telemetry(self) -> None:
        """Zero every counter while keeping all cached state.

        A forked worker process inherits the parent's warm caches *and*
        its counters; resetting at worker boot makes the per-process
        telemetry mean "work served by this worker", so the merged
        fleet view (:func:`merge_telemetry`) adds up cleanly.
        """
        with self._counter_lock:
            self._searches = 0
            self._batches = 0
            self._deadline_exceeded = 0
            self._partial_results = 0
            self._mutations = 0
            self._mutations_by_kind = {}
            self._cache_evicted_by_mutation = 0
            # _delta_seq is state, not telemetry: it tracks how far this
            # engine has advanced past its snapshot and must survive the
            # per-worker counter reset at fork time.
            self._stage_seconds = {stage: 0.0 for stage in STAGES}
        for cache in (
            self._filter_cache,
            self._core_cache,
            self._gd_cache,
            self._result_cache,
        ):
            if cache is not None:
                cache.reset_stats()

    def _account_stage_times(self, times: dict[str, float]) -> None:
        with self._counter_lock:
            for stage, seconds in times.items():
                self._stage_seconds[stage] += seconds

    # ------------------------------------------------------------------
    # live mutations
    # ------------------------------------------------------------------
    @property
    def delta_seq(self) -> int:
        """Mutation batches applied since construction (or snapshot load).

        A snapshot-loaded engine fast-forwards through the snapshot's
        delta log, so ``delta_seq`` equals the highest replayed sequence
        number — the "delta depth" surfaced by ``repro index info`` and
        ``/v1/healthz``.
        """
        with self._counter_lock:
            return self._delta_seq

    def identity(self) -> tuple[str, int]:
        """The network's content fingerprint and ``delta_seq``, read together.

        Both are taken under the mutation lock, so the pair always
        describes one state: never a pre-batch digest with a post-batch
        sequence number.  The digest is computed in full at most once
        per engine (:meth:`load` adopts the one it verified), then
        :meth:`apply` keeps it current in O(records touched).  It
        proves what this engine applied, not what the network holds:
        a change made to the network outside :meth:`apply` is not seen.
        """
        with self._mutate_lock:
            if self._digest is None:
                self._digest = network_digest(self.network)
            return format_digest(self._digest), self._delta_seq

    def apply(self, mutations) -> dict:
        """Apply a batch of live mutations to the network and caches.

        ``mutations`` is an iterable of :mod:`repro.live` mutation
        objects and/or their wire dicts.  The whole batch is validated
        first (:class:`~repro.errors.MutationError` rejects it leaving
        everything untouched — batches are all-or-nothing), then applied
        in order:

        * social edge inserts/deletes mutate the network, then *repair*
          every warm (Q, t) filter entry containing both endpoints —
          bounded incremental k-core maintenance on the entry's own
          representation (flat CSR kernels or the python reference)
          instead of a full re-peel — and evict only the downstream
          (k,t)-core / dominance / result entries whose member sets the
          edge can actually have changed (:mod:`repro.live.invalidate`);
        * attribute updates evict exactly the entries whose member sets
          contain the user;
        * ``move_user`` / ``update_road_weight`` change query distances,
          whose footprint cached state cannot bound, so they evict
          globally (road-weight updates also drop the G-tree; the road
          CSR weight array is patched in place).

        Repair is copy-on-write: in-flight queries holding a cached
        entry keep a consistent pre-mutation view (they serialize as if
        ordered before the batch), while every later query sees the
        repaired state.  Returns a summary dict with ``applied``,
        ``by_kind``, ``evicted``, ``repaired_entries`` and the new
        ``delta_seq``.
        """
        batch = normalize_batch(mutations)
        with self._mutate_lock:
            validate_batch(self.network, batch)
            if self._digest is not None:
                touched = touched_records(batch)
                before = records_digest(self.network, touched)
            evicted = repaired = 0
            by_kind: dict[str, int] = {}
            for m in batch:
                entry_evicted, entry_repaired = self._apply_one(m)
                evicted += entry_evicted
                repaired += entry_repaired
                by_kind[m.kind] = by_kind.get(m.kind, 0) + 1
            if self._digest is not None:
                after = records_digest(self.network, touched)
                self._digest = advance_digest(self._digest, before, after)
            with self._counter_lock:
                self._mutations += len(batch)
                for kind, n in by_kind.items():
                    self._mutations_by_kind[kind] = (
                        self._mutations_by_kind.get(kind, 0) + n
                    )
                self._cache_evicted_by_mutation += evicted
                self._delta_seq += 1
                seq = self._delta_seq
        return {
            "applied": len(batch),
            "by_kind": by_kind,
            "evicted": evicted,
            "repaired_entries": repaired,
            "delta_seq": seq,
        }

    def _apply_one(self, m) -> tuple[int, int]:
        """Apply one validated mutation; returns (evicted, repaired)."""
        if isinstance(m, (AddSocialEdge, RemoveSocialEdge)):
            return self._apply_social_edge(
                m.u, m.v, inserted=isinstance(m, AddSocialEdge)
            )
        if isinstance(m, UpdateAttributes):
            self.network.social.set_attributes(m.user, m.attributes)
            return self._evict_for_attributes(m.user), 0
        if isinstance(m, MoveUser):
            self.network.social.set_location(m.user, m.point)
            return self._evict_all(), 0
        # UpdateRoadWeight: the road CSR is weight-patched in place by
        # add_edge; the G-tree's distance matrices cannot be and must go.
        self.network.road.add_edge(m.u, m.v, m.weight)
        self.network.drop_gtree()
        return self._evict_all(), 0

    def _evict_all(self) -> int:
        """Global eviction: query distances changed, no bound on the blast."""
        n = 0
        for cache in (
            self._filter_cache,
            self._core_cache,
            self._gd_cache,
            self._result_cache,
        ):
            if cache is not None:
                n += cache.evict_if(lambda _key, _value: True)
        return n

    def _evict_for_attributes(self, user: int) -> int:
        """Evict exactly the entries whose member sets contain ``user``."""
        evicted = 0
        kept_cores: set = set()

        def core_pred(key, state) -> bool:
            members = None if state.core is None else state.core.graph
            if attribute_dirty(members, user):
                return True
            kept_cores.add(key)
            return False

        evicted += self._core_cache.evict_if(core_pred)
        evicted += self._gd_cache.evict_if(
            lambda _key, gd: attribute_dirty(gd, user)
        )
        if self._result_cache is not None:
            filter_entries = dict(self._filter_cache.items())

            def result_pred(key, _value) -> bool:
                if key[:3] in kept_cores:
                    return False  # surviving core entry: user not a member
                prep = filter_entries.get((key[0], key[2]))
                if prep is not None:
                    # No member set to consult, but the (Q, t) filter
                    # bounds it: a user outside the range filter cannot
                    # be in any community under it.
                    return user in prep.query_distance
                return True

            evicted += self._result_cache.evict_if(result_pred)
        return evicted

    def _apply_social_edge(self, u: int, v: int, inserted: bool) -> tuple[int, int]:
        """Mutate the social graph, repair warm filters, evict by footprint."""
        graph = self.network.social.graph
        if inserted:
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)
        deltas: dict[tuple, RepairDelta] = {}
        warm: set[tuple] = set()
        repaired = 0
        for fkey, prep in self._filter_cache.items():
            warm.add(fkey)
            if u in prep.query_distance and v in prep.query_distance:
                new_prep, changed = self._repaired_filter_entry(
                    prep, u, v, inserted
                )
                self._filter_cache.put(fkey, new_prep)
                deltas[fkey] = RepairDelta(
                    changed=changed, coreness=new_prep.coreness
                )
                repaired += 1
        evicted = 0
        kept_cores: set = set()

        def dirty(fkey: tuple, k: int, members) -> bool:
            delta = deltas.get(fkey)
            if delta is None and fkey in warm:
                # Warm filter entry without both endpoints: the edge is
                # outside this filtered subgraph entirely.
                return False
            if inserted:
                return edge_dirty_insert(k, members, delta, u, v)
            return edge_dirty_delete(members, u, v)

        def core_pred(key, state) -> bool:
            members = None if state.core is None else state.core.graph
            if dirty((key[0], key[2]), key[1], members):
                return True
            kept_cores.add(key)
            return False

        evicted += self._core_cache.evict_if(core_pred)
        evicted += self._gd_cache.evict_if(
            lambda key, gd: dirty((key[0], key[2]), key[1], gd)
        )
        if self._result_cache is not None:

            def result_pred(key, _value) -> bool:
                if key[:3] in kept_cores:
                    return False  # its (k,t)-core entry was proven clean
                fkey = (key[0], key[2])
                if fkey in warm and fkey not in deltas:
                    return False  # edge outside the entry's filtered graph
                return True

            evicted += self._result_cache.evict_if(result_pred)
        return evicted, repaired

    def _repaired_filter_entry(
        self, prep: _PreparedFilter, u: int, v: int, inserted: bool
    ) -> tuple[_PreparedFilter, dict]:
        """Copy-on-write repair of one warm (Q, t) entry after an edge op.

        The cached entry is never mutated in place — queries already
        holding it keep a consistent pre-mutation view; the repaired
        copy replaces it in the cache, sharing every adjacency set but
        the two endpoints' with it.  The entry's own representation
        picks the repair: flat entries splice the CSR and run the row
        kernels of :mod:`repro.kernels.livecore`, python entries the
        dict reference of :mod:`repro.live.kcore`.
        """
        filtered = prep.filtered.toggled(u, v)
        coreness = dict(prep.coreness)
        if prep.flat is not None:
            ru, rv = prep.flat.row_of(u), prep.flat.row_of(v)
            if inserted:
                flat = insert_edge_rows(prep.flat, ru, rv)
                core_rows, changed_rows = repair_insert_rows(
                    flat, prep.core_rows.copy(), ru, rv
                )
            else:
                flat = delete_edge_rows(prep.flat, ru, rv)
                core_rows, changed_rows = repair_delete_rows(
                    flat, prep.core_rows.copy(), ru, rv
                )
            changed = {}
            for row in changed_rows.tolist():
                vid = flat.ids[row]
                coreness[vid] = changed[vid] = int(core_rows[row])
        else:
            flat = core_rows = None
            if inserted:
                changed = repair_insert(filtered, coreness, u, v)
            else:
                changed = repair_delete(filtered, coreness, u, v)
        new_prep = _PreparedFilter(
            query_distance=prep.query_distance,
            filtered=filtered,
            coreness=coreness,
            max_coreness=max(coreness.values(), default=0),
            flat=flat,
            core_rows=core_rows,
        )
        return new_prep, changed

    # ------------------------------------------------------------------
    # the staged, cached pipeline
    # ------------------------------------------------------------------
    def _check(self, request: MACRequest) -> MACRequest:
        if not isinstance(request, MACRequest):
            raise QueryError(
                f"expected a MACRequest, got {type(request).__name__}; "
                f"build one with MACRequest.make(...)"
            )
        d = self.network.social.dimensionality
        if request.region.num_attributes != d:
            raise QueryError(
                f"region is for d={request.region.num_attributes} attributes "
                f"but the network has d={d}"
            )
        return request

    def _resolve_use_gtree(self, request: MACRequest) -> bool:
        if request.use_gtree is None:
            return self._default_use_gtree
        return request.use_gtree

    def _stage_path(self) -> str:
        """``"flat"``/``"python"`` of the staged kernels, by social size.

        Decided against the whole social network (the substrate every
        staged kernel runs on), so every entry of one engine shares a
        representation; no mutation kind adds users.
        """
        return stage_path(self.network.social.num_users)

    def _search_path(self, algorithm: str, htk_vertices: int) -> str:
        """The loop a searcher runs on: the one rule that both
        :meth:`_execute` and :meth:`explain` report."""
        if algorithm == "global":
            return gs_path(htk_vertices)
        return self._stage_path()

    def _prepared_filter(
        self,
        request: MACRequest,
        use_gtree: bool,
        tel: dict,
        times: dict,
        deadline: Deadline | None = None,
    ) -> _PreparedFilter:
        def build() -> _PreparedFilter:
            if deadline is not None:
                deadline.check("range filter")
            start = time.perf_counter()
            dq = self.network.query_distance_filter(
                request.query, request.t, use_gtree=use_gtree
            )
            filtered = self.network.social.graph.subgraph(dq)
            flat = core_rows = None
            if self._stage_path() == "flat" and filtered.num_vertices:
                flat = FlatGraph.from_adjacency(filtered)
                core_rows = core_numbers(flat)
                coreness = flat.relabel(core_rows)
            else:
                coreness = core_decomposition(filtered)
            times["filter"] = time.perf_counter() - start
            return _PreparedFilter(
                query_distance=dq,
                filtered=filtered,
                coreness=coreness,
                max_coreness=max(coreness.values(), default=0),
                flat=flat,
                core_rows=core_rows,
            )

        prep, hit = self._filter_cache.get_or_create(
            request.filter_key, build, deadline
        )
        tel["filter"] = "hit" if hit else "miss"
        return prep

    def _extract_core(
        self, prep: _PreparedFilter, request: MACRequest
    ) -> KTCore | None:
        """H^t_k from prepared filter state (flat fast path when cached)."""
        if prep.flat is not None:
            flat = prep.flat
            if any(q not in flat for q in request.query):
                return None
            comp = k_core_component(
                flat, flat.rows_of(request.query), request.k, prep.core_rows
            )
            if comp is None:
                return None
            graph = prep.filtered.subgraph(flat.select_ids(comp))
            return KTCore(
                graph=graph,
                query_distance={
                    v: prep.query_distance[v] for v in graph.vertices()
                },
            )
        return kt_core_from_coreness(
            prep.filtered,
            prep.coreness,
            prep.query_distance,
            request.query,
            request.k,
        )

    def _prepared_core(
        self,
        request: MACRequest,
        use_gtree: bool,
        tel: dict,
        times: dict,
        deadline: Deadline | None = None,
    ) -> _PreparedCore:
        def build() -> _PreparedCore:
            prep = self._prepared_filter(
                request, use_gtree, tel, times, deadline
            )
            if deadline is not None:
                deadline.check("(k,t)-core extraction")
            start = time.perf_counter()
            try:
                if request.k > prep.max_coreness:
                    return _PreparedCore(None, None)
                core = self._extract_core(prep, request)
                if core is None:
                    return _PreparedCore(None, None)
                attrs = self.network.social.attributes_for(
                    core.graph.vertices()
                )
                return _PreparedCore(core, attrs)
            finally:
                times["core"] = time.perf_counter() - start

        state, hit = self._core_cache.get_or_create(
            request.core_key, build, deadline
        )
        tel["core"] = "hit" if hit else "miss"
        if hit:
            # The filter stage was skipped entirely — record the reuse.
            tel.setdefault("filter", "hit")
        return state

    def _dominance(
        self,
        request: MACRequest,
        core_state: _PreparedCore,
        tel: dict,
        times: dict,
        deadline: Deadline | None = None,
    ) -> DominanceGraph:
        def build() -> DominanceGraph:
            if deadline is not None:
                deadline.check("r-dominance construction")
            start = time.perf_counter()
            try:
                return DominanceGraph(core_state.attributes, request.region)
            finally:
                times["dominance"] = time.perf_counter() - start

        gd, hit = self._gd_cache.get_or_create(
            request.dominance_key, build, deadline
        )
        tel["dominance"] = "hit" if hit else "miss"
        return gd

    def _resolve_algorithm(
        self, request: MACRequest, htk_vertices: int | None
    ) -> tuple[str, str]:
        if request.algorithm != "auto":
            return request.algorithm, "requested"
        if htk_vertices is None:
            return (
                "local",
                f"auto (provisional): |H^t_k| unknown, assuming "
                f"> {self.auto_local_threshold}",
            )
        if htk_vertices <= self.auto_local_threshold:
            return (
                "global",
                f"auto: |H^t_k|={htk_vertices} <= "
                f"{self.auto_local_threshold}",
            )
        return (
            "local",
            f"auto: |H^t_k|={htk_vertices} > {self.auto_local_threshold}",
        )

    def _search_flat(self, core_state: _PreparedCore) -> FlatGraph:
        """Row-sorted CSR view of H^t_k (built once per prepared core).

        A benign race under concurrent first use: both builders produce
        identical views and the last assignment wins.
        """
        if core_state.search_flat is None:
            core_state.search_flat = search_flatgraph(core_state.core.graph)
        return core_state.search_flat

    def _run_searcher(
        self,
        request: MACRequest,
        algorithm: str,
        core_state: _PreparedCore,
        gd: DominanceGraph,
        search_path: str,
        deadline: Deadline | None = None,
    ) -> tuple[list[PartitionEntry], SearchStats, bool]:
        core = core_state.core
        flat = self._search_flat(core_state) if search_path == "flat" else None
        anytime = request.anytime and deadline is not None
        if algorithm == "global":
            searcher = GlobalSearch(
                core.graph,
                gd,
                request.query,
                request.k,
                request.region,
                max_partitions=request.max_partitions,
                refinement=request.refinement,
                time_budget=request.time_budget,
                deadline=deadline,
                flat=flat,
                anytime=anytime,
            )
        else:
            searcher = LocalSearch(
                core.graph,
                gd,
                request.query,
                request.k,
                request.region,
                strategy=request.strategy,
                max_candidates=request.max_candidates,
                certification=request.certification,
                deadline=deadline,
                flat=flat,
                anytime=anytime,
            )
        if request.problem == "nc":
            partitions = searcher.search_nc()
        else:
            partitions = searcher.search_topj(request.j)
        return partitions, searcher.stats, searcher.partial

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def search(self, request: MACRequest) -> MACSearchResult:
        """Run one request end to end, reusing every cached stage.

        With result caching on, the cached computation never escapes
        directly: every caller (the one that computed it included) gets
        a fresh ``MACSearchResult`` wrapper with its own partition list
        and telemetry, so reordering/clearing ``result.partitions``
        cannot poison the cache.  The ``PartitionEntry`` objects inside
        are shared — treat results as read-only, as everywhere in this
        package.

        A request with a ``deadline`` budget raises the typed
        :class:`~repro.errors.DeadlineExceeded` once the budget expires
        (checked at every stage boundary and inside the search loops);
        nothing half-built is cached, so a later retry with a larger
        budget starts clean.
        """
        request = self._check(request)
        try:
            return self._search_checked(request)
        except DeadlineExceeded:
            with self._counter_lock:
                self._deadline_exceeded += 1
            raise

    def _search_checked(self, request: MACRequest) -> MACSearchResult:
        start = time.perf_counter()
        deadline = Deadline.of(request.deadline)
        with self._counter_lock:
            self._searches += 1
        if self._result_cache is None:
            result = self._execute(request, deadline)
            result.extra["engine"]["cache"]["result"] = "off"
            if result.partial:
                with self._counter_lock:
                    self._partial_results += 1
            return result
        if request.anytime and deadline is not None:
            # An anytime answer may be partial, and partial results must
            # never enter the result cache — they would be served as the
            # truth to later exact requests for the same key.  Bypass the
            # build-once path: peek, execute on miss, publish complete
            # results only.
            template, hit = self._result_cache.peek(request.result_key)
            if not hit:
                template = self._execute(request, deadline)
                if template.partial:
                    with self._counter_lock:
                        self._partial_results += 1
                else:
                    self._result_cache.put(request.result_key, template)
        else:
            # A result-cache hit is served instantly, deadline or not; a
            # miss runs the budgeted pipeline (the deadline also bounds
            # any wait on another thread's in-flight build of the same
            # key).
            template, hit = self._result_cache.get_or_create(
                request.result_key,
                lambda: self._execute(request, deadline),
                deadline,
            )
        entry = dict(template.extra["engine"])
        entry["label"] = request.label
        if hit:
            entry["cache"] = {"result": "hit"}
            entry["timings"] = {
                "prepare": 0.0, "search": 0.0,
                "filter": 0.0, "core": 0.0, "dominance": 0.0,
            }
            elapsed = time.perf_counter() - start
        else:
            entry["cache"] = {
                **template.extra["engine"]["cache"], "result": "miss",
            }
            entry["timings"] = dict(entry["timings"])
            elapsed = template.elapsed
        return MACSearchResult(
            template.query,
            list(template.partitions),
            template.stats,
            elapsed,
            htk_vertices=template.htk_vertices,
            htk_edges=template.htk_edges,
            extra={"engine": entry},
            partial=template.partial,
            progress=dict(template.progress),
        )

    def _execute(
        self, request: MACRequest, deadline: Deadline | None = None
    ) -> MACSearchResult:
        """The uncached pipeline: prepare (via stage caches) + search."""
        use_gtree = self._resolve_use_gtree(request)
        anytime = request.anytime and deadline is not None
        q = MACQuery.make(
            request.query, request.k, request.t, request.region, request.j
        )
        start = time.perf_counter()
        tel_cache: dict[str, str] = {}
        times: dict[str, float] = {}
        try:
            core_state = self._prepared_core(
                request, use_gtree, tel_cache, times, deadline
            )
            if core_state.core is None:
                tel_cache["dominance"] = "skipped"
                self._account_stage_times(times)
                result = MACSearchResult(
                    q, [], SearchStats(), time.perf_counter() - start
                )
                result.extra["engine"] = self._telemetry_entry(
                    request, "none", use_gtree, tel_cache, times,
                    prepare_s=time.perf_counter() - start, search_s=0.0,
                )
                return result
            gd = self._dominance(
                request, core_state, tel_cache, times, deadline
            )
        except DeadlineExceeded:
            if not anytime:
                raise
            # The budget died while preparing stages: there is no
            # feasible community to fall back on yet, so the anytime
            # answer is an empty partial result.
            self._account_stage_times(times)
            result = MACSearchResult(
                q, [], SearchStats(), time.perf_counter() - start,
                partial=True, progress={"stage": "prepare"},
            )
            result.extra["engine"] = self._telemetry_entry(
                request, "none", use_gtree, tel_cache, times,
                prepare_s=time.perf_counter() - start, search_s=0.0,
            )
            return result
        prepare_s = time.perf_counter() - start
        algorithm, _reason = self._resolve_algorithm(
            request, core_state.core.num_vertices
        )
        if deadline is not None and not anytime:
            # Anytime requests always enter the searcher: even with an
            # expired budget it drains immediately into a best-so-far
            # (H^t_k fallback) answer instead of raising here.
            deadline.check("search")
        search_path = self._search_path(
            algorithm, core_state.core.num_vertices
        )
        search_start = time.perf_counter()
        partitions, stats, partial = self._run_searcher(
            request, algorithm, core_state, gd, search_path, deadline
        )
        search_s = time.perf_counter() - search_start
        times["search"] = search_s
        self._account_stage_times(times)
        progress: dict = {}
        if partial:
            progress = {
                "stage": "search",
                "tasks": stats.tasks,
                "peel_rounds": stats.peel_rounds,
                "candidates": stats.candidates,
            }
        result = MACSearchResult(
            q,
            partitions,
            stats,
            time.perf_counter() - start,
            htk_vertices=core_state.core.num_vertices,
            htk_edges=core_state.core.num_edges,
            partial=partial,
            progress=progress,
        )
        result.extra["engine"] = self._telemetry_entry(
            request, algorithm, use_gtree, tel_cache, times,
            prepare_s=prepare_s, search_s=search_s, search_path=search_path,
        )
        return result

    def _telemetry_entry(
        self,
        request: MACRequest,
        algorithm: str,
        use_gtree: bool,
        tel_cache: dict[str, str],
        times: dict[str, float],
        prepare_s: float,
        search_s: float,
        search_path: str = "none",
    ) -> dict:
        timings = {"prepare": prepare_s, "search": search_s}
        # Per-stage build cost of this request (0.0 = served from cache).
        for stage in ("filter", "core", "dominance"):
            timings[stage] = times.get(stage, 0.0)
        return {
            "label": request.label,
            "algorithm": algorithm,
            "filter_strategy": "gtree" if use_gtree else "dijkstra",
            "backend": self._stage_path(),
            "search_backend": search_path,
            "cache": dict(tel_cache),
            "timings": timings,
        }

    def warm(self, request: MACRequest) -> dict[str, str]:
        """Build the prepared stages for a request without searching.

        Populates the filter/core/dominance caches (the r-dominance
        graph only when the (k,t)-core is non-empty) and returns the
        per-stage hit/miss outcomes.  Useful to pre-pay index builds
        outside a latency-sensitive window — e.g. the benchmark harness
        warms each configuration so timed runs measure the search
        phase under amortized prepared state.
        """
        request = self._check(request)
        use_gtree = self._resolve_use_gtree(request)
        deadline = Deadline.of(request.deadline)
        tel: dict[str, str] = {}
        times: dict[str, float] = {}
        core_state = self._prepared_core(
            request, use_gtree, tel, times, deadline
        )
        if core_state.core is not None:
            self._dominance(request, core_state, tel, times, deadline)
        else:
            tel["dominance"] = "skipped"
        self._account_stage_times(times)
        return tel

    def search_batch(
        self,
        requests: Iterable[MACRequest],
        workers: int | None = None,
    ) -> list[MACSearchResult]:
        """Run independent requests concurrently, sharing the caches.

        Results come back in request order.  The hot loops (Dijkstra,
        numpy corner-score sweeps, peeling) release little enough work
        to the interpreter that a thread pool is the right executor;
        identical pipeline stages are built once and shared (waiters
        block on the in-flight build instead of duplicating it).
        """
        reqs: Sequence[MACRequest] = [self._check(r) for r in requests]
        with self._counter_lock:
            self._batches += 1
        if not reqs:
            return []
        if workers is None:
            workers = min(8, len(reqs))
        if workers <= 1 or len(reqs) == 1:
            return [self.search(r) for r in reqs]
        with ThreadPoolExecutor(
            max_workers=min(workers, len(reqs)),
            thread_name_prefix="mac-engine",
        ) as pool:
            return list(pool.map(self.search, reqs))

    def explain(self, request: MACRequest) -> QueryPlan:
        """Resolve the plan for a request without executing it.

        Touches no heavy computation: only cache lookups (``peek``, so
        hit/miss accounting is unaffected) and O(1) bookkeeping.
        """
        request = self._check(request)
        use_gtree = self._resolve_use_gtree(request)
        prep, prep_cached = self._filter_cache.peek(request.filter_key)
        core_state, core_cached = self._core_cache.peek(request.core_key)
        _gd, gd_cached = self._gd_cache.peek(request.dominance_key)
        if self._result_cache is not None:
            template, result_cached = self._result_cache.peek(
                request.result_key
            )
        else:
            template, result_cached = None, False
        notes: list[str] = []

        htk_vertices: int | None = None
        feasible: bool | None = None
        upper = self.network.social.num_users
        if result_cached and not core_cached:
            # The stage entries may have been evicted, but the finished
            # result still tells us the exact core size.
            feasible = template.htk_vertices > 0
            htk_vertices = template.htk_vertices
            upper = template.htk_vertices
        if core_cached:
            feasible = core_state.core is not None
            htk_vertices = (
                core_state.core.num_vertices if feasible else 0
            )
            upper = htk_vertices
        elif result_cached:
            pass  # already resolved from the cached result above
        elif prep_cached:
            upper = sum(
                1 for c in prep.coreness.values() if c >= request.k
            )
            if any(q not in prep.query_distance for q in request.query):
                feasible = False
                upper = 0
            elif request.k > prep.max_coreness:
                feasible = False
                upper = 0
        else:
            notes.append(
                "no cached state for (Q, t); bound is the full user count"
            )

        known_exact = core_cached or result_cached
        if request.algorithm != "auto" or known_exact:
            algorithm, reason = self._resolve_algorithm(
                request, htk_vertices if known_exact else None
            )
        elif prep_cached and upper <= self.auto_local_threshold:
            # The bound caps the true core size, so this prediction is
            # exact even though |H^t_k| is not materialized yet.
            algorithm = "global"
            reason = (
                f"auto: |H^t_k| <= {upper} <= {self.auto_local_threshold}"
            )
        elif prep_cached:
            algorithm = "local"
            reason = (
                f"auto (provisional): coreness bound {upper} > "
                f"{self.auto_local_threshold}"
            )
            notes.append(
                "algorithm resolution is provisional until H^t_k is "
                "materialized"
            )
        else:
            algorithm, reason = self._resolve_algorithm(request, None)
            notes.append(
                "algorithm resolution is provisional until H^t_k is "
                "materialized"
            )
        if feasible is False:
            # Mirror execution: an empty (k,t)-core runs no searcher.
            algorithm = "none"
            reason = "infeasible: the maximal (k,t)-core is empty"
            searcher = "none"
        else:
            searcher = SEARCHER_NAMES[(algorithm, request.problem)]
        if algorithm == "none":
            search_path = frontier = "none"
        else:
            frontier = (
                f"push-{request.strategy}"
                if algorithm == "local"
                else f"peel-{request.refinement}"
            )
            size = htk_vertices if known_exact else upper
            search_path = self._search_path(algorithm, size)
            if not known_exact and search_path != self._search_path(
                algorithm, 0
            ):
                # The rule is monotone in |H^t_k|: the choice is settled
                # only when the empty core and the bound agree.
                notes.append(
                    "search backend is provisional until H^t_k is "
                    "materialized"
                )
        with self._counter_lock:
            stage_seconds = dict(self._stage_seconds)
        return QueryPlan(
            request=request,
            problem=request.problem,
            algorithm=algorithm,
            algorithm_reason=reason,
            searcher=searcher,
            filter_strategy="gtree" if use_gtree else "dijkstra",
            backend=self._stage_path(),
            search_backend=search_path,
            frontier=frontier,
            gtree_built=self.network.has_gtree,
            cached={
                "filter": prep_cached,
                "core": core_cached,
                "dominance": gd_cached,
                "result": result_cached,
            },
            feasible=feasible,
            htk_vertices=htk_vertices,
            htk_upper_bound=upper,
            stage_seconds=stage_seconds,
            notes=notes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        t = self.telemetry()
        return (
            f"MACEngine({self.network!r}, searches={t.searches}, "
            f"hits={t.hits}, misses={t.misses})"
        )
