"""JSON wire protocol of the MAC service — shared by server and client.

One codec, two directions: the server encodes engine objects
(`MACSearchResult`, `QueryPlan`, `EngineTelemetry`, exceptions) to plain
JSON-able dicts, the client decodes them back into lightweight typed
views (:class:`ServiceResult`, :class:`ServicePlan`) and re-raises
errors as the *same* :mod:`repro.errors` classes the in-process engine
raises — `except QueryError` / `except DeadlineExceeded` works
identically against a local engine and a remote service, which is what
makes the client a drop-in migration target.

Requests travel as the obvious JSON spelling of :class:`MACRequest`:
``query``/``k``/``t``/``region`` are required (``region`` is an object
with ``lows``/``highs`` arrays), every other engine knob is optional
and validated server-side by ``MACRequest.make`` — an unknown field is
a typed ``QueryError`` (HTTP 400), never a silent drop.  The one
exception is the removed ``backend`` knob, which v3 still accepts and
drops (see :data:`LEGACY_BACKENDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro import errors as _errors
from repro.engine.cache import CacheStats
from repro.engine.engine import EngineTelemetry
from repro.engine.request import MACRequest
from repro.errors import QueryError, ReproError, ServiceError, ServiceOverloaded
from repro.geometry.region import PreferenceRegion

#: Bump on any incompatible change to the wire format.  Sent by
#: ``/v1/healthz`` so clients can detect skew before querying.
#: v2: anytime/partial results (result ``partial`` + ``progress``,
#: per-community partial flags, plan ``search_backend``/``frontier``,
#: telemetry ``partial_results``).
#: v3: live mutations (``POST /v1/admin/mutate``, snapshot
#: ``delta_seq``, telemetry ``mutations`` / ``mutations_by_kind`` /
#: ``cache_evicted_by_mutation``).
PROTOCOL_VERSION = 3

#: Values of the request ``backend`` field that protocol v3 accepts and
#: drops.  The input picks the compute path now, so the field cannot
#: change the answer or the result-cache identity; any other value is
#: still a 400 ``QueryError``.
LEGACY_BACKENDS = ("auto", "flat", "python")

#: The plan ``backend`` that protocol v3 still sends: every stage runs on
#: CSR, so it is a constant.  Drop it with :data:`LEGACY_BACKENDS` at the
#: next protocol version.
PLAN_BACKEND = "flat"

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8321

#: Typed errors a client may safely retry: queries are pure, and each
#: of these means "the request did not damage anything server-side" —
#: back-pressure (429), a worker lost mid-flight (503, the supervisor
#: is already restarting it — including a wedged worker killed by the
#: stall watchdog), or a refused admin operation (409, the fleet was
#: rolled back untouched).  Chaos tests and retry loops key off this
#: set rather than hard-coding type names.
RETRYABLE_ERRORS = (
    "ServiceOverloaded", "WorkerCrashed", "WorkerStalled", "ReloadError",
)

#: Optional request knobs and their defaults (fields beyond the
#: required query/k/t/region); the encoder omits default values so the
#: wire form stays minimal and forward-portable.
_REQUEST_DEFAULTS = {
    f.name: f.default
    for f in dataclass_fields(MACRequest)
    if f.name not in ("query", "k", "t", "region")
}


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def region_to_wire(region: PreferenceRegion) -> dict:
    return {
        "lows": region.lows.tolist(),
        "highs": region.highs.tolist(),
    }


def region_from_wire(spec) -> PreferenceRegion:
    if (
        not isinstance(spec, dict)
        or "lows" not in spec
        or "highs" not in spec
    ):
        raise QueryError(
            "request field 'region' must be an object with 'lows' and "
            "'highs' arrays"
        )
    try:
        return PreferenceRegion(spec["lows"], spec["highs"])
    except ReproError:
        raise
    except (TypeError, ValueError) as exc:
        raise QueryError(f"bad region bounds: {exc}") from exc


def request_to_wire(request: MACRequest) -> dict:
    """A request as its minimal JSON form (defaults omitted)."""
    wire = {
        "query": list(request.query),
        "k": request.k,
        "t": request.t,
        "region": region_to_wire(request.region),
    }
    for name, default in _REQUEST_DEFAULTS.items():
        value = getattr(request, name)
        if value != default:
            wire[name] = value
    return wire


def request_from_wire(obj) -> MACRequest:
    """Validate one wire request into a :class:`MACRequest`.

    Raises :class:`QueryError` on any malformed shape, so the server
    answers 400 with the precise complaint instead of a stack trace.
    """
    if not isinstance(obj, dict):
        raise QueryError("request must be a JSON object")
    data = dict(obj)
    missing = [f for f in ("query", "k", "t", "region") if f not in data]
    if missing:
        raise QueryError(
            f"request is missing required field(s): {', '.join(missing)}"
        )
    region = region_from_wire(data.pop("region"))
    query = data.pop("query")
    if not isinstance(query, (list, tuple)):
        raise QueryError("request field 'query' must be an array of user ids")
    k = data.pop("k")
    t = data.pop("t")
    backend = data.pop("backend", "auto")
    if backend not in LEGACY_BACKENDS:
        raise QueryError(
            f"unknown backend {backend!r}; expected one of {LEGACY_BACKENDS}"
        )
    try:
        return MACRequest.make(query, k, t, region, **data)
    except ReproError:
        raise
    except (TypeError, ValueError) as exc:
        raise QueryError(f"bad request field value: {exc}") from exc


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def result_to_wire(result) -> dict:
    """A :class:`~repro.core.api.MACSearchResult` as JSON-able data.

    Cells travel as a representative interior weight per partition (the
    exact H-representation is an engine-side artifact; the weight is
    what callers act on), communities as sorted member arrays, best
    first.
    """
    partitions = []
    for entry in result.partitions:
        wire_entry = {
            "weight": [float(x) for x in entry.sample_weight()],
            "communities": [sorted(c.members) for c in entry.communities],
        }
        flags = [bool(getattr(c, "partial", False)) for c in entry.communities]
        if any(flags):
            # Per-community anytime provenance; omitted when exact so the
            # common-case payload is unchanged.
            wire_entry["partial"] = flags
        partitions.append(wire_entry)
    stats = result.stats
    wire = {
        "query": {
            "query": list(result.query.query),
            "k": result.query.k,
            "t": result.query.t,
            "j": result.query.j,
        },
        "partitions": partitions,
        "htk_vertices": result.htk_vertices,
        "htk_edges": result.htk_edges,
        "elapsed": result.elapsed,
        "stats": {
            "partitions": stats.partitions,
            "tasks": stats.tasks,
            "peel_rounds": stats.peel_rounds,
            "halfspaces_inserted": stats.halfspaces_inserted,
            "candidates": stats.candidates,
        },
        "engine": result.extra.get("engine", {}),
    }
    if getattr(result, "partial", False):
        wire["partial"] = True
        wire["progress"] = dict(getattr(result, "progress", {}))
    return wire


@dataclass
class ServicePartition:
    """Client-side view of one partition of R.

    ``partial`` holds one flag per community (aligned with
    ``communities``): True marks a best-so-far anytime answer rather
    than a certified MAC.  Empty means every community is exact.
    """

    weight: tuple[float, ...]
    communities: list[frozenset[int]]
    partial: tuple[bool, ...] = ()

    @property
    def best(self) -> frozenset[int]:
        return self.communities[0]

    @property
    def any_partial(self) -> bool:
        return any(self.partial)

    def sample_weight(self) -> np.ndarray:
        """Parity helper with :class:`PartitionEntry.sample_weight`."""
        return np.asarray(self.weight, dtype=float)


@dataclass
class ServiceResult:
    """Client-side view of a search result (engine-API parity).

    Mirrors the read surface of ``MACSearchResult``: ``partitions``
    (with ``best`` / ``communities`` per entry), ``htk_vertices``,
    ``elapsed``, ``communities()``, ``is_empty``, and the per-request
    engine telemetry under ``extra["engine"]``.
    """

    query: dict
    partitions: list[ServicePartition]
    htk_vertices: int
    htk_edges: int
    elapsed: float
    stats: dict
    extra: dict = field(default_factory=dict)
    #: Anytime provenance: True when the deadline expired and the result
    #: is the best feasible answer found so far (see MACRequest.anytime);
    #: ``progress`` then carries how far the search got.
    partial: bool = False
    progress: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.partitions

    def communities(self) -> set[frozenset[int]]:
        out: set[frozenset[int]] = set()
        for entry in self.partitions:
            out.update(entry.communities)
        return out

    def nc_communities(self) -> set[frozenset[int]]:
        return {entry.best for entry in self.partitions if entry.communities}


def result_from_wire(obj) -> ServiceResult:
    if not isinstance(obj, dict):
        raise ServiceError("malformed result payload (not an object)")
    try:
        partitions = [
            ServicePartition(
                weight=tuple(float(x) for x in entry["weight"]),
                communities=[
                    frozenset(int(v) for v in members)
                    for members in entry["communities"]
                ],
                partial=tuple(bool(x) for x in entry.get("partial", ())),
            )
            for entry in obj.get("partitions", [])
        ]
        return ServiceResult(
            query=dict(obj.get("query", {})),
            partitions=partitions,
            htk_vertices=int(obj.get("htk_vertices", 0)),
            htk_edges=int(obj.get("htk_edges", 0)),
            elapsed=float(obj.get("elapsed", 0.0)),
            stats=dict(obj.get("stats", {})),
            extra={"engine": dict(obj.get("engine", {}))},
            partial=bool(obj.get("partial", False)),
            progress=dict(obj.get("progress", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed result payload: {exc}") from exc


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
_PLAN_FIELDS = (
    "problem",
    "algorithm",
    "algorithm_reason",
    "searcher",
    "filter_strategy",
    "search_backend",
    "frontier",
    "gtree_built",
    "cached",
    "feasible",
    "htk_vertices",
    "htk_upper_bound",
    "stage_seconds",
    "notes",
)


def plan_to_wire(plan) -> dict:
    """A :class:`~repro.engine.QueryPlan` as JSON-able data."""
    wire = {name: getattr(plan, name) for name in _PLAN_FIELDS}
    wire["backend"] = PLAN_BACKEND
    wire["request"] = request_to_wire(plan.request)
    wire["summary"] = plan.summary()
    return wire


@dataclass
class ServicePlan:
    """Client-side view of a resolved query plan."""

    request: dict
    problem: str
    algorithm: str
    algorithm_reason: str
    searcher: str
    filter_strategy: str
    search_backend: str
    frontier: str
    gtree_built: bool
    cached: dict
    feasible: bool | None
    htk_vertices: int | None
    htk_upper_bound: int
    stage_seconds: dict
    notes: list
    summary_text: str

    def summary(self) -> str:
        """The server-rendered plan summary (engine-API parity)."""
        return self.summary_text


def plan_from_wire(obj) -> ServicePlan:
    if not isinstance(obj, dict):
        raise ServiceError("malformed plan payload (not an object)")
    try:
        return ServicePlan(
            request=dict(obj.get("request", {})),
            summary_text=str(obj.get("summary", "")),
            **{name: obj[name] for name in _PLAN_FIELDS},
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed plan payload: {exc}") from exc


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def telemetry_to_wire(tel) -> dict:
    """An :class:`~repro.engine.EngineTelemetry` as JSON-able data."""
    caches = {}
    for name in ("filter", "core", "dominance", "result"):
        stats = getattr(tel, name)
        caches[name] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "size": stats.size,
            "capacity": stats.capacity,
        }
    return {
        "searches": tel.searches,
        "batches": tel.batches,
        "deadline_exceeded": tel.deadline_exceeded,
        "cache_hits": tel.hits,
        "cache_misses": tel.misses,
        "partial_results": tel.partial_results,
        "mutations": tel.mutations,
        "mutations_by_kind": dict(tel.mutations_by_kind),
        "cache_evicted_by_mutation": tel.cache_evicted_by_mutation,
        "caches": caches,
        "stage_seconds": dict(tel.stage_seconds),
    }


def telemetry_from_wire(obj) -> EngineTelemetry:
    """Rebuild an :class:`EngineTelemetry` from its wire form.

    The worker tier sends each worker's telemetry over a pipe in wire
    form; the parent decodes with this and merges the typed snapshots
    (:func:`repro.engine.merge_telemetry`) into the fleet view.
    Missing fields decode as zeros, so a partial payload degrades to
    undercounting instead of raising.
    """
    if not isinstance(obj, dict):
        raise ServiceError("malformed telemetry payload (not an object)")
    caches = obj.get("caches", {})

    def stats(name: str) -> CacheStats:
        entry = caches.get(name, {}) if isinstance(caches, dict) else {}
        return CacheStats(
            hits=int(entry.get("hits", 0)),
            misses=int(entry.get("misses", 0)),
            size=int(entry.get("size", 0)),
            capacity=int(entry.get("capacity", 0)),
        )

    stage_seconds = obj.get("stage_seconds", {})
    try:
        return EngineTelemetry(
            searches=int(obj.get("searches", 0)),
            batches=int(obj.get("batches", 0)),
            filter=stats("filter"),
            core=stats("core"),
            dominance=stats("dominance"),
            result=stats("result"),
            stage_seconds={
                str(k): float(v) for k, v in dict(stage_seconds).items()
            },
            deadline_exceeded=int(obj.get("deadline_exceeded", 0)),
            partial_results=int(obj.get("partial_results", 0)),
            mutations=int(obj.get("mutations", 0)),
            mutations_by_kind={
                str(k): int(v)
                for k, v in dict(obj.get("mutations_by_kind", {})).items()
            },
            cache_evicted_by_mutation=int(
                obj.get("cache_evicted_by_mutation", 0)
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"malformed telemetry payload: {exc}") from exc


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
#: Every typed library error, by class name — the wire spelling.
_ERROR_TYPES = {
    name: cls
    for name, cls in vars(_errors).items()
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError)
}


def error_to_wire(exc: BaseException) -> dict:
    """An exception as its wire form (typed when it is a ReproError)."""
    name = type(exc).__name__
    wire = {
        "type": name if name in _ERROR_TYPES else "ServiceError",
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        wire["retry_after"] = retry_after
    return wire


def error_from_wire(obj) -> ReproError:
    """Rebuild the typed exception a server-side error payload names."""
    if not isinstance(obj, dict):
        return ServiceError("malformed error payload from server")
    name = obj.get("type")
    message = str(obj.get("message", "unknown service error"))
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return ServiceError(f"{name}: {message}" if name else message)
    if issubclass(cls, ServiceOverloaded):
        try:
            retry_after = float(obj.get("retry_after", 1.0))
        except (TypeError, ValueError):
            retry_after = 1.0
        return cls(message, retry_after=retry_after)
    return cls(message)
