"""Request populations and seeded request/mutation streams.

Every workload serves the ``fl+yelp`` pairing at scale 0.5, generated
from data seed 7.  The *populations* (which query sets exist) depend
only on that data seed, so every run of a workload draws from the same
pool of work; the benchmark's ``--seed`` picks the *stream*: the order
in which each connection sends requests, the serial numbers that make
``miss`` requests unique, the Zipf draws of ``fleet`` and where its
mutations fall.  The same seed therefore always yields the same inputs,
and different seeds exercise the same mix in a different order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from repro import MACRequest, PreferenceRegion, datasets
from repro.graph.core import core_decomposition

DATASET = "fl+yelp"
SCALE = 0.5
DATA_SEED = 7

#: Closed-loop connections per workload (the host has two cores).
#: ``hot`` times one request path without contention; ``miss`` and
#: ``fleet`` use two, so GIL contention and pool parallelism show.
CONNECTIONS = {"hot": 2, "miss": 2, "fleet": 2}

#: ``fleet``: result identities in the Zipf population and the Zipf
#: exponent; social edges the mutation streams toggle.
FLEET_POPULATION = 480
FLEET_ZIPF_S = 1.0
#: ``fleet``: the most popular identities are sent as exact repeats
#: (result-cache hits once warm); the rest as distinct variants, so
#: result misses stay a steady share instead of fading as the per-worker
#: 256-entry result caches fill.  The warm-up pass sends the top
#: ``FLEET_WARM`` identities, filling the 128-entry stage caches.
FLEET_HEAD = 32
FLEET_WARM = 128
TOGGLE_EDGES = 3
#: ``fleet``: connection 0 sends one mutation after every 20-30 of its
#: own operations (the exact gap is drawn from the stream seed).
FLEET_MUTATE_GAP = (20, 30)


@dataclass(frozen=True)
class Op:
    """One client operation: a search, or a single-edge mutation batch."""

    kind: str  # "search" | "mutate"
    request: MACRequest | None = None
    mutation: dict | None = None
    #: Index into the workload's population (search) or toggle cycle
    #: position (mutate); lets the verifier group identical work.
    key: int = 0


def load_dataset():
    return datasets.load_dataset(DATASET, scale=SCALE, seed=DATA_SEED)


def base_t(ds) -> float:
    """The t the repo's service benchmarks use at this scale."""
    return ds.default_t * SCALE ** 0.5


def default_region(ds) -> PreferenceRegion:
    d = ds.network.social.dimensionality
    return PreferenceRegion.centered([0.9 / d] * (d - 1), 0.01)


# ----------------------------------------------------------------------
# populations (data seed only)
# ----------------------------------------------------------------------
def hot_population(ds) -> list[MACRequest]:
    """16 fixed requests: |Q| 1-4, k 4-6, auto/local, nc/topj."""
    t = base_t(ds)
    region = default_region(ds)
    out = []
    specs = [(1, 4), (2, 4), (4, 4), (1, 6), (2, 6), (4, 6), (3, 5), (2, 5)]
    for i, (size, k) in enumerate(specs):
        query = ds.suggest_query(size, k=k, t=t, seed=1 + i % 3)
        out.append(MACRequest.make(query, k, t, region, algorithm="auto"))
        out.append(MACRequest.make(
            query, k, t, region, algorithm="local", problem="topj", j=2,
        ))
    return out


def miss_population(ds) -> list[tuple[str, MACRequest]]:
    """(class, base request) pairs of the three ``miss`` classes.

    * small  - ``algorithm="auto"`` on small (k,t)-cores, resolving to GS;
    * ls-mix - the LS request mix of ``benchmarks/bench_service.py``;
    * wide   - k=3 with t at 2-4x the default: big cores, resolving to LS.
    """
    t = base_t(ds)
    region = default_region(ds)
    out: list[tuple[str, MACRequest]] = []
    for size, k, tmul in itertools.product((1, 2, 4), (4, 6), (1.0, 2.0)):
        query = ds.suggest_query(size, k=k, t=t * tmul, seed=1)
        out.append(("small", MACRequest.make(
            query, k, t * tmul, region, algorithm="auto",
        )))
    for seed in (1, 2, 3):
        query = ds.suggest_query(4, k=6, t=t, seed=seed)
        out.append(("ls-mix", MACRequest.make(
            query, 6, t, region, algorithm="local",
        )))
    query = ds.suggest_query(3, k=5, t=t, seed=1)
    out.append(("ls-mix", MACRequest.make(
        query, 5, t, region, algorithm="local",
    )))
    for size, tmul in ((1, 4.0), (2, 2.0), (2, 4.0), (4, 4.0)):
        query = ds.suggest_query(size, k=3, t=t * tmul, seed=1)
        out.append(("wide", MACRequest.make(
            query, 3, t * tmul, region, algorithm="auto",
        )))
    return out


def fleet_population(ds) -> list[MACRequest]:
    """``FLEET_POPULATION`` result identities, most popular first.

    Query sets are grown from a random k-core vertex through k-core
    neighbours (no feasibility probe, so some have no (k,t)-core and
    answer empty, as real traffic would).  Every third identity reuses
    an earlier query set with ``topj`` j=2, so some result misses find
    their filter/core/dominance stages already built.
    """
    graph = ds.network.social.graph
    coreness = core_decomposition(graph)
    t = base_t(ds)
    region = default_region(ds)
    rng = np.random.default_rng(DATA_SEED)
    pools = {
        k: sorted(v for v, c in coreness.items() if c >= k) for k in (4, 5, 6)
    }
    out: list[MACRequest] = []
    while len(out) < FLEET_POPULATION:
        if len(out) % 3 == 2:
            prev = out[int(rng.integers(len(out)))]
            out.append(MACRequest.make(
                prev.query, prev.k, prev.t, region, algorithm="auto",
                problem="topj", j=2,
            ))
            continue
        k = int(rng.choice((4, 5, 6)))
        size = int(rng.choice((1, 1, 2, 3)))
        pool = pools[k]
        members = [pool[int(rng.integers(len(pool)))]]
        frontier = sorted(
            u for u in graph.neighbors(members[0]) if coreness[u] >= k
        )
        while len(members) < size and frontier:
            nxt = frontier.pop(int(rng.integers(len(frontier))))
            members.append(nxt)
            frontier = sorted(set(frontier) | {
                u for u in graph.neighbors(nxt)
                if coreness[u] >= k and u not in members
            })
        tmul = float(rng.choice((1.0, 1.5)))
        out.append(MACRequest.make(
            members, k, t * tmul, region, algorithm="auto",
        ))
    return out


def toggle_edges(ds, requests: list[MACRequest]) -> list[tuple[int, int]]:
    """``TOGGLE_EDGES`` absent social edges, each joining two members of
    the maximal (k,t)-core of one of the first (most popular) requests.

    Both endpoints of every edge sit inside a hot cached filter entry, so
    each toggle exercises warm-entry repair and footprint invalidation.
    """
    network = ds.network
    graph = network.social.graph
    rng = np.random.default_rng(DATA_SEED + 1)
    edges: list[tuple[int, int]] = []
    for request in requests:
        if len(edges) == TOGGLE_EDGES:
            break
        core = network.maximal_kt_core(request.query, request.k, request.t)
        if core is None:
            continue
        members = sorted(core.graph.vertices())
        for _ in range(64):
            u, v = sorted(int(x) for x in rng.choice(members, 2, replace=False))
            if not graph.has_edge(u, v) and (u, v) not in edges:
                edges.append((u, v))
                break
    if len(edges) < TOGGLE_EDGES:
        raise ValueError("too few feasible requests to place toggle edges")
    return edges


def toggle_mutation(edges: list[tuple[int, int]], n: int) -> dict:
    """The n-th mutation (0-based) of the add-all-then-remove-all cycle."""
    cycle = 2 * len(edges)
    pos = n % cycle
    u, v = edges[pos % len(edges)]
    op = "add_social_edge" if pos < len(edges) else "remove_social_edge"
    return {"op": op, "u": u, "v": v}


def toggle_state(edges: list[tuple[int, int]], applied: int) -> list[dict]:
    """Mutations that take the base graph to the state after ``applied``."""
    pos = applied % (2 * len(edges))
    return [toggle_mutation(edges, n) for n in range(pos)]


# ----------------------------------------------------------------------
# streams (stream seed)
# ----------------------------------------------------------------------
def _rng(seed: int, conn: int) -> np.random.Generator:
    return np.random.default_rng([seed, conn])


def hot_stream(population, seed: int, conn: int) -> Iterator[Op]:
    """Shuffled passes over the fixed hot set, one label per send."""
    rng = _rng(seed, conn)
    for i in itertools.count():
        for idx in rng.permutation(len(population)):
            base = population[idx]
            yield Op("search", _relabel(base, f"h{conn}-{i}-{idx}"), key=int(idx))


def miss_stream(population, seed: int, conn: int) -> Iterator[Op]:
    """Shuffled passes over the miss bases; every send a new identity.

    ``time_budget`` is part of the result-cache identity but never stops
    a search that finishes inside it, so ``3600 + serial`` forces a
    result-cache miss that recomputes exactly the base request's answer
    on warm prepared stages.
    """
    rng = _rng(seed, conn)
    serial = conn * 10_000_000
    while True:
        for idx in rng.permutation(len(population)):
            _cls, base = population[idx]
            serial += 1
            yield Op(
                "search", distinct_variant(base, serial, f"m{conn}-{serial}"),
                key=int(idx),
            )


def fleet_stream(population, edges, seed: int, conn: int) -> Iterator[Op]:
    """Zipf draws over the fleet population; connection 0 also mutates."""
    rng = _rng(seed, conn)
    weights = 1.0 / np.arange(1, len(population) + 1) ** FLEET_ZIPF_S
    weights /= weights.sum()
    lo, hi = FLEET_MUTATE_GAP
    next_mutation = int(rng.integers(lo, hi + 1))
    mutations = 0
    for i in itertools.count():
        if conn == 0 and i == next_mutation:
            yield Op("mutate", mutation=toggle_mutation(edges, mutations),
                     key=mutations)
            mutations += 1
            next_mutation = i + 1 + int(rng.integers(lo, hi + 1))
            continue
        idx = int(rng.choice(len(population), p=weights))
        label = f"f{conn}-{i}"
        if idx < FLEET_HEAD:
            request = _relabel(population[idx], label)
        else:
            request = distinct_variant(
                population[idx], conn * 10_000_000 + i, label
            )
        yield Op("search", request, key=idx)


def warmup_ops(workload: str, population) -> list[Op]:
    """The untimed pass that ends set-up (fixed; not seed-dependent)."""
    if workload == "hot":
        return [Op("search", _relabel(r, f"w-{i}"), key=i)
                for i, r in enumerate(population)]
    if workload == "miss":
        return [Op("search", _relabel(r, f"w-{i}"), key=i)
                for i, (_cls, r) in enumerate(population)]
    return [Op("search", _relabel(population[i], f"w-{i}"), key=i)
            for i in range(FLEET_WARM)]


def distinct_variant(request: MACRequest, serial: int, label: str) -> MACRequest:
    return replace(request, time_budget=3600.0 + serial, label=label)


def _relabel(request: MACRequest, label: str) -> MACRequest:
    return replace(request, label=label)
