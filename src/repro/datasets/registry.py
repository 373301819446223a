"""Named road-social dataset pairings mirroring the paper's Table II.

Each name ("sf+slashdot", ..., "fl+yelp") produces a seeded synthetic
pairing whose *shape* follows the original: road sparsity, social degree
distribution and core depth, attribute regime (independent by default,
zero-inflated "real" for Yelp).  ``scale`` multiplies the default sizes —
the defaults are chosen so a full benchmark sweep runs in minutes on a
laptop; nothing caps larger scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.attributes import attributes_as_dict, generate_attributes
from repro.datasets.locations import checkin_locations
from repro.datasets.roads import grid_road
from repro.datasets.socials import power_law_social
from repro.errors import DatasetError
from repro.graph.core import peel_cascade
from repro.social.network import SocialNetwork
from repro.social.roadsocial import RoadSocialNetwork


@dataclass(frozen=True)
class _RoadSpec:
    vertices: int
    spacing: float
    t_values: tuple[float, ...]
    default_t: float


@dataclass(frozen=True)
class _SocialSpec:
    vertices: int
    avg_degree: float
    attribute_kind: str


_ROADS = {
    "sf": _RoadSpec(4000, 20.0, (200.0, 250.0, 300.0, 350.0, 400.0), 300.0),
    "fl": _RoadSpec(6000, 25.0, (250.0, 300.0, 350.0, 400.0, 450.0), 350.0),
}

_SOCIALS = {
    "slashdot": _SocialSpec(3000, 13.0, "independent"),
    "delicious": _SocialSpec(5000, 5.0, "independent"),
    "lastfm": _SocialSpec(6000, 7.0, "independent"),
    "flixster": _SocialSpec(7000, 6.0, "independent"),
    "yelp": _SocialSpec(8000, 5.0, "real"),
}

_PAIRINGS = {
    "sf+slashdot": ("sf", "slashdot"),
    "sf+delicious": ("sf", "delicious"),
    "fl+lastfm": ("fl", "lastfm"),
    "fl+flixster": ("fl", "flixster"),
    "fl+yelp": ("fl", "yelp"),
}

DATASET_NAMES = tuple(_PAIRINGS)


@dataclass
class LoadedDataset:
    """A generated pairing plus query-selection helpers."""

    name: str
    network: RoadSocialNetwork
    attribute_kind: str
    seed: int
    t_values: tuple[float, ...]
    default_t: float
    extra: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Content fingerprint of the generated network (snapshot identity).

        Index snapshots (:mod:`repro.store`) record this digest and
        refuse to load against a network whose fingerprint differs —
        the guard that makes CI index caching and cross-process
        warm-starts safe.  Identical ``(name, scale, dimensions,
        attribute_kind, seed)`` parameters regenerate identical networks
        and therefore identical fingerprints.
        """
        from repro.store.fingerprint import network_fingerprint

        return network_fingerprint(self.network)

    def suggest_query(
        self,
        size: int,
        k: int,
        t: float | None = None,
        seed: int = 0,
        attempts: int = 60,
    ) -> tuple[int, ...]:
        """Random query set with a non-empty maximal (k,t)-core.

        Mirrors the paper's protocol: query vertices are drawn from the
        social k-core (nearby vertices for |Q| > 1) and re-drawn until the
        (k,t)-core exists.
        """
        t = self.default_t if t is None else t
        rng = np.random.default_rng(seed)
        # Pinned to the python cascade: the seeded draw sequence below
        # walks neighbor *sets*, whose iteration order depends on how the
        # core graph was materialized.  The cascade layout keeps suggested
        # queries byte-stable whatever size rule the kernels follow.
        core = peel_cascade(self.network.social.graph, k)
        if core.num_vertices == 0:
            raise DatasetError(f"{self.name}: social graph has no {k}-core")
        pool = sorted(core.vertices())
        for _attempt in range(attempts):
            start = pool[rng.integers(len(pool))]
            members = [start]
            frontier = sorted(core.neighbors(start))
            while len(members) < size and frontier:
                nxt = frontier[rng.integers(len(frontier))]
                frontier.remove(nxt)
                if nxt not in members:
                    members.append(nxt)
                    frontier.extend(
                        u for u in core.neighbors(nxt)
                        if u not in members and u not in frontier
                    )
            if len(members) < size:
                continue
            query = tuple(sorted(members))
            if self.network.maximal_kt_core(query, k, t) is not None:
                return query
        raise DatasetError(
            f"{self.name}: no satisfiable query found for |Q|={size}, "
            f"k={k}, t={t} after {attempts} attempts"
        )


def load_dataset(
    name: str,
    scale: float = 1.0,
    dimensions: int = 3,
    attribute_kind: str | None = None,
    seed: int = 7,
) -> LoadedDataset:
    """Generate a named pairing (see DATASET_NAMES).

    ``scale`` multiplies both road and social sizes; ``dimensions`` sets d;
    ``attribute_kind`` overrides the dataset's default regime.
    """
    if name not in _PAIRINGS:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(DATASET_NAMES)}"
        )
    if scale <= 0:
        raise DatasetError(f"scale must be positive, got {scale}")
    road_key, social_key = _PAIRINGS[name]
    road_spec = _ROADS[road_key]
    social_spec = _SOCIALS[social_key]
    kind = attribute_kind or social_spec.attribute_kind

    road = grid_road(
        max(100, int(road_spec.vertices * scale)),
        seed=seed,
        spacing=road_spec.spacing,
    )
    n_social = max(60, int(social_spec.vertices * scale))
    graph, groups = power_law_social(
        n_social, social_spec.avg_degree, seed=seed + 1
    )
    attrs = attributes_as_dict(
        generate_attributes(n_social, dimensions, kind=kind, seed=seed + 2)
    )
    locations = checkin_locations(
        road, graph.vertices(), seed=seed + 3, groups=groups
    )
    social = SocialNetwork(graph, attrs, locations)
    return LoadedDataset(
        name=name,
        network=RoadSocialNetwork(road, social),
        attribute_kind=kind,
        seed=seed,
        t_values=road_spec.t_values,
        default_t=road_spec.default_t,
    )


def dataset_statistics(
    name: str, scale: float = 1.0, seed: int = 7
) -> dict[str, object]:
    """Table-II style row for a generated pairing."""
    ds = load_dataset(name, scale=scale, seed=seed)
    stats = ds.network.social.statistics()
    stats["dataset"] = name
    stats["road_vertices"] = ds.network.road.num_vertices
    stats["road_edges"] = ds.network.road.num_edges
    stats["road_dg_avg"] = round(ds.network.road.average_degree(), 2)
    return stats
