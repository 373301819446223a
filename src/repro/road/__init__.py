"""Road-network substrate: weighted graphs, shortest paths, G-tree index."""

from repro.road.dijkstra import (
    bounded_dijkstra,
    dijkstra,
    network_distance,
    query_distances,
)
from repro.road.gtree import GTree
from repro.road.network import RoadNetwork, SpatialPoint

__all__ = [
    "RoadNetwork",
    "SpatialPoint",
    "dijkstra",
    "bounded_dijkstra",
    "network_distance",
    "query_distances",
    "GTree",
]
