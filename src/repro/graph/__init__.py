"""Graph substrate: dynamic adjacency graphs and cohesive-subgraph peeling.

All hot-path graph algorithms in this package are implemented directly on
adjacency sets (no networkx), because pure-networkx core/truss peeling is
too slow at the dataset scales used by the benchmarks.
"""

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import (
    core_decomposition,
    coreness_upper_bound,
    k_core_containing,
    peel_to_k_core,
)
from repro.graph.truss import k_truss, truss_decomposition
from repro.graph.clique import (
    k_clique_communities,
    k_clique_community_containing,
    maximal_cliques,
)

__all__ = [
    "AdjacencyGraph",
    "core_decomposition",
    "coreness_upper_bound",
    "k_core_containing",
    "peel_to_k_core",
    "k_truss",
    "truss_decomposition",
    "maximal_cliques",
    "k_clique_communities",
    "k_clique_community_containing",
]
