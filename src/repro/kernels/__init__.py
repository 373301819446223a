"""Flat-array compute kernels: the package's performance layer.

Every hot kernel of the reproduction — core decomposition, peeling
cascades, connected components, bounded Dijkstra, G-tree matrix
assembly, corner-score dominance sweeps — has a vectorized
implementation here, operating on an int-indexed CSR graph
(:class:`FlatGraph`) instead of dicts-of-sets.  The higher layers
(``graph.core``, ``road.gtree``, ``dominance.graph``, the engine)
delegate to these kernels behind their existing APIs.  The G-tree and
the global search keep a python path that the input size picks
(:mod:`repro.kernels.backend`); the kernels are asserted equivalent to
the python paths and the reference oracles in ``tests/kernels/``.
"""

from repro.kernels.core import (
    component_labels,
    component_mask,
    core_numbers,
    k_core_component,
    k_core_mask,
)
from repro.kernels.flatgraph import FlatGraph
from repro.kernels.livecore import (
    delete_edge_rows,
    insert_edge_rows,
    repair_delete_rows,
    repair_insert_rows,
)
from repro.kernels.paths import (
    all_pairs_minplus,
    dense_weight_matrix,
    masked_dijkstra_rows,
)
from repro.kernels.search import (
    alive_degrees,
    cascade_rows,
    deletion_chain_rows,
    restrict_rows_incremental,
    search_flatgraph,
)

__all__ = [
    "FlatGraph",
    "alive_degrees",
    "all_pairs_minplus",
    "cascade_rows",
    "component_labels",
    "component_mask",
    "core_numbers",
    "delete_edge_rows",
    "deletion_chain_rows",
    "dense_weight_matrix",
    "insert_edge_rows",
    "k_core_component",
    "k_core_mask",
    "masked_dijkstra_rows",
    "repair_delete_rows",
    "repair_insert_rows",
    "restrict_rows_incremental",
    "search_flatgraph",
]
