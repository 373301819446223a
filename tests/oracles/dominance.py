"""Reference r-dominance build: per-vertex corner scores, pairwise tests.

The former ``python`` construction of
``repro.dominance.graph.DominanceGraph``, kept as the oracle of the
matrix build that replaced it: a ``corner_scores`` array per vertex and
a ``dominance_case`` test against every inserted predecessor.  The two
must produce the identical Hasse DAG (order, parents, roots, layers).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.dominance.graph import DominanceGraph
from repro.dominance.relation import (
    DOMINATES,
    EQUAL,
    SCORE_EPS,
    corner_scores,
    dominance_case,
)
from repro.geometry.region import PreferenceRegion


class ReferenceDominanceGraph(DominanceGraph):
    """A :class:`DominanceGraph` built by the pairwise reference loop."""

    def __init__(
        self,
        attributes: Mapping[int, np.ndarray],
        region: PreferenceRegion,
        use_rtree: bool = True,
    ) -> None:
        self._init_base(attributes, region)
        for i, v in enumerate(self._ids):
            self._cs_all[i] = corner_scores(self._attrs[v], self._corners)
        for v in self._stream(use_rtree):
            cs_v = self._cscore(v)
            dominators = [
                u
                for u in self.order
                if dominance_case(self._cscore(u), cs_v, SCORE_EPS)
                in (DOMINATES, EQUAL)
            ]
            non_minimal: set[int] = set()
            for dom in dominators:
                non_minimal.update(self.parents[dom])
            self._attach(
                v, [dom for dom in dominators if dom not in non_minimal]
            )
