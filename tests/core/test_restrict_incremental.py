"""The incremental component restriction matches the full-BFS oracle.

``restrict_after_removal`` classifies only the surviving ex-neighbors
of a cascade's removed vertices; ``restrict_to_query_component`` sweeps
the whole graph.  Along random peel chains over random connected
cohesive subgraphs containing Q, both must drop the same vertices (or
both report that Q broke apart), for the k-core cascade and for the
k-truss cascade the truss global search inherits the loop with.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.peeling import (
    cascade_delete_recoverable,
    restrict_after_removal,
    restrict_to_query_component,
)
from repro.core.truss_mac import truss_cascade_recoverable
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.core import k_core_containing, peel_to_k_core
from repro.graph.truss import k_truss, k_truss_containing

from tests.conftest import random_graph

CASES = {
    "core": (peel_to_k_core, k_core_containing, cascade_delete_recoverable),
    "truss": (k_truss, k_truss_containing, truss_cascade_recoverable),
}


def clustered_graph(seed: int) -> AdjacencyGraph:
    """Dense blocks hung off each other at single hinge vertices.

    Each new block links one vertex of an earlier block to a clique of
    1-3 of its own vertices (so the links sit in triangles and survive
    truss peeling too).  Peeling a hinge splits the graph, which is the
    case the restriction exists for.
    """
    rng = np.random.default_rng(seed)
    g = AdjacencyGraph()
    blocks: list[list[int]] = []
    first = 0
    for _ in range(int(rng.integers(2, 6))):
        block = list(range(first, first + int(rng.integers(4, 9))))
        first += len(block)
        density = rng.uniform(0.5, 1.0)
        for i, u in enumerate(block):
            g.add_vertex(u)
            for v in block[i + 1 :]:
                if rng.random() < density:
                    g.add_edge(u, v)
        if blocks:
            earlier = blocks[int(rng.integers(len(blocks)))]
            hinge = earlier[int(rng.integers(len(earlier)))]
            ends = [int(v) for v in rng.choice(
                block, size=int(rng.integers(1, 4)), replace=False
            )]
            for i, u in enumerate(ends):
                g.add_edge(hinge, u)
                for v in ends[i + 1 :]:
                    g.add_edge(u, v)
        blocks.append(block)
    return g


def _check_chain(data, kind: str) -> None:
    shrink, containing, cascade = CASES[kind]
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    if data.draw(st.booleans(), label="clustered"):
        graph = clustered_graph(seed)
    else:
        n = data.draw(st.integers(8, 36), label="n")
        p = data.draw(st.floats(0.1, 0.6), label="p")
        graph = random_graph(n, p, seed)
    k = data.draw(st.integers(2, 4) if kind == "core" else st.integers(3, 4))
    cohesive = shrink(graph, k)
    assume(cohesive.num_vertices > 0)
    pool = sorted(cohesive.vertices())
    q0 = data.draw(st.sampled_from(pool), label="q0")
    start = containing(cohesive, [q0], k)
    assert start is not None
    members = sorted(start.vertices())
    extra = data.draw(
        st.lists(st.sampled_from(members), max_size=2, unique=True),
        label="extra query vertices",
    )
    query = sorted({q0, *extra})
    graph = start.copy()
    for _round in range(data.draw(st.integers(1, 12), label="rounds")):
        others = sorted(set(graph.vertices()) - set(query))
        if not others:
            break
        trigger = data.draw(st.sampled_from(others), label="trigger")
        removed = cascade(graph, trigger, k)
        oracle = graph.copy()
        expected = restrict_to_query_component(oracle, query)
        got = restrict_after_removal(graph, query, removed)
        assert got == expected
        assert set(graph.vertices()) == set(oracle.vertices())
        if got is None:
            break


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_matches_oracle_along_core_peel_chains(data):
    _check_chain(data, "core")


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_matches_oracle_along_truss_peel_chains(data):
    _check_chain(data, "truss")
