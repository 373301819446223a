"""Engine-level path equivalence and stage telemetry.

Each equivalence check runs one engine per side of the ``force_path``
seam (the G-tree and global-search size rules) and compares their
answers.
"""

from __future__ import annotations

import pytest

from tests.conftest import (  # noqa: F401 (fixtures)
    on_both_sides,
    paper_network,
    paper_region,
)
from repro import MACEngine, MACRequest
from repro.errors import QueryError


def result_signature(result):
    """Partition structure without Cell objects (identity equality)."""
    return [
        sorted(sorted(c.members) for c in entry.communities)
        for entry in result.partitions
    ]


def search_both(force_path, network, request):
    """``request`` answered forced flat, then forced python."""
    return on_both_sides(
        force_path, lambda: MACEngine(network).search(request)
    )


class TestBackendEquivalence:
    def test_search_results_identical(
        self, paper_network, paper_region, force_path
    ):
        for problem, j, algorithm in (
            ("nc", 1, "global"),
            ("nc", 1, "local"),
            ("topj", 2, "global"),
        ):
            request = MACRequest.make(
                [2, 3, 6], 3, 9.0, paper_region,
                j=j, problem=problem, algorithm=algorithm,
            )
            a, b = search_both(force_path, paper_network, request)
            assert a.htk_vertices == b.htk_vertices
            assert a.htk_edges == b.htk_edges
            assert result_signature(a) == result_signature(b)

    def test_dataset_equivalence(self, small_dataset, force_path):
        from repro.cli import resolve_search_defaults

        ds = small_dataset
        t, region = resolve_search_defaults(ds, 0.1, 3)
        q = ds.suggest_query(2, k=4, t=t)
        request = MACRequest.make(q, 4, t, region, algorithm="local")
        a, b = search_both(force_path, ds.network, request)
        assert a.htk_vertices == b.htk_vertices
        assert result_signature(a) == result_signature(b)

    def test_invalid_backends_rejected(self, paper_network, paper_region):
        # The input picks the path: neither the engine nor a request
        # takes a backend option any more.
        with pytest.raises(TypeError):
            MACEngine(paper_network, backend="fast")
        with pytest.raises(QueryError):
            MACRequest.make([1], 2, 5.0, paper_region, backend="numpy")


class TestStageTelemetry:
    def test_stage_seconds_accumulate(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        tel = engine.telemetry()
        assert set(tel.stage_seconds) == {
            "filter", "core", "dominance", "search",
        }
        assert all(v == 0.0 for v in tel.stage_seconds.values())
        request = MACRequest.make([2, 3, 6], 3, 9.0, paper_region)
        engine.search(request)
        tel = engine.telemetry()
        assert tel.stage_seconds["filter"] > 0.0
        assert tel.stage_seconds["core"] > 0.0
        assert tel.stage_seconds["dominance"] > 0.0
        assert tel.stage_seconds["search"] > 0.0
        # cache hits add no build time
        frozen = dict(tel.stage_seconds)
        engine.search(request)
        after = engine.telemetry().stage_seconds
        for stage in ("filter", "core", "dominance"):
            assert after[stage] == frozen[stage]

    def test_per_request_timings(self, paper_network, paper_region):
        engine = MACEngine(paper_network, result_cache_size=0)
        request = MACRequest.make([2, 3, 6], 3, 9.0, paper_region)
        cold = engine.search(request).extra["engine"]["timings"]
        assert cold["filter"] > 0.0 and cold["dominance"] > 0.0
        warm = engine.search(request).extra["engine"]["timings"]
        assert warm["filter"] == 0.0 and warm["dominance"] == 0.0
        assert warm["search"] > 0.0

    def test_warm_accounts_stage_time(self, paper_network, paper_region):
        engine = MACEngine(paper_network)
        engine.warm(MACRequest.make([2, 3, 6], 3, 9.0, paper_region))
        tel = engine.telemetry()
        assert tel.stage_seconds["filter"] > 0.0
        assert tel.stage_seconds["search"] == 0.0

    def test_explain_surfaces_stage_seconds(
        self, paper_network, paper_region
    ):
        engine = MACEngine(paper_network)
        request = MACRequest.make([2, 3, 6], 3, 9.0, paper_region)
        engine.search(request)
        plan = engine.explain(request)
        assert plan.stage_seconds["filter"] > 0.0
        assert "stage seconds" in plan.summary()
