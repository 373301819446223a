"""Registry and case-study dataset tests."""

import numpy as np
import pytest

from repro.datasets.aminer import (
    DM_AUTHORS,
    QUERY_AUTHORS,
    aminer_case_study,
)
from repro.datasets.registry import (
    DATASET_NAMES,
    dataset_statistics,
    load_dataset,
)
from repro.errors import DatasetError
from repro.graph.core import core_decomposition


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            load_dataset("sf+nothing")

    def test_bad_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("sf+slashdot", scale=0.0)

    def test_all_names_load_small(self):
        for name in DATASET_NAMES:
            ds = load_dataset(name, scale=0.05, seed=3)
            assert ds.network.social.num_users >= 60
            assert ds.network.road.num_vertices >= 100
            assert ds.network.social.dimensionality == 3

    def test_deterministic(self):
        a = load_dataset("sf+slashdot", scale=0.1, seed=9)
        b = load_dataset("sf+slashdot", scale=0.1, seed=9)
        assert a.network.social.num_edges == b.network.social.num_edges
        va = sorted(a.network.social.graph.vertices())[:10]
        for v in va:
            assert np.array_equal(
                a.network.social.attribute(v), b.network.social.attribute(v)
            )
            assert a.network.social.location(v) == b.network.social.location(v)

    def test_yelp_gets_real_attributes(self):
        ds = load_dataset("fl+yelp", scale=0.05, seed=2)
        assert ds.attribute_kind == "real"

    def test_attribute_kind_override(self):
        ds = load_dataset(
            "sf+slashdot", scale=0.05, seed=2, attribute_kind="correlated"
        )
        assert ds.attribute_kind == "correlated"

    def test_dimensions_parameter(self):
        ds = load_dataset("sf+slashdot", scale=0.05, dimensions=5, seed=1)
        assert ds.network.social.dimensionality == 5

    def test_suggest_query_satisfiable(self):
        ds = load_dataset("sf+slashdot", scale=0.3, seed=7)
        q = ds.suggest_query(4, k=6, t=ds.default_t, seed=1)
        assert len(q) == 4
        assert ds.network.maximal_kt_core(q, 6, ds.default_t) is not None

    @pytest.mark.parametrize("name,scale,expected", [
        ("sf+slashdot", 0.1, [(247,), (134, 226), (49, 68, 180, 201),
                              (48, 52, 242)]),
        ("fl+yelp", 0.5, [(3184,), (1709, 2006), (440, 530, 1260, 2038),
                          (367, 851, 3142)]),
    ])
    def test_suggested_queries_are_pinned(self, name, scale, expected):
        # Suggested queries seed benchmarks and examples: they must stay
        # byte-identical whatever path the kernels take (the draw walks
        # the python peel's neighbor sets).  Pinned from the release
        # that still had per-request compute backends.
        ds = load_dataset(name, scale=scale, seed=7)
        got = [
            ds.suggest_query(size, k=k, seed=seed)
            for size, k, seed in ((1, 4, 0), (2, 4, 1), (4, 6, 1), (3, 5, 2))
        ]
        assert got == expected

    def test_statistics_row(self):
        row = dataset_statistics("sf+slashdot", scale=0.05, seed=1)
        assert row["dataset"] == "sf+slashdot"
        assert row["vertices"] >= 60
        assert row["k_max"] >= 4
        assert 2.0 <= row["road_dg_avg"] <= 3.2


class TestAminerCaseStudy:
    def test_structure(self):
        cs = aminer_case_study(num_background=300, groups=12, seed=5)
        assert set(QUERY_AUTHORS) <= set(cs.author_id)
        assert len(cs.query) == 4
        graph = cs.network.social.graph
        assert graph.num_vertices >= 300
        # the DM community is a deep core (the case study uses k = 5)
        numbers = core_decomposition(graph)
        han = cs.author_id["Jiawei Han"]
        assert numbers[han] >= 5

    def test_names_roundtrip(self):
        cs = aminer_case_study(num_background=200, groups=8, seed=1)
        names = cs.names(cs.query)
        assert sorted(names) == sorted(QUERY_AUTHORS)

    def test_attribute_tiers_descend(self):
        cs = aminer_case_study(num_background=200, groups=8, seed=2)
        attrs = cs.network.social.attributes
        top = np.mean([attrs[cs.author_id[a]] for a in DM_AUTHORS[:7]])
        tail = np.mean([attrs[cs.author_id[a]] for a in DM_AUTHORS[12:]])
        assert top > tail + 1.0

    def test_keywords_assigned(self):
        cs = aminer_case_study(num_background=150, groups=6, seed=3)
        assert all(
            cs.keywords[cs.author_id[a]] == "DM" for a in QUERY_AUTHORS
        )
