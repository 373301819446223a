"""Self-tests of the benchmark's own helpers (no server, no dataset).

    python3 perfbench/selftest.py

Covers the tail-percentile rule, the layer subtraction that tiles a
request's client latency, and the determinism of the seeded request and
mutation streams.
"""

from __future__ import annotations

import itertools
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402
from repro import MACRequest, PreferenceRegion  # noqa: E402


def _population(n: int) -> list[MACRequest]:
    region = PreferenceRegion.centered([0.3, 0.3], 0.01)
    return [MACRequest.make([i, i + 1], 3, 10.0 + i, region)
            for i in range(n)]


def _take(stream, n: int) -> list:
    return [
        (op.kind, op.key, op.request.label if op.request else None,
         op.request.time_budget if op.request else None,
         repr(op.mutation))
        for op in itertools.islice(stream, n)
    ]


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 95), 95)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.supported_percentile(10_000), 99.9)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(999), 98.0)
        self.assertEqual(stats.supported_percentile(400), 97.5)
        self.assertEqual(stats.supported_percentile(200), 95.0)
        self.assertEqual(stats.supported_percentile(199), 90.0)
        self.assertIsNone(stats.supported_percentile(19))

    def test_rule_leaves_ten_samples_beyond(self):
        for n in range(20, 3000, 37):
            q = stats.supported_percentile(n)
            values = list(range(n))
            cut = stats.percentile(values, q)
            self.assertGreaterEqual(sum(v > cut for v in values), 10)


class LayerTiling(unittest.TestCase):
    def test_threads_layers_tile_the_latency(self):
        spans = {
            "protocol.decode": (1.0010, 1.0012, None),
            "service.executor": (1.0020, 1.0090, None),
            "engine.search": (1.0021, 1.0070, None),
            "protocol.encode": (1.0071, 1.0085, None),
        }
        layers = stats.tile_layers(1.0, 1.0120, spans, "threads")
        self.assertAlmostEqual(sum(layers.values()), 0.0120, places=12)
        self.assertAlmostEqual(layers["service.inbound"], 0.0010)
        self.assertAlmostEqual(layers["service.queue"], 0.0008)
        self.assertAlmostEqual(layers["service.executor"], 0.0070 - 0.0049
                               - 0.0014)
        self.assertAlmostEqual(layers["service.outbound"], 0.0030)

    def test_pool_layers_tile_the_latency(self):
        spans = {
            "protocol.decode": (5.001, 5.002, None),
            "pool.search": (5.003, 5.020, 0.010),
        }
        layers = stats.tile_layers(5.0, 5.025, spans, "pool")
        self.assertAlmostEqual(sum(layers.values()), 0.025, places=12)
        self.assertAlmostEqual(layers["engine.search"], 0.010)
        self.assertAlmostEqual(layers["pool.dispatch"], 0.007)

    def test_missing_span_is_not_tiled(self):
        spans = {"protocol.decode": (1.0, 1.1, None)}
        self.assertIsNone(stats.tile_layers(0.9, 1.5, spans, "threads"))
        self.assertIsNone(stats.tile_layers(0.9, 1.5, spans, "pool"))


class StreamDeterminism(unittest.TestCase):
    def test_same_seed_same_stream(self):
        pop = _population(16)
        miss_pop = [("small", r) for r in pop]
        edges = [(1, 2), (3, 4), (5, 6)]
        for make in (
            lambda s, c: workloads.hot_stream(pop, s, c),
            lambda s, c: workloads.miss_stream(miss_pop, s, c),
            lambda s, c: workloads.fleet_stream(pop, edges, s, c),
        ):
            self.assertEqual(_take(make(3, 0), 300), _take(make(3, 0), 300))
            self.assertNotEqual(_take(make(3, 0), 300), _take(make(4, 0), 300))
            self.assertNotEqual(_take(make(3, 0), 300), _take(make(3, 1), 300))

    def test_passes_cover_the_population(self):
        pop = _population(16)
        keys = [op.key for op in itertools.islice(
            workloads.hot_stream(pop, 9, 0), 32)]
        self.assertEqual(sorted(keys[:16]), list(range(16)))
        self.assertEqual(sorted(keys[16:]), list(range(16)))

    def test_miss_requests_are_distinct_identities(self):
        pop = [("small", r) for r in _population(4)]
        ops = list(itertools.islice(workloads.miss_stream(pop, 1, 0), 40))
        keys = {op.request.result_key for op in ops}
        self.assertEqual(len(keys), 40)

    def test_fleet_mutations_only_on_connection_zero(self):
        pop = _population(64)
        edges = [(1, 2), (3, 4), (5, 6)]
        ops0 = list(itertools.islice(
            workloads.fleet_stream(pop, edges, 5, 0), 400))
        ops1 = list(itertools.islice(
            workloads.fleet_stream(pop, edges, 5, 1), 400))
        self.assertFalse(any(op.kind == "mutate" for op in ops1))
        positions = [i for i, op in enumerate(ops0) if op.kind == "mutate"]
        gaps = [b - a - 1 for a, b in zip([-1] + positions, positions)]
        lo, hi = workloads.FLEET_MUTATE_GAP
        self.assertTrue(all(lo <= g <= hi for g in gaps), gaps)
        self.assertEqual([op.key for op in ops0 if op.kind == "mutate"],
                         list(range(len(positions))))

    def test_toggle_cycle_returns_to_start(self):
        edges = [(1, 2), (3, 4), (5, 6)]
        present: set = set()
        for n in range(2 * len(edges)):
            m = workloads.toggle_mutation(edges, n)
            edge = (m["u"], m["v"])
            if m["op"] == "add_social_edge":
                self.assertNotIn(edge, present)
                present.add(edge)
            else:
                self.assertIn(edge, present)
                present.remove(edge)
            self.assertEqual(
                workloads.toggle_state(edges, n + 1),
                [workloads.toggle_mutation(edges, i) for i in range(n + 1)]
                if n + 1 < 2 * len(edges) else [],
            )
        self.assertEqual(present, set())


if __name__ == "__main__":
    unittest.main()
