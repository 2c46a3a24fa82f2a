"""Tests for the observability layer: registry primitives, the no-op
default, hot-path instrumentation capture, exporters, and the overhead
bench plumbing."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.countsketch import CountSketch
from repro.core.maxchange import MaxChangeFinder
from repro.core.sparse import SparseCountSketch
from repro.core.topk import TopKTracker
from repro.core.vectorized import VectorizedCountSketch
from repro.core.windowed import JumpingWindowSketch
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    metrics_enabled,
    set_registry,
    to_json,
    to_prometheus,
    use_registry,
    write_json,
    write_prometheus,
)


class TestPrimitives:
    def test_counter(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge(self):
        gauge = Gauge("x")
        gauge.set(3.5)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == 4.0

    def test_histogram_exact_summaries(self):
        histogram = Histogram("x")
        for value in [5.0, 1.0, 3.0]:
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 9.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0

    def test_histogram_quantiles_small_sample(self):
        histogram = Histogram("x")
        for value in range(1, 101):
            histogram.observe(float(value))
        # Reservoir (1024) holds everything: quantiles are exact.
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert abs(histogram.quantile(0.5) - 50.5) < 1e-9
        pct = histogram.percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_histogram_reservoir_bounded(self):
        histogram = Histogram("x", reservoir_size=32)
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert len(histogram._reservoir) == 32
        # Quantiles remain within the observed range.
        assert 0.0 <= histogram.quantile(0.5) <= 9_999.0

    def test_histogram_snapshot_independent_of_hash_seed(self):
        # Past the 1024-value reservoir, quantiles depend on the
        # reservoir RNG, whose seed must not follow PYTHONHASHSEED.
        script = (
            "import json\n"
            "from repro.observability import MetricsRegistry\n"
            "registry = MetricsRegistry()\n"
            "histogram = registry.histogram('service_request_seconds')\n"
            "for value in range(5000):\n"
            "    histogram.observe(float(value))\n"
            "print(json.dumps(registry.snapshot(), sort_keys=True))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        snapshots = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": src + (os.pathsep + path if path else "")}
            snapshots.append(subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            ).stdout)
        assert snapshots[0] == snapshots[1]
        assert json.loads(snapshots[0])["histograms"][
            "service_request_seconds"]["count"] == 5000

    def test_histogram_empty_quantile_nan(self):
        assert math.isnan(Histogram("x").quantile(0.5))

    def test_histogram_rejects_bad_args(self):
        with pytest.raises(ValueError):
            Histogram("x", reservoir_size=0)
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)


class TestRegistry:
    def test_handles_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["p50"] == 3.0

    def test_timed_context_manager(self):
        registry = MetricsRegistry()
        with registry.timed("t"):
            pass
        assert registry.histogram("t").count == 1
        assert registry.histogram("t").sum >= 0.0

    def test_timed_decorator(self):
        registry = MetricsRegistry()

        @registry.timed("t")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert work(2) == 3
        assert registry.histogram("t").count == 2

    def test_global_default_is_null(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert not metrics_enabled()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_null_registry_discards_everything(self):
        registry = NullRegistry()
        registry.counter("c").inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        with registry.timed("t"):
            pass
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_use_registry_restores_previous(self):
        outer = get_registry()
        inner = MetricsRegistry()
        with use_registry(inner) as active:
            assert active is inner
            assert get_registry() is inner
            assert metrics_enabled()
        assert get_registry() is outer

    def test_set_registry_none_restores_null(self):
        previous = set_registry(MetricsRegistry())
        try:
            assert metrics_enabled()
        finally:
            set_registry(None)
        assert not metrics_enabled()
        assert isinstance(previous, NullRegistry)


class TestSketchInstrumentation:
    def test_dense_counts_updates_estimates_and_cache(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            sketch = CountSketch(3, 32, seed=0)
            sketch.update("a")
            sketch.update("a")
            sketch.update("b")
            sketch.estimate("a")
        counters = registry.snapshot()["counters"]
        assert counters["countsketch_updates_total"] == 3
        assert counters["countsketch_estimates_total"] == 1
        # First sight of "a" and "b" miss; the rest hit.
        assert counters["countsketch_position_cache_misses_total"] == 2
        assert counters["countsketch_position_cache_hits_total"] == 2

    def test_cache_evictions_counted(self, monkeypatch):
        import repro.core.countsketch as module

        monkeypatch.setattr(module, "_POSITION_CACHE_LIMIT", 8)
        registry = MetricsRegistry()
        with use_registry(registry):
            sketch = CountSketch(3, 32, seed=0)
            for value in range(20):
                sketch.update(value)
        counters = registry.snapshot()["counters"]
        assert counters["countsketch_position_cache_evictions_total"] > 0

    def test_disabled_sketch_records_nothing(self):
        sketch = CountSketch(3, 32, seed=0)
        assert sketch._metrics is None
        sketch.update("a")
        registry = MetricsRegistry()
        with use_registry(registry):
            # Built before enabling: still uninstrumented, by design.
            sketch.update("a")
        assert registry.snapshot()["counters"] == {}

    def test_sparse_counts(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            sketch = SparseCountSketch(3, 32, seed=0)
            sketch.update("a")
            sketch.estimate("a")
        counters = registry.snapshot()["counters"]
        assert counters["sparse_countsketch_updates_total"] == 1
        assert counters["sparse_countsketch_estimates_total"] == 1

    def test_vectorized_counts_items(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            sketch = VectorizedCountSketch(3, 32, seed=0)
            sketch.update_batch([1, 2, 3, 4])
            sketch.estimate_batch([1, 2])
        counters = registry.snapshot()["counters"]
        assert counters["vectorized_countsketch_update_batches_total"] == 1
        assert counters["vectorized_countsketch_update_items_total"] == 4
        assert counters["vectorized_countsketch_estimate_items_total"] == 2


class TestTrackerInstrumentation:
    def test_heap_churn_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            tracker = TopKTracker(2, depth=3, width=64, seed=0)
            for item in ["a"] * 5 + ["b"] * 3 + ["c"] * 2 + ["d"]:
                tracker.update(item)
        counters = registry.snapshot()["counters"]
        assert counters["topk_updates_total"] == 11
        # a, b admitted freely; c evicts someone; d may reject or evict.
        assert counters["topk_heap_admissions_total"] >= 2
        assert (
            counters["topk_heap_admissions_total"]
            - counters["topk_heap_evictions_total"]
            == 2  # final heap size
        )
        assert counters["topk_exact_increments_total"] >= 6
        churn = (
            counters["topk_heap_evictions_total"]
            + counters["topk_heap_rejections_total"]
        )
        assert churn >= 1

    def test_maxchange_churn_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            finder = MaxChangeFinder(2, depth=3, width=64, seed=0)
            before = ["a"] * 5 + ["b"] * 4 + ["c"] * 3 + ["d"]
            after = ["a"] * 1 + ["b"] * 9 + ["c"] * 3 + ["d"]
            finder.first_pass(before, after)
            finder.second_pass(before, after)
        counters = registry.snapshot()["counters"]
        assert counters["maxchange_admissions_total"] >= 2
        assert (
            counters["maxchange_admissions_total"]
            + counters["maxchange_rejections_total"]
            >= 4 - counters["maxchange_evictions_total"]
        )

    def test_window_rotation_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            window = JumpingWindowSketch(window=20, buckets=4, depth=3,
                                         width=32, seed=0)
            window.update("x", 100)
        counters = registry.snapshot()["counters"]
        assert counters["window_rotations_total"] == 100 // 5
        assert counters["window_buckets_expired_total"] > 0


PROMETHEUS_LINE = re.compile(
    r"^(?:# (?:TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (?:[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf)|NaN))$"
)


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("updates_total").inc(7)
    registry.gauge("workers").set(4)
    histogram = registry.histogram("merge_seconds")
    for value in [0.25, 0.5, 0.125]:
        histogram.observe(value)
    return registry


class TestExporters:
    def test_json_roundtrip(self):
        registry = _populated_registry()
        document = json.loads(to_json(registry))
        assert document["counters"]["updates_total"] == 7
        assert document["gauges"]["workers"] == 4.0
        assert document["histograms"]["merge_seconds"]["count"] == 3
        assert document["histograms"]["merge_seconds"]["sum"] == 0.875

    def test_write_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(_populated_registry(), path)
        assert json.loads(path.read_text())["counters"]["updates_total"] == 7

    def test_prometheus_text_is_valid_exposition(self):
        text = to_prometheus(_populated_registry())
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            assert PROMETHEUS_LINE.match(line), f"invalid line: {line!r}"

    def test_prometheus_families(self):
        text = to_prometheus(_populated_registry())
        assert "# TYPE updates_total counter" in text
        assert "updates_total 7" in text
        assert "# TYPE workers gauge" in text
        assert "# TYPE merge_seconds summary" in text
        assert 'merge_seconds{quantile="0.5"} 0.25' in text
        assert "merge_seconds_sum 0.875" in text
        assert "merge_seconds_count 3" in text

    def test_prometheus_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.counter("bad.name with-chars").inc()
        text = to_prometheus(registry)
        assert "bad_name_with_chars 1" in text
        for line in text.strip().splitlines():
            assert PROMETHEUS_LINE.match(line), f"invalid line: {line!r}"

    def test_write_prometheus(self, tmp_path):
        path = tmp_path / "m.prom"
        write_prometheus(_populated_registry(), path)
        assert "updates_total 7" in path.read_text()

    def test_empty_registry_exports(self):
        registry = MetricsRegistry()
        assert json.loads(to_json(registry)) == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert to_prometheus(registry) == ""


class TestOverheadBench:
    def test_bench_smoke_emits_json(self, tmp_path):
        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        sys.path.insert(0, str(bench_dir))
        try:
            import bench_overhead
        finally:
            sys.path.remove(str(bench_dir))
        out = tmp_path / "BENCH_overhead.json"
        code = bench_overhead.main([
            "--n", "4000", "--repeats", "1", "--json", str(out),
            # Tiny n is noisy; this test checks plumbing, not the gate.
            "--max-overhead-pct", "1000",
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["bench"] == "overhead"
        assert record["sketch_disabled_items_per_s"] > 0
        assert record["tracker_enabled_items_per_s"] > 0
        assert "sketch_overhead_pct" in record
