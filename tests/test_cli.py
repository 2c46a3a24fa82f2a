"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.experiments.report import format_table
from repro.observability import MetricsRegistry, use_registry
from repro.store import dumps
from repro.streams.io import (
    DEFAULT_CHUNK_SIZE,
    read_stream_text,
    write_stream_text,
)
from repro.streams.zipf import ZipfStreamGenerator


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.txt"
    items = ["apple"] * 30 + ["banana"] * 20 + ["cherry"] * 10 + ["date"] * 2
    write_stream_text(path, items)
    return str(path)


@pytest.fixture()
def stream_pair(tmp_path):
    before = tmp_path / "before.txt"
    after = tmp_path / "after.txt"
    write_stream_text(before, ["up"] * 5 + ["down"] * 40 + ["flat"] * 20)
    write_stream_text(after, ["up"] * 45 + ["down"] * 5 + ["flat"] * 20)
    return str(before), str(after)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_choices_complete(self):
        # Every listed experiment module must actually import and expose
        # main().
        import importlib

        for name in EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.main)

    def test_topk_defaults(self):
        args = build_parser().parse_args(["topk", "--input", "x.txt"])
        assert args.k == 10
        assert args.depth == 5
        assert args.width == 512


class TestTopK:
    def test_reports_heaviest_first(self, stream_file, capsys):
        assert main(["topk", "--input", stream_file, "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "apple" in out
        assert out.index("apple") < out.index("banana") < out.index("cherry")
        assert "space:" in out

    def test_custom_dimensions(self, stream_file, capsys):
        assert main([
            "topk", "--input", stream_file, "--k", "2",
            "--depth", "3", "--width", "64", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "apple" in out

    def test_int_keys(self, tmp_path, capsys):
        path = tmp_path / "ints.txt"
        write_stream_text(path, [7] * 10 + [3] * 5)
        assert main(["topk", "--input", str(path), "--k", "1",
                     "--int-keys"]) == 0
        out = capsys.readouterr().out
        assert "7" in out

    def test_streams_lazily(self, stream_file, capsys, monkeypatch):
        # The CLI must never materialize the input file into a list.
        import repro.streams.io as io_module

        def _forbidden(*args, **kwargs):
            raise AssertionError("CLI must not load the whole stream")

        monkeypatch.setattr(io_module, "read_stream_text", _forbidden)
        assert main(["topk", "--input", stream_file, "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "apple" in out


class TestEstimate:
    def test_estimates_requested_items(self, stream_file, capsys):
        assert main([
            "estimate", "--input", stream_file, "apple", "missing",
        ]) == 0
        out = capsys.readouterr().out
        assert "apple" in out
        assert "30" in out  # exact under a wide sketch
        assert "missing" in out


class TestChunkedIngest:
    """``topk`` and ``estimate`` apply the file in chunks, yet print and
    save exactly what a per-record feed produces."""

    @pytest.fixture(params=[False, True], ids=["str-keys", "int-keys"])
    def long_stream(self, request, tmp_path):
        ranks = ZipfStreamGenerator(m=300, z=1.0, seed=3).generate(
            2 * DEFAULT_CHUNK_SIZE + 123).items
        items = [int(rank) if request.param else f"q{rank}"
                 for rank in ranks]
        path = tmp_path / "long.txt"
        write_stream_text(path, items)
        flags = ["--int-keys"] if request.param else []
        return str(path), items, flags

    def test_topk_matches_per_record_tracker(self, long_stream, tmp_path,
                                             capsys):
        path, items, flags = long_stream
        state = tmp_path / "topk.rcs"
        assert main(["topk", "--input", path, "--k", "5", "--depth", "3",
                     "--width", "128", "--save-state", str(state),
                     *flags]) == 0
        reference = TopKTracker(5, depth=3, width=128, seed=0)
        for item in items:
            reference.update(item)
        rows = [[rank, str(item), count]
                for rank, (item, count) in enumerate(reference.top(), 1)]
        assert capsys.readouterr().out == "\n".join([
            f"state: snapshot -> {state}",
            format_table(["rank", "item", "approx count"], rows,
                         title=f"top-5 of {path} ({len(items)} items)"),
            f"space: {reference.counters_used()} counters, "
            f"{reference.items_stored()} stored items",
            "",
        ])
        assert state.read_bytes() == dumps(
            reference, meta={"items_consumed": len(items)})

    def test_estimate_matches_per_record_sketch(self, long_stream, tmp_path,
                                                capsys):
        path, items, flags = long_stream
        state = tmp_path / "sketch.rcs"
        queries = [str(item) for item in items[:3]] + ["404"]
        assert main(["estimate", "--input", path, "--depth", "3",
                     "--width", "128", "--save-state", str(state),
                     *flags, *queries]) == 0
        reference = CountSketch(3, 128, seed=0)
        for item in items:
            reference.update(item)
        keys = [int(q) for q in queries] if flags else queries
        rows = [[str(key), reference.estimate(key)] for key in keys]
        assert capsys.readouterr().out == "\n".join([
            f"state: snapshot -> {state}",
            format_table(["item", "estimate"], rows,
                         title=f"estimates over {path}"),
            "",
        ])
        assert state.read_bytes() == dumps(
            reference, meta={"items_consumed": len(items)})


class TestMaxChange:
    def test_reports_movers(self, stream_pair, capsys):
        before, after = stream_pair
        assert main([
            "maxchange", "--before", before, "--after", after, "--k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "up" in out
        assert "down" in out
        assert "flat" not in out.split("change")[-1].split("\n")[0]


class TestPercentChange:
    def test_reports_percent_movers(self, tmp_path, capsys):
        before = tmp_path / "before.txt"
        after = tmp_path / "after.txt"
        write_stream_text(before, ["stable"] * 100 + ["sleeper"] * 5)
        write_stream_text(after, ["stable"] * 100 + ["sleeper"] * 80)
        assert main([
            "percent-change", "--before", str(before), "--after",
            str(after), "--k", "1", "--floor", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "sleeper" in out
        assert "%" in out

    def test_min_after_filter(self, tmp_path, capsys):
        before = tmp_path / "b.txt"
        after = tmp_path / "a.txt"
        write_stream_text(before, ["vanished"] * 50 + ["grew"] * 10)
        write_stream_text(after, ["grew"] * 60)
        assert main([
            "percent-change", "--before", str(before), "--after",
            str(after), "--k", "1", "--min-after", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "grew" in out
        assert "vanished" not in out


class TestMetricsOut:
    def test_topk_serial_json(self, stream_file, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main([
            "topk", "--input", stream_file, "--k", "2",
            "--metrics-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"metrics: wrote json to {out_path}" in out
        counters = json.loads(out_path.read_text())["counters"]
        # The file is applied in update_batch steps, whose totals equal a
        # per-record tracker's; a batch step makes no position-cache
        # lookups, so those two counters read 0.
        registry = MetricsRegistry()
        with use_registry(registry):
            tracker = TopKTracker(2, depth=5, width=512, seed=0)
            for item in read_stream_text(stream_file):
                tracker.update(item)
        per_record = registry.snapshot()["counters"]
        cache = {"countsketch_position_cache_misses_total",
                 "countsketch_position_cache_hits_total"}
        assert per_record["countsketch_position_cache_misses_total"] == 4
        assert {name: counters[name] for name in cache} == dict.fromkeys(
            cache, 0)
        assert {name: value for name, value in counters.items()
                if name not in cache} == {
            name: value for name, value in per_record.items()
            if name not in cache}
        assert counters["countsketch_updates_total"] == 62
        assert counters["topk_updates_total"] == 62
        assert counters["topk_heap_admissions_total"] == 2
        assert counters["topk_exact_increments_total"] == 48
        assert counters["topk_heap_rejections_total"] == 12
        assert counters["countsketch_estimates_total"] == 14

    def test_estimate_metrics(self, stream_file, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main([
            "estimate", "--input", stream_file, "apple",
            "--metrics-out", str(out_path),
        ]) == 0
        counters = json.loads(out_path.read_text())["counters"]
        assert counters["countsketch_updates_total"] == 62
        assert counters["countsketch_estimates_total"] == 1

    def test_maxchange_metrics(self, stream_pair, tmp_path, capsys):
        before, after = stream_pair
        out_path = tmp_path / "m.json"
        assert main([
            "maxchange", "--before", before, "--after", after,
            "--k", "2", "--l", "3", "--metrics-out", str(out_path),
        ]) == 0
        counters = json.loads(out_path.read_text())["counters"]
        # Pass 1 touches every item of both streams (65 + 70).
        assert counters["countsketch_updates_total"] == 135
        assert counters["maxchange_admissions_total"] == 3

    def test_prometheus_format_inferred_from_extension(self, stream_file,
                                                       tmp_path, capsys):
        out_path = tmp_path / "m.prom"
        assert main([
            "topk", "--input", stream_file, "--k", "2",
            "--metrics-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"metrics: wrote prometheus to {out_path}" in out
        text = out_path.read_text()
        assert "# TYPE countsketch_updates_total counter" in text
        assert "countsketch_updates_total 62" in text

    def test_explicit_format_overrides_extension(self, stream_file,
                                                 tmp_path, capsys):
        out_path = tmp_path / "metrics.dat"
        assert main([
            "topk", "--input", stream_file, "--k", "2",
            "--metrics-out", str(out_path),
            "--metrics-format", "prometheus",
        ]) == 0
        assert "# TYPE" in out_path.read_text()

    def test_no_flag_means_no_collection(self, stream_file, tmp_path,
                                         capsys):
        from repro.observability import get_registry, NullRegistry

        assert main(["topk", "--input", stream_file, "--k", "2"]) == 0
        assert isinstance(get_registry(), NullRegistry)
        assert list(tmp_path.glob("*.json")) == []
        assert list(tmp_path.glob("*.prom")) == []

    def test_registry_restored_after_run(self, stream_file, tmp_path,
                                         capsys):
        from repro.observability import get_registry, NullRegistry

        assert main([
            "topk", "--input", stream_file, "--k", "2",
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert isinstance(get_registry(), NullRegistry)


class TestExperimentDispatch:
    def test_runs_cheap_experiment(self, capsys, monkeypatch):
        # Patch the experiment's default config for a fast run.
        from repro.experiments import sampling_space

        small = sampling_space.SamplingSpaceConfig(
            m=500, n=5_000, zs=(1.0,), sampler_seeds=(0,)
        )
        monkeypatch.setattr(
            sampling_space, "SamplingSpaceConfig", lambda: small
        )
        assert main(["experiment", "sampling_space"]) == 0
        out = capsys.readouterr().out
        assert "SAMPLING distinct items" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "not_a_module"])
