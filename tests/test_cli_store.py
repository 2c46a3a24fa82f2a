"""CLI tests for the persistence surface.

Covers ``--save-state`` / ``--checkpoint-every`` / ``--resume`` on
``topk`` and ``estimate``, snapshot-only queries (``estimate
--sketch``), and the ``repro store`` subcommands (``inspect`` /
``merge`` / ``diff``).
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.countsketch import CountSketch
from repro.core.topk import TopKTracker
from repro.store import SketchArchive, load, load_with_meta, save
from repro.streams.io import DEFAULT_CHUNK_SIZE, write_stream_text
from repro.streams.zipf import ZipfStreamGenerator

ITEMS = ["apple"] * 30 + ["banana"] * 20 + ["cherry"] * 10 + ["date"] * 2


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.txt"
    write_stream_text(path, ITEMS)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSaveState:
    def test_topk_save_then_query_snapshot(self, stream_file, tmp_path,
                                           capsys):
        snap = str(tmp_path / "day.rcs")
        code, out, __ = run(
            ["topk", "--input", stream_file, "--save-state", snap], capsys
        )
        assert code == 0
        assert "state: snapshot" in out
        assert isinstance(load(snap), TopKTracker)

        code, out, __ = run(
            ["estimate", "--sketch", snap, "apple", "missing"], capsys
        )
        assert code == 0
        assert "apple" in out and "30" in out

    def test_estimate_save_state_writes_dense_sketch(self, stream_file,
                                                     tmp_path, capsys):
        snap = str(tmp_path / "est.rcs")
        code, __, __ = run(
            ["estimate", "--input", stream_file, "--save-state", snap,
             "apple"],
            capsys,
        )
        assert code == 0
        assert isinstance(load(snap), CountSketch)

    def test_checkpoint_every_reports_snapshots(self, stream_file, tmp_path,
                                                capsys):
        snap = str(tmp_path / "day.rcs")
        code, out, __ = run(
            ["topk", "--input", stream_file, "--save-state", snap,
             "--checkpoint-every", "10"],
            capsys,
        )
        assert code == 0
        assert "snapshot(s)" in out


class TestResume:
    def test_interrupted_topk_resume_matches_uninterrupted(self, tmp_path,
                                                           capsys):
        full = tmp_path / "full.txt"
        write_stream_text(full, ITEMS)
        head = tmp_path / "head.txt"
        write_stream_text(head, ITEMS[:40])
        snap = str(tmp_path / "ckpt.rcs")

        __, reference, __ = run(
            ["topk", "--input", str(full), "--k", "3"], capsys
        )

        # The "killed" run only saw a prefix; its last checkpoint covers
        # a multiple of 10 items.
        code, __, __ = run(
            ["topk", "--input", str(head), "--k", "3",
             "--save-state", snap, "--checkpoint-every", "10"],
            capsys,
        )
        assert code == 0

        code, resumed, __ = run(
            ["topk", "--input", str(full), "--k", "3", "--resume", snap,
             "--save-state", snap],
            capsys,
        )
        assert code == 0
        table = [
            line for line in reference.splitlines()
            if "apple" in line or "banana" in line or "cherry" in line
        ]
        for line in table:
            assert line in resumed

    @pytest.mark.parametrize("command", [
        ["topk", "--k", "5"], ["estimate", "q1", "q2", "q7"],
    ], ids=["topk", "estimate"])
    def test_killed_checkpointed_run_resumes_exactly(self, command,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        every = 5_000  # does not divide the chunk size
        assert DEFAULT_CHUNK_SIZE % every
        ranks = ZipfStreamGenerator(m=400, z=1.0, seed=9).generate(
            4 * DEFAULT_CHUNK_SIZE + 77).items
        stream = tmp_path / "long.txt"
        write_stream_text(stream, [f"q{rank}" for rank in ranks])
        argv = [command[0], "--input", str(stream), "--depth", "3",
                "--width", "128", *command[1:]]
        reference_state = tmp_path / "reference.rcs"
        __, reference, __ = run(
            [*argv, "--save-state", str(reference_state)], capsys)

        class Killed(Exception):
            pass

        kill_at = 3 * DEFAULT_CHUNK_SIZE + 11
        load_stream = cli._load

        def dying_load(path, int_keys):
            for number, item in enumerate(load_stream(path, int_keys)):
                if number == kill_at:
                    raise Killed
                yield item

        state = tmp_path / "state.rcs"
        checkpointed = [*argv, "--save-state", str(state),
                        "--checkpoint-every", str(every)]
        monkeypatch.setattr(cli, "_load", dying_load)
        with pytest.raises(Killed):
            main(checkpointed)
        monkeypatch.undo()
        capsys.readouterr()
        __, meta = load_with_meta(state)
        assert meta["items_consumed"] == kill_at // every * every

        code, resumed, __ = run([*checkpointed, "--resume", str(state)],
                                capsys)
        assert code == 0

        def answer(out):
            return [line for line in out.splitlines()
                    if not line.startswith("state:")]

        assert answer(resumed) == answer(reference)
        assert state.read_bytes() == reference_state.read_bytes()

    def test_resume_with_wrong_snapshot_type_refused(self, stream_file,
                                                     tmp_path, capsys):
        snap = str(tmp_path / "dense.rcs")
        save(CountSketch(5, 512), snap, meta={"items_consumed": 0})
        code, __, err = run(
            ["topk", "--input", stream_file, "--resume", snap], capsys
        )
        assert code == 2
        assert "TopKTracker" in err

    def test_plain_snapshot_resumes_from_zero(self, stream_file, tmp_path,
                                              capsys):
        # A snapshot without checkpoint meta counts as zero-consumed: the
        # whole stream lands on top of it (incremental multi-file ingest).
        snap = str(tmp_path / "plain.rcs")
        prior = CountSketch(5, 512)
        prior.extend(["apple"] * 4)
        save(prior, snap)
        code, out, __ = run(
            ["estimate", "--input", stream_file, "--resume", snap, "apple"],
            capsys,
        )
        assert code == 0
        assert "34" in out  # 4 prior + 30 streamed


class TestFlagValidation:
    def test_checkpoint_every_needs_save_state(self, stream_file, capsys):
        code, __, err = run(
            ["topk", "--input", stream_file, "--checkpoint-every", "5"],
            capsys,
        )
        assert code == 1
        assert "--save-state" in err

    def test_sketch_flag_excludes_stream_flags(self, stream_file, tmp_path,
                                               capsys):
        snap = str(tmp_path / "x.rcs")
        save(CountSketch(3, 16), snap)
        code, __, err = run(
            ["estimate", "--sketch", snap, "--input", stream_file, "apple"],
            capsys,
        )
        assert code == 1
        assert "--sketch" in err

    def test_estimate_needs_some_source(self, capsys):
        code, __, err = run(["estimate", "apple"], capsys)
        assert code == 1
        assert "--input" in err

    def test_missing_snapshot_is_a_clean_error(self, capsys):
        code, __, err = run(
            ["estimate", "--sketch", "does-not-exist.rcs", "apple"], capsys
        )
        assert code == 2
        assert "error:" in err


class TestStoreInspect:
    def test_prints_json_summary(self, tmp_path, capsys):
        snap = str(tmp_path / "s.rcs")
        sketch = CountSketch(3, 16, seed=2)
        sketch.extend(["a", "b"])
        save(sketch, snap, meta={"note": "hello"})
        code, out, __ = run(["store", "inspect", snap], capsys)
        assert code == 0
        assert '"type": "dense"' in out
        assert '"note": "hello"' in out

    def test_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        snap = tmp_path / "bad.rcs"
        snap.write_bytes(b"garbage bytes")
        code, __, err = run(["store", "inspect", str(snap)], capsys)
        assert code == 2
        assert "error:" in err


class TestStoreMerge:
    def _snap(self, tmp_path, name, items, seed=3):
        sketch = CountSketch(3, 32, seed=seed)
        sketch.extend(items)
        path = str(tmp_path / name)
        save(sketch, path)
        return path

    def test_merge_is_exact_by_linearity(self, tmp_path, capsys):
        a = self._snap(tmp_path, "a.rcs", ["x"] * 5)
        b = self._snap(tmp_path, "b.rcs", ["x"] * 7 + ["y"] * 2)
        out_path = str(tmp_path / "merged.rcs")
        code, out, __ = run(
            ["store", "merge", a, b, "--out", out_path], capsys
        )
        assert code == 0
        assert "total_weight=14" in out
        merged = load(out_path)
        assert merged.estimate("x") == 12.0

    def test_needs_two_inputs(self, tmp_path, capsys):
        a = self._snap(tmp_path, "a.rcs", ["x"])
        code, __, err = run(
            ["store", "merge", a, "--out", str(tmp_path / "m.rcs")], capsys
        )
        assert code == 1
        assert "two" in err

    def test_incompatible_seeds_refused(self, tmp_path, capsys):
        a = self._snap(tmp_path, "a.rcs", ["x"], seed=1)
        b = self._snap(tmp_path, "b.rcs", ["x"], seed=2)
        code, __, err = run(
            ["store", "merge", a, b, "--out", str(tmp_path / "m.rcs")],
            capsys,
        )
        assert code == 2

    def test_mixed_types_refused(self, tmp_path, capsys):
        a = self._snap(tmp_path, "a.rcs", ["x"])
        topk_path = str(tmp_path / "t.rcs")
        save(TopKTracker(2, depth=3, width=32), topk_path)
        code, __, err = run(
            ["store", "merge", a, topk_path,
             "--out", str(tmp_path / "m.rcs")],
            capsys,
        )
        assert code == 2
        assert "TopKTracker" in err


class TestStoreDiff:
    def _snap(self, tmp_path, name, items):
        sketch = CountSketch(5, 256, seed=0)
        sketch.extend(items)
        path = str(tmp_path / name)
        save(sketch, path)
        return path

    def test_file_diff_ranks_by_change(self, tmp_path, capsys):
        before = self._snap(tmp_path, "before.rcs", ["up"] * 2 + ["down"] * 9)
        after = self._snap(tmp_path, "after.rcs", ["up"] * 30 + ["down"] * 9)
        code, out, __ = run(
            ["store", "diff", before, after, "--items", "up", "down",
             "--k", "2"],
            capsys,
        )
        assert code == 0
        assert out.index("up") < out.index("down")
        assert "28" in out  # estimated change of "up"

    def test_file_diff_requires_items(self, tmp_path, capsys):
        before = self._snap(tmp_path, "b.rcs", ["x"])
        after = self._snap(tmp_path, "a.rcs", ["x"])
        code, __, err = run(["store", "diff", before, after], capsys)
        assert code == 1
        assert "--items" in err

    def test_incompatible_snapshots_refused(self, tmp_path, capsys):
        before = self._snap(tmp_path, "b.rcs", ["x"])
        other = CountSketch(5, 256, seed=99)
        after = str(tmp_path / "a.rcs")
        save(other, after)
        code, __, err = run(
            ["store", "diff", before, after, "--items", "x"], capsys
        )
        assert code == 2
        assert "hash-compatible" in err

    def test_archive_diff(self, tmp_path, capsys):
        directory = tmp_path / "archive"
        archive = SketchArchive(directory, depth=5, width=256, seed=0)
        archive.append_stream(["calm"] * 50 + ["surge"] * 2)
        archive.append_stream(["calm"] * 50 + ["surge"] * 40)
        code, out, __ = run(
            ["store", "diff", "0", "1", "--archive", str(directory),
             "--k", "1"],
            capsys,
        )
        assert code == 0
        assert "surge" in out
        assert "38" in out

    def test_archive_needs_integer_epochs(self, tmp_path, capsys):
        directory = tmp_path / "archive"
        SketchArchive(directory, depth=5, width=256, seed=0)
        code, __, err = run(
            ["store", "diff", "zero", "one", "--archive", str(directory)],
            capsys,
        )
        assert code == 1
        assert "epoch indices" in err
