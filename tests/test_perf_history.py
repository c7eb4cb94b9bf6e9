"""The perf-history tracker and the perf-check baseline delta table."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

import perf_check  # noqa: E402
import perf_history  # noqa: E402
from perf_snapshot import snapshot_meta  # noqa: E402

pytestmark = pytest.mark.telemetry


def snapshot(sha="abc123def456", wall=0.1, timestamp=100.0):
    return {
        "schema": 1,
        "repeats": 3,
        "meta": {"git_sha": sha, "timestamp_unix": timestamp},
        "entries": {"passwd_pipeline_cold": {"wall_seconds": wall}},
        "speedups": {"warm_vs_cold": 2.0},
    }


class TestSnapshotMeta:
    def test_injected_timestamp_and_provenance_fields(self):
        meta = snapshot_meta(1234.5)
        assert meta["timestamp_unix"] == 1234.5
        assert meta["git_sha"]  # a sha in a repo, "unknown" outside one
        assert set(meta["host"]) == {"platform", "machine", "python", "cpu_count"}


class TestHistory:
    def test_append_then_load_round_trips(self, tmp_path):
        snap = tmp_path / "BENCH_rosa.json"
        history = tmp_path / "BENCH_history.jsonl"
        snap.write_text(json.dumps(snapshot()))
        record = perf_history.append_snapshot(
            snapshot_path=str(snap), history_path=str(history), timestamp=999.0
        )
        assert record["git_sha"] == "abc123def456"
        assert record["timestamp_unix"] == 100.0  # snapshot meta wins
        assert record["entries"] == {"passwd_pipeline_cold": 0.1}
        loaded = perf_history.load_history(str(history))
        assert loaded == [record]

    def test_missing_snapshot_fails_with_guidance(self, tmp_path):
        with pytest.raises(SystemExit, match="run `make bench-json` first"):
            perf_history.append_snapshot(
                snapshot_path=str(tmp_path / "nope.json"),
                history_path=str(tmp_path / "h.jsonl"),
                timestamp=0.0,
            )

    def test_corrupt_history_names_the_line(self, tmp_path):
        history = tmp_path / "h.jsonl"
        history.write_text('{"ok": 1}\n{broken\n')
        with pytest.raises(ValueError, match=r"h\.jsonl:2"):
            perf_history.load_history(str(history))

    def test_missing_history_is_empty(self, tmp_path):
        assert perf_history.load_history(str(tmp_path / "absent.jsonl")) == []


class TestTrajectory:
    def records(self, *walls):
        return [
            perf_history.record_from_snapshot(
                snapshot(sha=f"sha{i}", wall=wall), timestamp=float(i)
            )
            for i, wall in enumerate(walls)
        ]

    def test_regression_flagged_beyond_ratio_and_floor(self):
        table = perf_history.render_trajectory(self.records(0.1, 0.3))
        assert "REGRESSED 3.0x" in table

    def test_subfloor_noise_never_flagged(self):
        table = perf_history.render_trajectory(self.records(0.010, 0.030))
        assert "REGRESSED" not in table  # 20 ms delta is under the floor

    def test_improvement_noted(self):
        table = perf_history.render_trajectory(self.records(0.3, 0.1))
        assert "improved 3.0x" in table

    def test_empty_history_renders_guidance(self):
        assert "no history" in perf_history.render_trajectory([])


class TestBaselineDeltas:
    def test_missing_baseline_fails_with_guidance(self, tmp_path, capsys):
        rc = perf_check.baseline_deltas(
            {"passwd_pipeline_cold": 0.1},
            baseline_path=str(tmp_path / "absent.json"),
        )
        assert rc == 1
        assert "run `make bench-json`" in capsys.readouterr().err

    def test_missing_entry_fails_and_names_it(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_rosa.json"
        baseline.write_text(json.dumps(snapshot()))
        rc = perf_check.baseline_deltas(
            {"passwd_pipeline_cold": 0.1, "passwd_pipeline_warm": 0.1},
            baseline_path=str(baseline),
        )
        assert rc == 1
        assert "passwd_pipeline_warm" in capsys.readouterr().err

    def test_present_entries_print_ratios_and_pass(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_rosa.json"
        baseline.write_text(json.dumps(snapshot(wall=0.1)))
        rc = perf_check.baseline_deltas(
            {"passwd_pipeline_cold": 0.2}, baseline_path=str(baseline)
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2.00x" in out
        assert "abc123def456" in out

    def test_corrupt_baseline_fails_readably(self, tmp_path, capsys):
        baseline = tmp_path / "bad.json"
        baseline.write_text("{nope")
        rc = perf_check.baseline_deltas({"x": 0.1}, baseline_path=str(baseline))
        assert rc == 1
        assert "unreadable baseline" in capsys.readouterr().err


class TestVmHistoryGate:
    def history(self, tmp_path, *walls):
        history = tmp_path / "BENCH_history.jsonl"
        snap = tmp_path / "BENCH_rosa.json"
        for wall in walls:
            snap.write_text(json.dumps(snapshot(wall=wall)))
            perf_history.append_snapshot(
                snapshot_path=str(snap), history_path=str(history), timestamp=1.0
            )
        return str(history)

    def test_within_ratio_passes_against_latest_record(self, tmp_path, capsys):
        # 0.14 s is a regression against the first record, not the latest.
        history = self.history(tmp_path, 0.05, 0.1)
        assert perf_check.check_vm_history(0.14, history_path=history) == 0
        assert "1.40x" in capsys.readouterr().out

    def test_beyond_ratio_and_floor_fails(self, tmp_path, capsys):
        history = self.history(tmp_path, 0.1)
        assert perf_check.check_vm_history(0.2, history_path=history) == 1
        assert "regressed" in capsys.readouterr().err

    def test_missing_history_fails_with_guidance(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        assert perf_check.check_vm_history(0.1, history_path=missing) == 1
        assert "make perf-history" in capsys.readouterr().err
