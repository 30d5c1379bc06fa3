"""Nightly benchmark-regression checker: seeding, comparison, exit codes."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "benchmarks" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def _bench_json(path: Path, medians: dict) -> Path:
    # The mean is set far from the median: the checker must read the median.
    path.write_text(json.dumps({
        "benchmarks": [
            {"fullname": name, "stats": {"median": median, "mean": 10 * median + 1}}
            for name, median in medians.items()
        ]
    }))
    return path


class TestLoadAndCompare:
    def test_load_extracts_medians(self, tmp_path):
        path = _bench_json(tmp_path / "run.json", {"a": 1.0, "b": 0.25})
        assert checker.load_benchmarks(path) == {"a": 1.0, "b": 0.25}

    def test_load_skips_malformed_entries(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"benchmarks": [
            {"fullname": "ok", "stats": {"median": 1.0}},
            {"fullname": "no-stats"},
            {"stats": {"median": 2.0}},  # no name
            {"fullname": "zero", "stats": {"median": 0.0}},
            {"fullname": "mean-only", "stats": {"mean": 1.0}},
        ]}))
        assert checker.load_benchmarks(path) == {"ok": 1.0}

    def test_one_slow_round_moving_the_mean_does_not_fail(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        baseline.write_text(json.dumps({"benchmarks": [
            {"fullname": "a", "stats": {"median": 1.0, "mean": 1.0}}]}))
        current.write_text(json.dumps({"benchmarks": [
            {"fullname": "a", "stats": {"median": 1.05, "mean": 2.0}}]}))
        assert checker.main([str(baseline), str(current)]) == 0

    def test_compare_flags_only_past_threshold(self):
        baseline = {"fast": 1.0, "slow": 1.0, "gone": 1.0}
        current = {"fast": 1.15, "slow": 1.35, "new": 9.0}
        regressions, lines = checker.compare(baseline, current, threshold=0.20)
        assert regressions == ["slow"]
        text = "\n".join(lines)
        assert "! slow" in text
        assert "+ new" in text and "- gone" in text

    def test_improvements_never_fail(self):
        regressions, _ = checker.compare({"a": 2.0}, {"a": 0.5}, threshold=0.20)
        assert regressions == []


class TestMainExitCodes:
    def test_missing_baseline_seeds_and_passes(self, tmp_path, capsys):
        current = _bench_json(tmp_path / "current.json", {"a": 1.0})
        baseline = tmp_path / "baseline.json"
        assert checker.main([str(baseline), str(current)]) == 0
        assert "seeded baseline" in capsys.readouterr().out
        assert checker.load_benchmarks(baseline) == {"a": 1.0}

    def test_regression_fails_job(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "baseline.json", {"a": 1.0})
        current = _bench_json(tmp_path / "current.json", {"a": 1.5})
        assert checker.main([str(baseline), str(current)]) == 1
        assert "FAILED" in capsys.readouterr().out
        # The failing run must not overwrite the baseline.
        assert checker.load_benchmarks(baseline) == {"a": 1.0}

    def test_pass_within_threshold_and_update(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "baseline.json", {"a": 1.0})
        current = _bench_json(tmp_path / "current.json", {"a": 1.1})
        assert checker.main([str(baseline), str(current)]) == 0
        assert checker.load_benchmarks(baseline) == {"a": 1.0}  # no --update
        assert checker.main([str(baseline), str(current), "--update"]) == 0
        assert checker.load_benchmarks(baseline) == {"a": 1.1}

    def test_custom_threshold(self, tmp_path):
        baseline = _bench_json(tmp_path / "baseline.json", {"a": 1.0})
        current = _bench_json(tmp_path / "current.json", {"a": 1.3})
        assert checker.main([str(baseline), str(current)]) == 1
        assert checker.main(
            [str(baseline), str(current), "--threshold", "0.5"]
        ) == 0

    def test_empty_current_run_fails(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "baseline.json", {"a": 1.0})
        current = _bench_json(tmp_path / "current.json", {})
        assert checker.main([str(baseline), str(current)]) == 1
        assert "nothing to check" in capsys.readouterr().out


def test_nightly_never_rebaselines():
    # Re-baselining after every passing night lets repeated sub-threshold
    # slowdowns compound; the baseline moves only by hand.
    text = (_ROOT / ".github" / "workflows" / "nightly.yml").read_text()
    steps = "\n".join(
        line for line in text.splitlines() if not line.strip().startswith("#")
    )
    assert "check_bench_regression.py" in steps
    assert "--update" not in steps
    assert "git push" not in steps
