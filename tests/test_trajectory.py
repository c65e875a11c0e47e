"""The perf trajectory appender (benchmarks/trajectory.py)."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _report(workload, value):
    return {
        "workload": workload, "seed": 1, "seconds": 30.0, "trace": False,
        "host": {"cpu_count": 2, "python": "3.11", "git_sha": "abc123"},
        "failures": [], "notes": {"rounds": 3}, "correct": True,
        "attempted": 12, "failed": 0,
        "metrics": {"replay_txn_per_s": {"value": value, "unit": "1/s"}},
    }


def test_appends_one_line_per_report_and_never_twice(tmp_path):
    reports = tmp_path / ".bench_out"
    reports.mkdir()
    for workload, value in (("paper-replay", 100.0), ("shard-skew", 50.0)):
        (reports / f"{workload}-trace0.json").write_text(
            json.dumps(_report(workload, value)))
    # A traced report is not an end-to-end run and is not appended.
    (reports / "paper-replay-trace1.json").write_text("{}")
    out = tmp_path / "trajectory.jsonl"

    assert trajectory.append(tmp_path, "parent", out) == 2
    assert trajectory.append(tmp_path, "parent", out) == 0
    assert trajectory.append(tmp_path, "change", out) == 2

    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["workload"], e["label"]) for e in lines] == [
        ("paper-replay", "parent"), ("shard-skew", "parent"),
        ("paper-replay", "change"), ("shard-skew", "change")]
    first = lines[0]
    assert first["git_sha"] == "abc123"
    assert "git_sha" not in first["host"]
    assert first["metrics"] == {"replay_txn_per_s": 100.0}
