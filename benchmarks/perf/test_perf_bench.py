"""The benchmark's own tests: smoke-sized runs and the correctness gate.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys

import common
import des
import live
import pytest
import run

SEED = 5


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, spec):
    report = run.run_one(workload, SEED, 2.0, trace, common.SMOKE, None)
    line = run.result_line(report, trace, spec)
    assert line["correct"], report["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_gate_trips_on_tampered_reference():
    size = common.SMOKE
    prints = des.fingerprints("paper-replay", SEED, size)
    reference = {"seed": SEED, "slice_ms": size.slice_ms,
                 "fingerprints": {"paper-replay": prints}}
    clean = des.run("paper-replay", SEED, 0.0, size, reference)
    assert clean["failed"] == 0 and not clean["failures"]

    key = sorted(prints)[0]
    prints[key] = "0" * 64
    tampered = des.run("paper-replay", SEED, 0.0, size, reference)
    assert tampered["failed"] == 1
    assert any("!= reference" in f for f in tampered["failures"])

    del prints[key]
    missing = des.run("paper-replay", SEED, 0.0, size, reference)
    assert missing["failed"] == 1
    assert any("no reference" in f for f in missing["failures"])


def test_reference_applies_only_to_its_seed():
    reference = {"seed": SEED + 1, "slice_ms": common.SMOKE.slice_ms,
                 "fingerprints": {"paper-replay": {"0/QUTS": "0" * 64}}}
    report = des.run("paper-replay", SEED, 0.0, common.SMOKE, reference)
    assert report["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "paper-replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_server_stops_when_started_with_sigint_ignored():
    # Shells start background jobs with SIGINT ignored; the server must
    # still get (and honour) its stop signal.
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        server = live.Server(run.ROOT, SEED, None)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert server.stop() == 0


def test_traced_live_run_makes_its_output_directory(tmp_path):
    dump = tmp_path / "not-yet" / "spans.json"
    report = live.run_traced(run.ROOT, SEED, 2.0, common.SMOKE, dump)
    assert report["failed"] == 0 and not report["failures"]
    assert dump.is_file()
