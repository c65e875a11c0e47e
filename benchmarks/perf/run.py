"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/perf/run.py                      # all workloads
    python3 benchmarks/perf/run.py --workload paper-replay --seed 2 \\
        --seconds 20 --trace 0                          # one workload
    python3 benchmarks/perf/run.py --workload shard-skew --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with span wrappers on the program's public layer
functions and reports the per-layer metrics (plus the per-operation
probes).  ``BENCHMARK.json`` at the repository root names every metric
and its unit; README.md next to this file defines them and records
which layer metric should move which end-to-end metric on which
workload.

Every run checks its outputs (conservation, fingerprints, one reply
per request).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed.  A single workload runs in this process,
so its peak RSS is its own; ``--workload all`` runs each workload in a
fresh child process.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys
import typing

import common

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Where runs leave span files and full reports (ignored by git).
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DES_WORKLOADS = ("paper-replay", "shard-skew", "observed-replay")
WORKLOADS = (*DES_WORKLOADS, "live-gateway")


def load_spec() -> dict[str, typing.Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict[str, typing.Any] | None:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else None


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            size: common.Size,
            reference: dict[str, typing.Any] | None) -> dict[str, typing.Any]:
    """Run one workload in this process; returns the full report."""
    import des
    import live
    import micro
    import tracing

    if workload == "live-gateway":
        if trace:
            report = live.run_traced(ROOT, seed, seconds, size,
                                     OUT / f"spans-{workload}-server.json")
        else:
            report = live.run(ROOT, seed, seconds, size)
    elif trace:
        recorder = tracing.SpanRecorder()
        report = des.run_traced(workload, seed, size, reference, recorder)
        report["metrics"].update(live.des_serve_metrics())
        recorder.write_spans(OUT / f"spans-{workload}.jsonl")
    else:
        report = des.run(workload, seed, seconds, size, reference)
    if trace:
        report["metrics"].update(micro.probes(seed))
    return report


def result_line(report: dict[str, typing.Any], trace: bool,
                spec: dict[str, typing.Any]) -> dict[str, typing.Any]:
    """The contract's last line; raises if a metric is missing or extra."""
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = report["metrics"]
    if set(got) != set(wanted):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"missing {sorted(set(wanted) - set(got))}, "
                           f"extra {sorted(set(got) - set(wanted))}")
    bad = [name for name, value in got.items()
           if not isinstance(value, (int, float)) or not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metric values: {bad}")
    return {"correct": report["failed"] == 0 and not report["failures"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {name: {"value": got[name], "unit": wanted[name]}
                        for name in wanted}}


def _table(line: dict[str, typing.Any]) -> str:
    return "\n".join(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}"
                     for name, entry in line["metrics"].items())


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, so peaks do not carry."""
    summary: dict[str, typing.Any] = {}
    ok = True
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(child.stderr)
            print(f"{workload}: no result (exit {child.returncode})")
            ok = False
            continue
        ok = ok and child.returncode == 0 and line["correct"]
        summary[workload] = line
        print(f"{workload}: correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
        print(_table(line))
    print(json.dumps({"correct": ok,
                      "attempted": sum(s["attempted"]
                                       for s in summary.values()),
                      "failed": sum(s["failed"] for s in summary.values()),
                      "workloads": summary}))
    return 0 if ok else 1


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED,
                        help="workload seed (default: the seed the "
                             "reference fingerprints were taken with)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-take the DES fingerprints for the "
                             "default seed into reference.json and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro sources or BENCHMARK.json; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.write_reference:
        import des
        REFERENCE.write_text(json.dumps({
            "seed": common.DEFAULT_SEED,
            "slice_ms": common.FULL.slice_ms,
            "fingerprints": {name: des.fingerprints(name, common.DEFAULT_SEED,
                                                    common.FULL)
                             for name in DES_WORKLOADS}}, indent=2) + "\n")
        return 0
    if args.workload == "all":
        return _run_all(args)

    trace = bool(args.trace)
    report = run_one(args.workload, args.seed, args.seconds, trace,
                     common.FULL, load_reference())
    line = result_line(report, trace, spec)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": trace,
              "host": common.host_metadata(str(ROOT)),
              "failures": report["failures"], "notes": report["notes"],
              **line}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"host: {json.dumps(record['host'])}")
    print(f"notes: {json.dumps(report['notes'])}")
    print(_table(line))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
