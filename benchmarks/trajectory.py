"""Append repo-benchmark reports to the perf trajectory.

    python3 benchmarks/perf/run.py --workload paper-replay --trace 0
    python3 benchmarks/trajectory.py --label after-lock-fast-path

Reads the ``.bench_out/<workload>-trace0.json`` reports that
``benchmarks/perf/run.py`` leaves under a checkout (``--root``, default
this repository) and appends one JSON line per report to
``benchmarks/results/perf_trajectory.jsonl``, keyed by the report's git
sha and host.  The file only grows: each PR's numbers are added next to
the earlier ones instead of overwriting them.  A report whose line is
already in the file is skipped, so rerunning the script is harmless.

``--label`` is free text stored with each line.  It tells apart runs
at the same git sha, e.g. an uncommitted change measured on top of its
parent commit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import typing

HERE = pathlib.Path(__file__).resolve().parent
TRAJECTORY = HERE / "results" / "perf_trajectory.jsonl"
WORKLOADS = ("paper-replay", "shard-skew", "observed-replay",
             "live-gateway")


def entry(report: dict[str, typing.Any], label: str) -> dict[str, typing.Any]:
    """One trajectory line: the report's headline numbers and context."""
    host = dict(report["host"])
    return {
        "git_sha": host.pop("git_sha"),
        "host": host,
        "label": label,
        "workload": report["workload"],
        "seed": report["seed"],
        "seconds": report["seconds"],
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: metric["value"]
                    for name, metric in report["metrics"].items()},
        "notes": report["notes"],
    }


def append(root: pathlib.Path, label: str,
           out: pathlib.Path = TRAJECTORY) -> int:
    """Append every end-to-end report under ``root``; returns how many
    lines were added."""
    seen = (set(out.read_text().splitlines()) if out.exists() else set())
    lines = []
    for workload in WORKLOADS:
        path = root / ".bench_out" / f"{workload}-trace0.json"
        if not path.exists():
            continue
        line = json.dumps(entry(json.loads(path.read_text()), label),
                          sort_keys=True)
        if line not in seen:
            lines.append(line)
    if lines:
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("a") as handle:
            handle.writelines(line + "\n" for line in lines)
    return len(lines)


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=HERE.parent,
                        help="checkout whose .bench_out/ holds the reports "
                             "(default: this repository)")
    parser.add_argument("--label", default="",
                        help="free text stored with each line")
    args = parser.parse_args(argv)
    added = append(args.root, args.label)
    print(f"appended {added} line(s) to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
