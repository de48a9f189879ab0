#!/usr/bin/env python3
"""Record the repository benchmark for one checkout: ``BENCH_perfbench.json``.

Usage::

    python tools/perf_record.py [--repo DIR] [--out FILE] [--seeds 101,102,103]
        [--seconds S] [--workload NAME ...]

Runs every workload ``BENCHMARK.json`` declares through its unchanged
command (``perfbench/run.py``), in the checkout ``--repo`` (default: this
one): once untraced per seed, then once traced at the first seed.  Each run
lasts the benchmark's ``run_seconds`` unless ``--seconds`` overrides it (a
quick shape check only: records of different run lengths do not compare).
The record holds the checkout's commit, the median and interquartile range
over seeds of each end-to-end metric, the traced run's per-layer values, and
the operation counts.  ``tools/bench_diff.py OLD NEW`` compares two such
records.

Measure checkouts without ``__pycache__`` under ``src`` (fresh clones, as
the benchmark uses): set-up includes importing the package, and a bytecode
cache left in one checkout only shortens its ``setup_s``.  The script warns
when it finds one.

Runs are sequential; at 20 s runs a record takes about seven minutes on a
2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit(repo: Path) -> str:
    """``HEAD``'s hash, suffixed ``-dirty`` when tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True
        ).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _run(repo: Path, command: list[str], workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    """The result line of one benchmark run."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    print(f"  {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
    output = subprocess.run(
        [*command, *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(output.splitlines()[-1])


def _spread(values: list[float]) -> dict[str, object]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def record_workload(repo: Path, command: list[str], workload: str, seeds: list[int],
                    seconds: float) -> dict:
    untraced = [_run(repo, command, workload, seed, seconds, 0) for seed in seeds]
    traced = _run(repo, command, workload, seeds[0], seconds, 1)
    runs = [*untraced, traced]
    return {
        "end_to_end": {
            name: {
                "unit": untraced[0]["metrics"][name]["unit"],
                **_spread([result["metrics"][name]["value"] for result in untraced]),
            }
            for name in untraced[0]["metrics"]
        },
        "layers": {name: metric["value"] for name, metric in traced["metrics"].items()},
        "attempted": sum(result["attempted"] for result in runs),
        "failed": sum(result["failed"] for result in runs),
        "correct": all(result["correct"] for result in runs),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    parser.add_argument("--seeds", default="101,102,103",
                        help="comma-separated seeds of the untraced runs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: the benchmark's run_seconds)")
    parser.add_argument("--workload", action="append", default=None,
                        help="measure only this workload (repeatable)")
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    benchmark = json.loads((repo / "BENCHMARK.json").read_text())
    seeds = [int(seed) for seed in args.seeds.split(",")]
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or [workload["name"] for workload in benchmark["workloads"]]
    record = {
        "bench": "perfbench",
        "commit": _commit(repo),
        "created_unix": round(time.time(), 3),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    if next((repo / "src").rglob("__pycache__"), None):
        print(f"warning: {repo / 'src'} holds __pycache__; setup_s will read low",
              file=sys.stderr)
    for name in names:
        record["workloads"][name] = record_workload(
            repo, benchmark["command"], name, seeds, seconds
        )
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
