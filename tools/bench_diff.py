#!/usr/bin/env python3
"""Compare two benchmark records of the same kind.

Usage::

    python tools/bench_diff.py OLD.json NEW.json [--max-regression PCT]
        [--expect-change COUNT ...]

For ``BENCH_cold_latency.json`` records it prints a per-binary table of cold
latency (in machine-calibrated units, the cross-host comparable measure),
raw decode counts and decoder-sweep throughput, with the relative change
between the two records.  With ``--max-regression`` the exit status is
non-zero when any binary's ``cold_units`` regressed by more than PCT
percent — the CI smoke mode that diffs a freshly measured record against the
committed one.

For ``BENCH_perfbench.json`` records (``tools/perf_record.py``) it prints,
per workload, each end-to-end metric's median and interquartile range with
its change, the failed share of operations, and every traced per-layer
value with its change.  The exit status is non-zero when an end-to-end
median got worse by more than its bound in this checkout's
``BENCHMARK.json``, a larger share of operations failed, the new record's
output checks failed where the old one's passed, the new record lacks a
workload of the old one, or the two were taken at different run lengths.
It is also non-zero when a traced count that is exact per seed
(:data:`EXACT_COUNTS`) differs, unless ``--expect-change`` names it: those
counts move only when the program's behaviour does, so a change must be
declared.  Both records must then be traced at the same seed, as
``tools/perf_record.py`` does by default.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
KINDS = {"cold_latency": "binaries", "perfbench": "workloads"}
#: traced perfbench layers that repeat exactly at one seed
EXACT_COUNTS = ("x86.raw_decodes", "service.detector_runs", "false_positives", "false_negatives")


def _load(path: str) -> dict:
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    if KINDS.get(record.get("bench")) not in record:
        raise SystemExit(f"error: {path} is not a {' or '.join(KINDS)} bench record")
    return record


def _change(old: float, new: float) -> str:
    if not old:
        return "-"
    delta = (new - old) / old * 100.0
    return f"{delta:+.1f}%"


def diff_records(old: dict, new: dict) -> tuple[str, list[tuple[str, float]]]:
    """Render the comparison; returns ``(report, per-binary unit changes)``."""
    lines = [
        f"{'binary':<30} {'old units':>10} {'new units':>10} {'change':>8} "
        f"{'old dec':>8} {'new dec':>8}",
        "-" * 78,
    ]
    regressions: list[tuple[str, float]] = []
    names = [n for n in old["binaries"] if n in new["binaries"]]
    for name in names:
        o, n = old["binaries"][name], new["binaries"][name]
        lines.append(
            f"{name:<30} {o['cold_units']:>10.3f} {n['cold_units']:>10.3f} "
            f"{_change(o['cold_units'], n['cold_units']):>8} "
            f"{o['raw_decodes']:>8} {n['raw_decodes']:>8}"
        )
        if o["cold_units"]:
            regressions.append(
                (name, (n["cold_units"] - o["cold_units"]) / o["cold_units"])
            )
    only_old = sorted(set(old["binaries"]) - set(new["binaries"]))
    only_new = sorted(set(new["binaries"]) - set(old["binaries"]))
    if only_old:
        lines.append(f"only in old record: {', '.join(only_old)}")
    if only_new:
        lines.append(f"only in new record: {', '.join(only_new)}")

    od, nd = old.get("decoder"), new.get("decoder")
    if od and nd:
        lines.append(
            f"{'decoder sweep (M insn/s)':<30} {od['minsn_per_second']:>10.3f} "
            f"{nd['minsn_per_second']:>10.3f} "
            f"{_change(od['minsn_per_second'], nd['minsn_per_second']):>8}"
        )
    return "\n".join(lines), regressions


def _worse(old: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``old``, positive when worse."""
    if not old:
        return 0.0
    delta = (new - old) / abs(old)
    return -delta if better == "higher" else delta


def diff_perf_records(
    old: dict, new: dict, end_to_end: list[dict], expect_change: Iterable[str] = ()
) -> tuple[str, list[str]]:
    """Render the comparison; returns ``(report, regressions)``.  A change
    in an :data:`EXACT_COUNTS` layer is a regression unless ``expect_change``
    names it."""
    lines = [f"commit {old['commit']} -> {new['commit']}"]
    regressions: list[str] = []
    if old.get("seconds") != new.get("seconds"):
        regressions.append(f"run length {old.get('seconds')} s -> {new.get('seconds')} s")
    for workload in old["workloads"]:
        if workload not in new["workloads"]:
            regressions.append(f"{workload}: missing from the new record")
            continue
        o, n = old["workloads"][workload], new["workloads"][workload]
        lines += [
            "",
            f"== {workload}",
            f"{'end-to-end metric':<32} {'old median':>11} {'new median':>11} "
            f"{'change':>8} {'old IQR':>9} {'new IQR':>9} {'bound':>6}",
        ]
        for spec in end_to_end:
            name = spec["name"]
            if name not in o["end_to_end"] or name not in n["end_to_end"]:
                continue
            om, nm = o["end_to_end"][name], n["end_to_end"][name]
            worse = _worse(om["median"], nm["median"], spec["better"])
            flag = " REGRESSION" if worse > spec["bound"] else ""
            lines.append(
                f"{name:<32} {om['median']:>11.4g} {nm['median']:>11.4g} "
                f"{_change(om['median'], nm['median']):>8} {om['iqr']:>9.3g} "
                f"{nm['iqr']:>9.3g} {spec['bound']:>6.2f}{flag}"
            )
            if flag:
                regressions.append(
                    f"{workload} {name}: {worse * 100:+.1f}% worse (bound {spec['bound']:.0%})"
                )
        old_share = o["failed"] / o["attempted"] if o["attempted"] else 1.0
        new_share = n["failed"] / n["attempted"] if n["attempted"] else 1.0
        lines.append(f"{'failed share':<32} {old_share:>11.4g} {new_share:>11.4g}")
        if new_share > old_share:
            regressions.append(f"{workload}: failed share {old_share:.4g} -> {new_share:.4g}")
        lines.append(f"{'output checks pass':<32} {o['correct']!s:>11} {n['correct']!s:>11}")
        if o["correct"] and not n["correct"]:
            regressions.append(f"{workload}: output checks failed")
        lines.append(f"{'traced layer':<32} {'old':>11} {'new':>11} {'change':>8}")
        for name in sorted(set(o["layers"]) | set(n["layers"])):
            ov, nv = o["layers"].get(name, 0.0), n["layers"].get(name, 0.0)
            if ov or nv:
                lines.append(f"{name:<32} {ov:>11.4g} {nv:>11.4g} {_change(ov, nv):>8}")
        for name in EXACT_COUNTS:
            ov, nv = o["layers"].get(name), n["layers"].get(name)
            if ov != nv and name not in expect_change:
                regressions.append(
                    f"{workload} {name}: {ov} -> {nv}, an exact count "
                    f"(--expect-change {name} declares it)"
                )
    return "\n".join(lines), regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline record")
    parser.add_argument("new", help="candidate record of the same kind")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if any binary's cold_units grew by more than "
             "PCT percent (cold_latency records)",
    )
    parser.add_argument(
        "--expect-change",
        action="append",
        default=[],
        choices=EXACT_COUNTS,
        metavar="COUNT",
        help="declare a change in this exact count (perfbench records; repeatable)",
    )
    args = parser.parse_args(argv)

    old, new = _load(args.old), _load(args.new)
    if old["bench"] != new["bench"]:
        raise SystemExit(f"error: cannot compare a {old['bench']} with a {new['bench']} record")
    if old["bench"] == "perfbench":
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        report, failures = diff_perf_records(old, new, end_to_end, args.expect_change)
        print(report)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0

    report, regressions = diff_records(old, new)
    print(report)

    if args.max_regression is not None:
        limit = args.max_regression / 100.0
        failing = [(n, d) for n, d in regressions if d > limit]
        if failing:
            for name, delta in failing:
                print(
                    f"REGRESSION: {name} cold_units {delta * 100:+.1f}% "
                    f"(limit {args.max_regression:+.1f}%)",
                    file=sys.stderr,
                )
            return 1
        print(f"ok: no binary regressed beyond {args.max_regression:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
