"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload detect-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run generates its inputs from
``--seed`` (the self-built corpus, written as ELF files), measures the
workload for ``--seconds``, checks every output, and prints the metrics.
The last stdout line is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is the run
record, which also carries the informational numbers (``ref_ms``, raw
latencies and throughput, exact counts, every check).

Workloads, metrics and the reasoning behind them are in
``perfbench/README.md``.  All scratch files live in ``.perfbench-work/``
under the repository root and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus
import layers
import refkernel
import workloads

WORKLOADS = ("detect-cold", "serve-cold", "serve-warm", "compare-tools")
#: corpus scale and binary cap per ``--size``; ``tiny`` is for the smoke test
SIZES = {"full": (0.35, None), "tiny": (0.1, 8)}
#: fresh-process set-ups per run; ``setup_s`` is the median of their
#: host-speed-rescaled seconds
SETUPS = 7


def _setup_seconds(workload: str, binary: corpus.Binary) -> list[tuple[float, float]]:
    """(wall seconds, seconds rescaled by :func:`refkernel.host_seconds`) per set-up."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUPS):
        output = subprocess.run(
            [sys.executable, str(probe), workload, binary.path, binary.opt_level],
            check=True,
            capture_output=True,
            text=True,
            env=corpus.child_env(),
        ).stdout
        wall_s, pass_ms = map(float, output.split()[-2:])
        times.append((wall_s, refkernel.host_seconds(wall_s, pass_ms, refkernel.COMPUTE_REF_MS)))
    return times


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0] if ordered else 0.0
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(fraction * 100) - 1]


def _throughput_per_s(outcome: workloads.Outcome) -> float:
    seconds = sum(block[3] for block in outcome.blocks)
    return outcome.results / seconds if seconds else 0.0


def end_to_end(
    outcome: workloads.Outcome, setups: list[tuple[float, float]]
) -> dict[str, tuple[float, str]]:
    latencies, ref_time = outcome.normalised()
    return {
        "setup_s": (statistics.median(rescaled for _, rescaled in setups), "s"),
        "latency_p50_ref": (_percentile(latencies, 0.5), "ref"),
        "latency_p90_ref": (_percentile(latencies, 0.9), "ref"),
        "throughput_per_ref": (outcome.results / ref_time if ref_time else 0.0, "1/ref"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
    }


def per_layer(outcome: workloads.Outcome) -> dict[str, tuple[float, str]]:
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    metrics.update(layers.layer_metrics(outcome.snapshot, outcome.traced_results))
    metrics.update(outcome.layer_extra)
    metrics["x86.raw_decodes"] = outcome.raw_decodes
    metrics["false_positives"] = outcome.false_positives
    metrics["false_negatives"] = outcome.false_negatives
    metrics["failed_ratio"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    traced_s = sum(outcome.traced_ms) / 1e3
    if traced_s:
        attributed = layers.attributed_seconds(outcome.snapshot)
        metrics["trace.unattributed_ratio"] = max(0.0, 1.0 - attributed / traced_s)
    if outcome.traced_ms and outcome.latencies_ms:
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(outcome.traced_ms) / statistics.fmean(outcome.latencies_ms) - 1.0
        )
    return {name: (value, layers.PER_LAYER[name][0]) for name, value in metrics.items()}


def run(
    args: argparse.Namespace, work: Path
) -> tuple[workloads.Outcome, list[tuple[float, float]]]:
    scale, limit = SIZES[args.size]
    binaries = corpus.build(args.seed, scale, work / "corpus", limit)
    if args.workload.startswith("serve-"):
        return workloads.serve(
            binaries,
            args.seconds,
            args.seed,
            bool(args.trace),
            warm=args.workload == "serve-warm",
            work=work,
        )
    setups = _setup_seconds(args.workload, binaries[0])
    tracer = layers.Tracer() if args.trace else None
    measure = workloads.detect_cold if args.workload == "detect-cold" else workloads.compare_tools
    return measure(binaries, args.seconds, args.seed, tracer), setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    if not (corpus.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {corpus.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(corpus.ROOT / "src"))

    scratch = corpus.ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome, setups = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = outcome.failed == 0 and all(outcome.checks.values())
    metrics = per_layer(outcome) if args.trace else end_to_end(outcome, setups)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:32} {value:14.6g} {unit}")
    for name, passed in outcome.checks.items():
        print(f"{args.workload:14} check {name:26} {'ok' if passed else 'FAILED'}")
    lat = outcome.latencies_ms
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ref_ms": statistics.median(outcome.ref_ms),
        "ref_samples": len(outcome.ref_ms),
        "latency_p50_ms": _percentile(lat, 0.5),
        "latency_p90_ms": _percentile(lat, 0.9),
        "latency_samples": len(lat),
        "throughput_per_s": _throughput_per_s(outcome),
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_rescaled_s": [rescaled for _, rescaled in setups],
        "false_positives": outcome.false_positives,
        "false_negatives": outcome.false_negatives,
        "x86.raw_decodes": outcome.raw_decodes,
        "checks": outcome.checks,
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
