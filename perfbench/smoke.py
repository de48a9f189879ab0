"""Smoke test of the benchmark itself (about two minutes).

    python3 perfbench/smoke.py

Runs every workload twice at tiny size (``serve-cold`` too, which
``BENCHMARK.json`` leaves out): once untraced, once traced.  It
asserts that ``BENCHMARK.json`` names exactly the metrics the code emits,
that the untraced run emits every end-to-end metric and the traced run
every per-layer metric, each with its declared unit, that both runs pass
their output checks, and that the exact counts (false positives and
negatives; raw decodes on the in-process workloads) match between the two.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import layers
import run

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    output = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=180,
    ).stdout.splitlines()
    return json.loads(output[-2]), json.loads(output[-1])


def _assert_metrics(result: dict, declared: list[dict], label: str) -> None:
    emitted = result["metrics"]
    names = {metric["name"] for metric in declared}
    assert set(emitted) == names, f"{label}: emitted {sorted(set(emitted) ^ names)} differ"
    for metric in declared:
        assert emitted[metric["name"]]["unit"] == metric["unit"], (label, metric["name"])
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label


def main() -> int:
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == {name: spec[:2] for name, spec in layers.PER_LAYER.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    for workload in run.WORKLOADS:
        plain_record, plain = _run(workload, 0)
        traced_record, traced = _run(workload, 1)
        _assert_metrics(plain, BENCHMARK["end_to_end"], f"{workload} untraced")
        _assert_metrics(traced, BENCHMARK["per_layer"], f"{workload} traced")
        exact = ["false_positives", "false_negatives"]
        if not workload.startswith("serve-"):
            exact.append("x86.raw_decodes")
        for name in exact:
            assert plain_record[name] == traced_record[name], (workload, name)
        print(f"{workload}: ok ({', '.join(f'{n}={plain_record[n]}' for n in exact)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
