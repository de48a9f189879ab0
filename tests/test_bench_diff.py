"""``tools/bench_diff.py`` on perfbench records: the regression gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_diff", ROOT / "tools" / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)

# The repository's own bounds: 0.25 on both metrics the records below carry.
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _record(p50: float, throughput: float, failed: int = 0, correct: bool = True,
            seconds: float = 20, extra_workload: bool = False) -> dict:
    def metric(value: float, unit: str) -> dict:
        return {"median": value, "iqr": 0.0, "values": [value], "unit": unit}

    workload = {
        "end_to_end": {
            "latency_p50_ref": metric(p50, "ref"),
            "throughput_per_ref": metric(throughput, "1/ref"),
        },
        "layers": {
            "baselines.nucleus_ms": 5.0,
            "x86.raw_decodes": 1330.15,
            "service.detector_runs": 0.0,
            "false_positives": 8284,
            "false_negatives": 800,
        },
        "attempted": 100,
        "failed": failed,
        "correct": correct,
    }
    workloads = {"compare-tools": workload}
    if extra_workload:
        workloads["detect-cold"] = workload
    return {"bench": "perfbench", "commit": "abc", "seconds": seconds,
            "workloads": workloads}


BASE = _record(10.0, 0.20)


@pytest.mark.parametrize(
    "old, new, regressions",
    [
        (BASE, _record(10.0, 0.20), 0),  # unchanged
        (BASE, _record(7.0, 0.30), 0),  # better in both directions
        (BASE, _record(12.4, 0.16), 0),  # worse, inside both bounds
        (BASE, _record(12.6, 0.20), 1),  # latency past its bound
        (BASE, _record(10.0, 0.14), 1),  # throughput past its bound
        (BASE, _record(10.0, 0.20, failed=1), 1),  # a larger failed share
        (BASE, _record(10.0, 0.20, correct=False), 1),  # checks fail, no failed op
        (_record(10.0, 0.20, correct=False), _record(10.0, 0.20, correct=False), 0),
        (BASE, _record(10.0, 0.20, seconds=2), 1),  # a different run length
        (_record(10.0, 0.20, extra_workload=True), BASE, 1),  # new lacks a workload
        (BASE, _record(10.0, 0.20, extra_workload=True), 0),  # only the new has one
    ],
)
def test_perfbench_diff_flags_each_regression(old, new, regressions):
    report, found = bench_diff.diff_perf_records(old, new, END_TO_END)
    assert len(found) == regressions, found
    assert "baselines.nucleus_ms" in report


def test_main_exits_nonzero_past_a_bound(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_record(10.0, 0.20)))
    new.write_text(json.dumps(_record(10.0, 0.20)))
    assert bench_diff.main([str(old), str(new)]) == 0
    new.write_text(json.dumps(_record(20.0, 0.20)))
    assert bench_diff.main([str(old), str(new)]) == 1
    assert "latency_p50_ref" in capsys.readouterr().err


@pytest.mark.parametrize("count", bench_diff.EXACT_COUNTS)
def test_an_undeclared_change_in_an_exact_count_fails(tmp_path, capsys, count):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    changed = _record(10.0, 0.20)
    changed["workloads"]["compare-tools"]["layers"][count] += 1
    old.write_text(json.dumps(_record(10.0, 0.20)))
    new.write_text(json.dumps(changed))
    assert bench_diff.main([str(old), str(new)]) == 1
    assert count in capsys.readouterr().err
    assert bench_diff.main([str(old), str(new), "--expect-change", count]) == 0


def test_records_of_different_kinds_are_refused(tmp_path):
    cold = {"bench": "cold_latency", "binaries": {}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(cold))
    new.write_text(json.dumps(_record(10.0, 0.20)))
    with pytest.raises(SystemExit):
        bench_diff.main([str(old), str(new)])
