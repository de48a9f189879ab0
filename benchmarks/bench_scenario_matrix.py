"""Scenario matrix — every detector over every binary scenario.

Evaluates all ten registered matrix detectors (the eight Table III tools,
ByteWeight and FETCH) over the scenario corpora — vanilla, PIE-with-PLT,
CET, ICF, padded entries, stripped-without-eh_frame — and records the full
FP/FN matrix in ``BENCH_scenario_matrix.json``.

The matrix runs against the shared artifact store: a cold run detects every
binary and persists one detection record per (binary, detector); any later
run (in-process or a fresh invocation over the same store) reads those
records and performs **zero** detector invocations.  The benchmark asserts
exactly that with an immediate resumed re-run, and the BENCH record carries
the cache hit/miss counts under ``store`` so warm-vs-cold history is
auditable.

With ``REPRO_BENCH_POOLS`` unset (or ``1``) the benchmark also measures the
``workers`` process-pool backend against serial evaluation on the Table III
tool comparison: results must be identical, and the relative timings land in
the same BENCH record.  Set ``REPRO_BENCH_POOLS=0`` to skip the
(deliberately uncached) pool timing section — the warm-cache CI job does.
"""

import os
import statistics
import time
from pathlib import Path

from repro.eval import CorpusEvaluator, ScenarioMatrix, run_tool_comparison
from repro.eval.tables import render_scenario_matrix

BENCH_DIRECTORY = Path(__file__).resolve().parent.parent

_POOL_SIZE = 2
_ROUNDS = 3


def test_scenario_matrix(
    benchmark,
    scenario_corpora,
    selfbuilt_corpus_small,
    report_writer,
    bench_workers,
    artifact_store,
):
    matrix = ScenarioMatrix(
        scenario_corpora, workers=bench_workers, bench_dir=BENCH_DIRECTORY, store=artifact_store
    )

    cells = benchmark.pedantic(matrix.run, rounds=1, iterations=1)

    # Every (scenario x detector) cell is populated with ground-truth metrics.
    assert set(cells) == set(scenario_corpora)
    for scenario, row in cells.items():
        assert len(row) == 10, f"{scenario}: expected all ten detectors"
        for tool, summary in row.items():
            assert summary["binaries"] == len(scenario_corpora[scenario]), (scenario, tool)
            assert summary["functions"] > 0

    # FETCH's EH-based detection stays within noise of the best tool on
    # every scenario that carries .eh_frame (a couple of stray errors are
    # tolerated at small corpus scales).
    for scenario in ("vanilla", "cet", "icf", "padded"):
        row = cells[scenario]
        fetch = row["fetch"]
        fetch_error = fetch["false_positives"] + fetch["false_negatives"]
        tolerance = 2 + 0.01 * fetch["functions"]
        for tool, summary in row.items():
            if tool == "fetch":
                continue
            other_error = summary["false_positives"] + summary["false_negatives"]
            assert fetch_error <= other_error + tolerance, (scenario, tool)
    # Without .eh_frame the FDE seed is gone; the entry-point fallback still
    # recovers the call-reachable functions (unlike the FDE-seeded models).
    noeh = cells["stripped-noeh"]
    assert noeh["fetch"]["false_negatives"] <= noeh["ghidra"]["false_negatives"]

    # -- resumable evaluation: a warm run does zero detector work ---------
    extra = {}
    if artifact_store is not None:
        start = time.perf_counter()
        warm = ScenarioMatrix(scenario_corpora, workers=bench_workers, store=artifact_store)
        warm_cells = warm.run()
        warm_seconds = time.perf_counter() - start
        assert warm_cells == cells, "resumed matrix changed the cells"
        assert warm.detector_invocations == 0, (
            "warm scenario-matrix run re-ran detectors "
            f"({warm.detector_invocations} invocations)"
        )
        extra["warm_rerun_seconds"] = round(warm_seconds, 3)
        extra["warm_rerun_detector_invocations"] = warm.detector_invocations

    # -- serial vs process pool on the Table III comparison ---------------
    # Timing section: intentionally uncached (a result cache would turn the
    # pool comparison into a cache benchmark).  REPRO_BENCH_POOLS=0 skips it.
    if os.environ.get("REPRO_BENCH_POOLS", "1") != "0":
        corpus = selfbuilt_corpus_small

        def timed(make_evaluator):
            times = []
            results = None
            for _ in range(_ROUNDS):
                evaluator = make_evaluator()
                try:
                    start = time.perf_counter()
                    results = run_tool_comparison(corpus, evaluator=evaluator)
                    times.append(time.perf_counter() - start)
                finally:
                    evaluator.close()
            return results, statistics.median(times)

        serial_results, serial_s = timed(lambda: CorpusEvaluator(corpus))
        process_results, process_s = timed(lambda: CorpusEvaluator(corpus, workers=_POOL_SIZE))

        assert process_results == serial_results, "process pool changed Table III results"

        extra.update(
            {
                "table3_serial_seconds": round(serial_s, 3),
                f"table3_process_pool_workers{_POOL_SIZE}_seconds": round(process_s, 3),
                "process_speedup_over_serial": round(serial_s / max(process_s, 1e-9), 3),
                "pool_size": _POOL_SIZE,
                # Interpretation aid: with one core the process pool can only
                # tie serial evaluation; the gap widens with available CPUs.
                "cpu_count": os.cpu_count(),
            }
        )

    matrix.write_bench(extra=extra)

    report_writer("scenario_matrix", render_scenario_matrix(cells))
