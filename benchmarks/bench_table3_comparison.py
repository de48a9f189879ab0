"""Table III — FETCH against the eight baseline tools, per optimisation level.

This is the most expensive comparison of the paper, so it doubles as the
performance benchmark for the shared :class:`~repro.core.AnalysisContext`:
the corpus is evaluated uncached (``tool.detect(image)`` builds a fresh
private context per detector run, the pre-context behaviour, as
``run_timing_study`` does) and with one shared context per binary, alternating
over several rounds.  The two result tables are asserted identical, decode
work must drop by at least half (it is deterministic, unlike wall clock),
and all timings land in ``BENCH_table3_comparison.json``.
"""

import statistics
import time

from repro.eval import CorpusEvaluator, run_tool_comparison
from repro.eval.tables import render_table3
from repro.x86.disassembler import DECODE_STATS

_ROUNDS = 3


class _PrivateContexts(CorpusEvaluator):
    """Hands every detector run ``context=None``, so each ``tool.detect``
    call builds its own fresh context."""

    def context_for(self, binary):
        return None


def test_table3_tool_comparison(
    benchmark, selfbuilt_corpus, report_writer, make_evaluator, bench_workers
):
    evaluator = make_evaluator(selfbuilt_corpus, workers=1)

    shared_cache_stats = {}

    def measure(shared: bool):
        """One full serial comparison pass -> (results, seconds, raw decodes)."""
        make = CorpusEvaluator if shared else _PrivateContexts
        pass_evaluator = make(selfbuilt_corpus)
        decodes_before = DECODE_STATS.raw_decodes
        start = time.perf_counter()
        results = run_tool_comparison(selfbuilt_corpus, evaluator=pass_evaluator)
        elapsed = time.perf_counter() - start
        if shared:
            shared_cache_stats.update(pass_evaluator.context_stats())
        return results, elapsed, DECODE_STATS.raw_decodes - decodes_before

    def full_measurement():
        # Alternate uncached/shared passes so slow drift (GC pressure, CPU
        # frequency) hits both sides equally, and judge by the medians.
        uncached_times, shared_times = [], []
        uncached_results = shared_results = None
        uncached_decodes = shared_decodes = 0
        for _ in range(_ROUNDS):
            uncached_results, elapsed, uncached_decodes = measure(shared=False)
            uncached_times.append(elapsed)
            shared_results, elapsed, shared_decodes = measure(shared=True)
            shared_times.append(elapsed)
        return (
            uncached_results,
            shared_results,
            uncached_times,
            shared_times,
            uncached_decodes,
            shared_decodes,
        )

    (
        uncached,
        results,
        uncached_times,
        shared_times,
        uncached_decodes,
        shared_decodes,
    ) = benchmark.pedantic(full_measurement, rounds=1, iterations=1)

    assert uncached == results, "shared AnalysisContext changed Table III results"

    if bench_workers > 1:
        parallel_evaluator = make_evaluator(selfbuilt_corpus)
        parallel = parallel_evaluator.timed(
            f"shared_context_workers{bench_workers}",
            run_tool_comparison,
            selfbuilt_corpus,
            evaluator=parallel_evaluator,
        )
        assert parallel == results, "worker-process evaluation changed Table III results"
        evaluator.timings.update(parallel_evaluator.timings)

    evaluator.timings["uncached_serial_median"] = statistics.median(uncached_times)
    evaluator.timings["shared_context_serial_median"] = statistics.median(shared_times)
    speedup = evaluator.timings["uncached_serial_median"] / max(
        evaluator.timings["shared_context_serial_median"], 1e-9
    )
    # The deterministic guarantee: one shared context per binary decodes each
    # instruction once, where the uncached pass re-decodes per detector run.
    assert shared_decodes * 2 <= uncached_decodes, (
        f"expected the shared context to at least halve decode work, "
        f"got {uncached_decodes} -> {shared_decodes}"
    )
    # Wall clock follows; the median over alternating rounds keeps noise out.
    # Observed ~4.7x on the reference machine; 1.5x leaves CI headroom.
    assert speedup > 1.5, f"shared context should be much faster, got {speedup:.2f}x"
    evaluator.write_bench(
        "table3_comparison",
        cache_stats=shared_cache_stats,
        extra={
            "speedup_uncached_over_shared": round(speedup, 3),
            "uncached_seconds": [round(t, 3) for t in uncached_times],
            "shared_seconds": [round(t, 3) for t in shared_times],
            "raw_decodes_uncached": uncached_decodes,
            "raw_decodes_shared": shared_decodes,
        },
    )

    report_writer("table3_comparison", render_table3(results))

    average = results["Avg."]
    fetch = average["fetch"]
    # FETCH has the lowest combined error of all tools, and its error counts
    # are a tiny fraction of the function population (paper: best in every
    # column except Ofast accuracy).
    fetch_error = fetch.false_positives + fetch.false_negatives
    for name, cell in average.items():
        if name == "fetch":
            continue
        assert fetch_error <= cell.false_positives + cell.false_negatives, name
    assert fetch_error <= 0.01 * fetch.functions
    # The pattern-based tools show the paper's characteristic error profile:
    # BAP worst on false positives, the FDE-based tools (ghidra/angr) close to
    # FETCH on coverage but carrying the FDE cold-part false positives, which
    # FETCH alone fixes.
    assert average["bap"].false_positives >= average["ida"].false_positives
    assert average["ghidra"].false_positives >= fetch.false_positives
    assert average["angr"].false_positives >= fetch.false_positives
    assert average["angr"].false_negatives <= average["dyninst"].false_negatives
