"""Experiment runners for every table and figure of the paper.

Each ``run_*`` function takes a corpus of synthetic binaries (see
:mod:`repro.synth.corpus`) and returns plain data structures; the renderers
in :mod:`repro.eval.tables` turn them into the text tables the benchmarks
print and EXPERIMENTS.md records.

All corpus-level runners accept an optional :class:`CorpusEvaluator`, which
owns one shared :class:`~repro.core.context.AnalysisContext` per binary —
decoded instructions, CFA tables and image scans are then computed once and
reused by every detector, every strategy-ladder rung and every study that
touches the same binary.  The evaluator also fans per-binary work out over a
process pool (``workers``) and can emit machine-readable ``BENCH_*.json``
timing records for the performance trajectory.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.analysis.recursive import RecursiveDisassembler
from repro.baselines import (
    AngrLike,
    AngrOptions,
    GhidraLike,
    GhidraOptions,
    all_comparison_tools,
)
from repro.core import FetchDetector, FetchOptions
from repro.core.context import AnalysisContext
from repro.core.fde_source import extract_fde_starts, fde_symbol_coverage
from repro.core.registry import detectors as registered_detectors
from repro.core.results import DetectionResult
from repro.eval.metrics import BinaryMetrics, CorpusMetrics, compute_metrics

if TYPE_CHECKING:
    from repro.eval.executor import ProcessPool
    from repro.store import ArtifactStore
    from repro.synth.compiler import SyntheticBinary
    from repro.synth.profiles import WildProfile


# ----------------------------------------------------------------------
# Process-pool worker plumbing
#
# The process pool (``workers``) buys real CPU parallelism at the cost of
# per-process contexts.  Each worker receives the corpus once (via the pool
# initializer) and keeps its own per-binary AnalysisContext, so the
# decode-once property holds within every worker.  Task payloads must be
# picklable: module-level functions only — closures run serially.
# ----------------------------------------------------------------------

_WORKER_CORPUS: list[Any] | None = None
_WORKER_CONTEXTS: dict[int, AnalysisContext] = {}


def _process_worker_init(corpus: list[Any]) -> None:
    global _WORKER_CORPUS, _WORKER_CONTEXTS
    _WORKER_CORPUS = corpus
    _WORKER_CONTEXTS = {}


def _process_invoke(payload: tuple[Callable[..., Any], int, tuple]) -> Any:
    """Run one task in a pool worker against its per-worker context."""
    fn, index, fn_args = payload
    assert _WORKER_CORPUS is not None, "process pool initializer did not run"
    binary = _WORKER_CORPUS[index]
    context = _WORKER_CONTEXTS.get(index)
    if context is None:
        context = AnalysisContext(getattr(binary, "image", binary))
        _WORKER_CONTEXTS[index] = context
    return fn(binary, context, *fn_args)


def _detect_binary_metrics(
    binary: SyntheticBinary, context: AnalysisContext, detector: Any
) -> tuple[DetectionResult, BinaryMetrics]:
    """One detection and its metrics.  The result drops its disassembly
    state, which is costly to keep and to ship back from a pool worker."""
    result = replace(detector.detect(binary.image, context), disassembly=None)
    return result, compute_metrics(binary.ground_truth, result.function_starts)


def _fde_only_binary_metrics(
    binary: SyntheticBinary, context: AnalysisContext
) -> BinaryMetrics:
    detected = extract_fde_starts(binary.image)
    return compute_metrics(binary.ground_truth, detected)


def _tool_comparison_metrics(
    binary: SyntheticBinary, context: AnalysisContext, tools: list[Any]
) -> dict[str, BinaryMetrics]:
    metrics: dict[str, BinaryMetrics] = {}
    for tool in tools:
        result = tool.detect(binary.image, context)
        metrics[tool.name] = compute_metrics(binary.ground_truth, result.function_starts)
    return metrics


# ----------------------------------------------------------------------
# Shared-context corpus evaluation
# ----------------------------------------------------------------------

class CorpusEvaluator:
    """Decode-once, optionally parallel evaluation over a corpus.

    One :class:`AnalysisContext` is kept per binary and handed to every
    detector run, so the corpus is decoded once no matter how many tools or
    ladder rungs are evaluated.  ``workers > 1`` fans per-binary work out
    over a :class:`ProcessPool`, where each child keeps its own context per
    binary; anything else runs serially in the caller's thread.  Per-binary
    results are returned (and aggregated) in corpus order, so parallel and
    serial evaluation produce identical metrics.

    ``bench_dir`` enables :meth:`write_bench`, which records the wall-clock
    timings collected by :meth:`timed` as ``BENCH_<name>.json``.

    ``store`` plugs in an :class:`~repro.store.ArtifactStore`:
    :meth:`run_detector` then skips binaries whose detection record is
    already cached for the (binary digest, detector name, options digest)
    triple.
    :attr:`detector_runs` counts the per-binary detector invocations that
    actually happened, so warm runs can assert they did none.
    """

    def __init__(
        self,
        corpus: Sequence[SyntheticBinary],
        *,
        workers: int = 0,
        bench_dir: str | os.PathLike | None = None,
        store: ArtifactStore | None = None,
    ):
        self.corpus = list(corpus)
        #: ``workers > 1`` enables the :class:`ProcessPool` backend for
        #: module-level map functions (closures run serially); contexts then
        #: live per worker process, one per binary.
        self.workers = max(0, int(workers))
        self.bench_dir = Path(bench_dir) if bench_dir is not None else None
        self.store = store
        #: per-binary detector invocations performed (cache hits excluded)
        self.detector_runs = 0
        self.timings: dict[str, float] = {}
        self._contexts: dict[int, AnalysisContext] = {}
        self._lock = threading.Lock()
        #: a serial evaluator loads no pool (nor ``multiprocessing``)
        self._pool: ProcessPool | None = None
        if self.workers > 1:
            from repro.eval.executor import ProcessPool

            self._pool = ProcessPool(
                self.workers, initializer=_process_worker_init, initargs=(self.corpus,)
            )
        self._corpus_index = {id(binary): i for i, binary in enumerate(self.corpus)}

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down the process pool (no-op without one)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "CorpusEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- contexts -------------------------------------------------------
    def context_for(self, binary: SyntheticBinary) -> AnalysisContext:
        """The shared context of ``binary`` (created on first use).

        Contexts stay alive for the evaluator's lifetime — that is what
        makes ladder rungs and successive studies share work.  A context can
        hold an :class:`~repro.x86.instruction.Instruction` for nearly every
        text byte once a linear-sweep detector has run, and it lives as
        long as the evaluator.
        """
        image = getattr(binary, "image", binary)
        key = id(image)
        with self._lock:
            context = self._contexts.get(key)
            if context is None:
                context = AnalysisContext(image)
                self._contexts[key] = context
        return context

    def context_stats(self) -> dict[str, float | int]:
        """Aggregate cache statistics over every context built so far."""
        totals: dict[str, float | int] = defaultdict(int)
        for context in self._contexts.values():
            for key, value in context.stats().as_dict().items():
                if key != "decode_hit_ratio":
                    totals[key] += value
        hits = totals.get("decode_hits", 0)
        misses = totals.get("decode_misses", 0)
        totals["decode_hit_ratio"] = round(hits / (hits + misses), 4) if hits + misses else 0.0
        totals["contexts"] = len(self._contexts)
        return dict(totals)

    # -- fan-out --------------------------------------------------------
    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[SyntheticBinary] | None = None,
        *,
        fn_args: tuple = (),
    ) -> list[Any]:
        """``fn(binary, context, *fn_args)`` over ``items`` (default: the corpus).

        Results come back in input order regardless of the backend.  With
        ``workers > 1`` and a picklable, module-level ``fn`` over corpus
        members, the call fans out over the process pool; anything else
        (closures, foreign binaries) runs serially in the caller's thread.

        Thread safety: the context cache behind :meth:`context_for` is
        lock-guarded, but concurrent :meth:`map` calls from different
        threads are not coordinated — long-lived multi-client processes
        should serialise per evaluator, or hold one evaluator per corpus as
        :class:`repro.service.DetectionService` holds one context per
        in-flight entry.
        """
        binaries = self.corpus if items is None else list(items)
        if self._can_use_processes(fn, binaries, fn_args):
            return self._pool.map(
                _process_invoke,
                [(fn, self._corpus_index[id(binary)], fn_args) for binary in binaries],
            )
        return [fn(binary, self.context_for(binary), *fn_args) for binary in binaries]

    def _can_use_processes(
        self, fn: Callable[..., Any], binaries: list[Any], fn_args: tuple
    ) -> bool:
        if self._pool is None or len(binaries) <= 1:
            return False
        if any(id(binary) not in self._corpus_index for binary in binaries):
            return False
        import pickle

        try:
            pickle.dumps((fn, fn_args))
        except Exception:
            return False
        return True

    def run_detector(
        self,
        detector_factory: Callable[[], Any],
        items: Iterable[SyntheticBinary] | None = None,
    ) -> CorpusMetrics:
        """Run one detector (one instance for every binary) over the corpus.

        With a ``store``, binaries with a cached detection record (the one
        the CLI and the detection service read and write) are not detected
        again: their metrics come from the cached starts.  The misses are
        detected and persisted, so the corpus is warm for every front-end.
        """
        binaries = self.corpus if items is None else list(items)
        per: list[BinaryMetrics | None] = [None] * len(binaries)
        detector = detector_factory()
        if self.store is not None:
            from repro.eval.unit import detector_name, lookup_detection, persist_detection
            from repro.store import digest_of_binary, options_digest

            name, opts = detector_name(detector), options_digest(detector)
            keys = [
                self.store.detection_key(digest_of_binary(binary), name, opts)
                for binary in binaries
            ]
            for index, binary in enumerate(binaries):
                cached = lookup_detection(self.store, keys[index])
                if cached is not None:
                    per[index] = compute_metrics(binary.ground_truth, cached.function_starts)
        missing = [index for index, found in enumerate(per) if found is None]
        if missing:
            self.detector_runs += len(missing)
            todo = [binaries[index] for index in missing]
            detected = self.map(_detect_binary_metrics, todo, fn_args=(detector,))
            for index, (result, binary_metrics) in zip(missing, detected):
                per[index] = binary_metrics
                if self.store is not None:
                    persist_detection(self.store, keys[index], binaries[index].name, name, result)

        metrics = CorpusMetrics()
        for binary_metrics in per:
            metrics.add(binary_metrics)
        return metrics

    def fde_only_metrics(
        self, items: Iterable[SyntheticBinary] | None = None
    ) -> CorpusMetrics:
        """The FDE-only rung shared by every Figure 5 ladder."""
        metrics = CorpusMetrics()
        per = self.map(_fde_only_binary_metrics, items)
        for binary_metrics in per:
            metrics.add(binary_metrics)
        return metrics

    # -- benchmarking ---------------------------------------------------
    def timed(self, label: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Run ``fn`` and record its wall-clock time under ``label``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.timings[label] = time.perf_counter() - start
        return result

    def write_bench(
        self,
        name: str,
        *,
        extra: dict[str, Any] | None = None,
        cache_stats: dict[str, float | int] | None = None,
    ) -> Path | None:
        """Write ``BENCH_<name>.json`` with timings, cache and corpus stats.

        ``cache_stats`` substitutes this evaluator's own aggregate when the
        measured work ran on a different evaluator (as the before/after
        benchmarks do).  Returns the path written, or ``None`` when no
        ``bench_dir`` is set.
        """
        if self.bench_dir is None:
            return None
        record = {
            "bench": name,
            "created_unix": round(time.time(), 3),
            "workers": self.workers,
            "corpus_size": len(self.corpus),
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "cache": cache_stats if cache_stats is not None else self.context_stats(),
        }
        if extra:
            record["extra"] = extra
        import json

        self.bench_dir.mkdir(parents=True, exist_ok=True)
        path = self.bench_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


def _evaluator(
    corpus: Sequence[SyntheticBinary], evaluator: CorpusEvaluator | None
) -> CorpusEvaluator:
    return evaluator if evaluator is not None else CorpusEvaluator(corpus)


# ----------------------------------------------------------------------
# Strategy ladders (Figure 5)
# ----------------------------------------------------------------------

@dataclass
class StrategyOutcome:
    """One bar pair of Figure 5: a strategy and its corpus-level metrics."""

    label: str
    metrics: CorpusMetrics

    @property
    def full_coverage(self) -> int:
        return self.metrics.binaries_with_full_coverage

    @property
    def full_accuracy(self) -> int:
        return self.metrics.binaries_with_full_accuracy


def run_strategy_ladder(
    corpus: list[SyntheticBinary],
    ladder: Sequence[tuple[str, Any]],
    make_detector: Callable[[Any], Any],
    *,
    evaluator: CorpusEvaluator | None = None,
) -> list[StrategyOutcome]:
    """Evaluate one Figure 5 ladder: ``(label, options)`` rungs in order.

    A rung whose options are ``None`` is the shared FDE-only baseline;
    every other rung runs ``make_detector(options)`` over the corpus.  All
    rungs share the evaluator's per-binary contexts, so the corpus is
    decoded once for the whole ladder.
    """
    evaluator = _evaluator(corpus, evaluator)
    outcomes = []
    for label, options in ladder:
        if options is None:
            metrics = evaluator.fde_only_metrics(corpus)
        else:
            metrics = evaluator.run_detector(
                lambda o=options: make_detector(o), corpus
            )
        outcomes.append(StrategyOutcome(label=label, metrics=metrics))
    return outcomes


def run_figure5a(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> list[StrategyOutcome]:
    """GHIDRA strategy ladder (Figure 5a)."""
    ladder = [
        ("FDE", None),
        ("FDE+Rec+CFR", GhidraOptions(control_flow_repair=True)),
        ("FDE+Rec", GhidraOptions()),
        ("FDE+Rec+Fsig", GhidraOptions(function_matching=True)),
        ("FDE+Rec+Tcall", GhidraOptions(tail_call_heuristic=True)),
    ]
    return run_strategy_ladder(corpus, ladder, GhidraLike, evaluator=evaluator)


def run_figure5b(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> list[StrategyOutcome]:
    """ANGR strategy ladder (Figure 5b)."""
    ladder = [
        ("FDE", None),
        ("FDE+Rec+Fmerg", AngrOptions(function_merging=True)),
        ("FDE+Rec", AngrOptions()),
        ("FDE+Rec+Fsig", AngrOptions(function_matching=True)),
        ("FDE+Rec+Scan", AngrOptions(linear_scan=True)),
        ("FDE+Rec+Tcall", AngrOptions(tail_call_heuristic=True)),
    ]
    return run_strategy_ladder(corpus, ladder, AngrLike, evaluator=evaluator)


def run_figure5c(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> list[StrategyOutcome]:
    """The optimal-strategy ladder (Figure 5c) culminating in full FETCH."""
    ladder = [
        ("FDE", None),
        (
            "FDE+Rec",
            FetchOptions(
                validate_fde_starts=False,
                use_pointer_validation=False,
                use_tail_call_analysis=False,
            ),
        ),
        (
            "FDE+Rec+Xref",
            FetchOptions(validate_fde_starts=False, use_tail_call_analysis=False),
        ),
        ("FDE+Rec+Xref+Tcall", FetchOptions()),
    ]
    return run_strategy_ladder(corpus, ladder, FetchDetector, evaluator=evaluator)


# ----------------------------------------------------------------------
# §IV-B — Q1: FDE-only coverage
# ----------------------------------------------------------------------

@dataclass
class FdeCoverageStudy:
    """Q1 results: how well FDEs alone cover true function starts."""

    binary_count: int = 0
    total_functions: int = 0
    covered_functions: int = 0
    binaries_with_misses: int = 0
    missed_by_kind: dict[str, int] = field(default_factory=dict)
    symbol_count: int = 0
    symbols_covered_by_fdes: int = 0

    @property
    def coverage_percent(self) -> float:
        if self.total_functions == 0:
            return 100.0
        return 100.0 * self.covered_functions / self.total_functions


def _fde_coverage_binary(binary: SyntheticBinary, context: AnalysisContext):
    fde_starts = extract_fde_starts(binary.image)
    truth = binary.ground_truth
    covered = truth.function_starts & fde_starts
    missed = truth.function_starts - fde_starts
    missed_kinds: dict[str, int] = defaultdict(int)
    for address in missed:
        info = truth.by_address(address)
        missed_kinds[info.kind if info else "unknown"] += 1
    coverage = fde_symbol_coverage(binary.image)
    return (
        truth.function_count,
        len(covered),
        dict(missed_kinds),
        coverage.symbol_count,
        coverage.covered_symbols,
    )


def run_fde_coverage_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> FdeCoverageStudy:
    evaluator = _evaluator(corpus, evaluator)
    study = FdeCoverageStudy()
    missed_kinds: dict[str, int] = defaultdict(int)
    for total, covered, missed, symbols, covered_symbols in evaluator.map(
        _fde_coverage_binary, corpus
    ):
        study.binary_count += 1
        study.total_functions += total
        study.covered_functions += covered
        if missed:
            study.binaries_with_misses += 1
            for kind, count in missed.items():
                missed_kinds[kind] += count
        study.symbol_count += symbols
        study.symbols_covered_by_fdes += covered_symbols
    study.missed_by_kind = dict(missed_kinds)
    return study


# ----------------------------------------------------------------------
# §V-A — errors introduced by FDEs
# ----------------------------------------------------------------------

@dataclass
class FdeErrorStudy:
    """How many false starts FDEs introduce and what they are."""

    binary_count: int = 0
    total_false_positives: int = 0
    binaries_with_false_positives: int = 0
    from_non_contiguous_functions: int = 0
    from_handwritten_fdes: int = 0
    rop_gadgets_at_false_starts: int = 0
    worst_binary: str = ""
    worst_binary_false_positives: int = 0


def run_fde_error_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> FdeErrorStudy:
    evaluator = _evaluator(corpus, evaluator)

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        truth = binary.ground_truth
        fde_starts = extract_fde_starts(binary.image)
        false_positives = fde_starts - truth.function_starts
        cold = false_positives & truth.cold_part_starts
        gadgets = sum(context.gadget_count(address) for address in false_positives)
        return (binary.name, len(false_positives), len(cold), gadgets)

    study = FdeErrorStudy()
    for name, false_positives, cold, gadgets in evaluator.map(per_binary, corpus):
        study.binary_count += 1
        if false_positives:
            study.binaries_with_false_positives += 1
        study.total_false_positives += false_positives
        study.from_non_contiguous_functions += cold
        study.from_handwritten_fdes += false_positives - cold
        study.rop_gadgets_at_false_starts += gadgets
        if false_positives > study.worst_binary_false_positives:
            study.worst_binary_false_positives = false_positives
            study.worst_binary = name
    return study


# ----------------------------------------------------------------------
# §V-C — Algorithm 1 evaluation
# ----------------------------------------------------------------------

@dataclass
class Algorithm1Study:
    """Effect of Algorithm 1 on FDE-introduced errors."""

    false_positives_before: int = 0
    false_positives_after: int = 0
    full_accuracy_before: int = 0
    full_accuracy_after: int = 0
    full_coverage_before: int = 0
    full_coverage_after: int = 0
    new_false_negatives: int = 0
    new_false_negatives_tailcall_only: int = 0

    @property
    def false_positive_reduction_percent(self) -> float:
        if self.false_positives_before == 0:
            return 0.0
        removed = self.false_positives_before - self.false_positives_after
        return 100.0 * removed / self.false_positives_before


def run_algorithm1_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> Algorithm1Study:
    evaluator = _evaluator(corpus, evaluator)
    before_options = FetchOptions(validate_fde_starts=False, use_tail_call_analysis=False)
    after_options = FetchOptions()

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        truth = binary.ground_truth
        before = FetchDetector(before_options).detect(binary.image, context)
        after = FetchDetector(after_options).detect(binary.image, context)
        metrics_before = compute_metrics(truth, before.function_starts)
        metrics_after = compute_metrics(truth, after.function_starts)
        introduced = metrics_after.false_negatives - metrics_before.false_negatives
        tailcall_only = 0
        for address in introduced:
            info = truth.by_address(address)
            if info is not None and info.reachable_via == "tailcall":
                tailcall_only += 1
        return (metrics_before, metrics_after, len(introduced), tailcall_only)

    study = Algorithm1Study()
    for metrics_before, metrics_after, introduced, tailcall_only in evaluator.map(
        per_binary, corpus
    ):
        study.false_positives_before += metrics_before.fp_count
        study.false_positives_after += metrics_after.fp_count
        study.full_accuracy_before += int(metrics_before.full_accuracy)
        study.full_accuracy_after += int(metrics_after.full_accuracy)
        study.full_coverage_before += int(metrics_before.full_coverage)
        study.full_coverage_after += int(metrics_after.full_coverage)
        study.new_false_negatives += introduced
        study.new_false_negatives_tailcall_only += tailcall_only
    return study


# ----------------------------------------------------------------------
# Table III — tool comparison
# ----------------------------------------------------------------------

@dataclass
class ToolComparisonCell:
    false_positives: int
    false_negatives: int
    functions: int


def run_tool_comparison(
    corpus: list[SyntheticBinary],
    *,
    evaluator: CorpusEvaluator | None = None,
) -> dict[str, dict[str, ToolComparisonCell]]:
    """FP/FN per tool per optimisation level (Table III).

    Returns ``{opt_level: {tool_name: ToolComparisonCell}}`` plus an ``Avg.``
    row aggregating all levels.  With a shared evaluator, all ten detectors
    reuse one decode cache per binary.
    """
    evaluator = _evaluator(corpus, evaluator)
    tools = all_comparison_tools() + [FetchDetector()]
    per = evaluator.map(_tool_comparison_metrics, corpus, fn_args=(tools,))

    groups: dict[str, list[dict[str, BinaryMetrics]]] = defaultdict(list)
    for binary, metrics_by_tool in zip(corpus, per):
        groups[binary.plan.profile.opt_level.value].append(metrics_by_tool)

    by_level: dict[str, dict[str, ToolComparisonCell]] = {}
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for level, rows in sorted(groups.items()):
        row: dict[str, ToolComparisonCell] = {}
        for tool in tools:
            fp = sum(metrics[tool.name].fp_count for metrics in rows)
            fn = sum(metrics[tool.name].fn_count for metrics in rows)
            functions = sum(metrics[tool.name].true_count for metrics in rows)
            row[tool.name] = ToolComparisonCell(fp, fn, functions)
            totals[tool.name][0] += fp
            totals[tool.name][1] += fn
            totals[tool.name][2] += functions
        by_level[level] = row

    by_level["Avg."] = {
        name: ToolComparisonCell(*values) for name, values in totals.items()
    }
    return by_level


# ----------------------------------------------------------------------
# Table IV — stack-height analysis quality
# ----------------------------------------------------------------------

@dataclass
class StackHeightCell:
    """Precision / recall of a static stack-height analysis vs CFI."""

    matching: int = 0
    reported: int = 0
    total: int = 0

    @property
    def precision(self) -> float:
        return 100.0 * self.matching / self.reported if self.reported else 100.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matching / self.total if self.total else 100.0


def run_stack_height_study(
    corpus: list[SyntheticBinary], *, evaluator: CorpusEvaluator | None = None
) -> dict[str, dict[str, dict[str, StackHeightCell]]]:
    """Compare static stack-height analyses against CFI heights (Table IV).

    Returns ``{opt_level: {flavor: {"full": cell, "jump": cell}}}``.
    """
    evaluator = _evaluator(corpus, evaluator)
    flavors = ("angr", "dyninst")

    def per_binary(binary: SyntheticBinary, context: AnalysisContext):
        image = binary.image
        fdes = {fde.pc_begin: fde for fde in image.fdes}
        disassembler = RecursiveDisassembler(image, context=context)
        disassembly = disassembler.disassemble(set(fdes))
        counts = {
            flavor: {"full": [0, 0, 0], "jump": [0, 0, 0]} for flavor in flavors
        }
        for start, function in disassembly.functions.items():
            fde = fdes.get(start)
            if fde is None:
                continue
            table = context.cfa_table(fde)
            if not table.has_complete_stack_height:
                continue
            reference = {
                address: table.stack_height_at(address)
                for address in function.instructions
                if fde.covers(address)
            }
            for flavor in flavors:
                analysis = context.stack_heights(flavor, function)
                for scope in ("full", "jump"):
                    cell = counts[flavor][scope]
                    for address, expected in reference.items():
                        insn = function.instructions[address]
                        if scope == "jump" and not insn.is_jump:
                            continue
                        cell[2] += 1
                        observed = analysis.get(address)
                        if observed is None:
                            continue
                        cell[1] += 1
                        if observed == expected:
                            cell[0] += 1
        return counts

    per = evaluator.map(per_binary, corpus)

    groups: dict[str, list] = defaultdict(list)
    for binary, counts in zip(corpus, per):
        groups[binary.plan.profile.opt_level.value].append(counts)

    results: dict[str, dict[str, dict[str, StackHeightCell]]] = {}
    for level, rows in sorted(groups.items()):
        cells = {
            flavor: {"full": StackHeightCell(), "jump": StackHeightCell()}
            for flavor in flavors
        }
        for counts in rows:
            for flavor in flavors:
                for scope in ("full", "jump"):
                    cell = cells[flavor][scope]
                    matching, reported, total = counts[flavor][scope]
                    cell.matching += matching
                    cell.reported += reported
                    cell.total += total
        results[level] = cells
    return results


# ----------------------------------------------------------------------
# Table V — timing
# ----------------------------------------------------------------------

def run_timing_study(corpus: list[SyntheticBinary]) -> dict[str, float]:
    """Average analysis time per binary per tool, in seconds (Table V).

    Timing runs are always serial and always give every detector run a cold
    (private) context: a shared cache would charge all decode misses to
    whichever tool happens to run first and hand later tools a warm cache,
    turning the per-tool comparison into a measurement of run order.
    """
    tools = all_comparison_tools() + [FetchDetector()]
    timings: dict[str, float] = {}
    for tool in tools:
        start = time.perf_counter()
        for binary in corpus:
            tool.detect(binary.image)
        elapsed = time.perf_counter() - start
        timings[tool.name] = elapsed / max(len(corpus), 1)
    return timings


# ----------------------------------------------------------------------
# Scenario matrix — every (scenario × detector) cell
# ----------------------------------------------------------------------

#: The ten detectors of the scenario matrix: the paper's eight comparison
#: tools, the ByteWeight model, and FETCH itself.  Registry-driven — these
#: are *classes* straight from :mod:`repro.core.registry`; nothing is
#: instantiated at import time.
MATRIX_DETECTORS: tuple[tuple[str, Callable[[], Any]], ...] = tuple(
    (info.name, info.cls) for info in registered_detectors(matrix=True)
)


class ScenarioMatrix:
    """Evaluate every (scenario × detector) cell of a scenario-keyed corpus.

    Built on :class:`CorpusEvaluator`: one evaluator per scenario row shares
    decode work across all ten detectors, with the ``workers`` process pool
    fanning binaries out.  :meth:`run` fills :attr:`cells`
    (``{scenario: {tool: metrics summary}}``) and per-cell wall-clock
    :attr:`timings`; :meth:`write_bench` records everything as
    ``BENCH_<name>.json``.

    The detector set comes from the registry (``matrix=True`` entries);
    ``include`` narrows it by name.

    With a ``store``, every cell reads and writes the per-binary detection
    records of :meth:`CorpusEvaluator.run_detector`, so a warm re-run of an
    unchanged matrix performs **zero** detector invocations
    (:attr:`detector_invocations` counts the ones that happened), and
    deleting one binary's record re-runs exactly that detection.
    """

    def __init__(
        self,
        corpora: dict[str, Sequence[SyntheticBinary]],
        *,
        workers: int = 0,
        include: Iterable[str] | None = None,
        bench_dir: str | os.PathLike | None = None,
        store: ArtifactStore | None = None,
    ):
        self.corpora = {name: list(binaries) for name, binaries in corpora.items()}
        self.workers = max(0, int(workers))
        self.bench_dir = Path(bench_dir) if bench_dir is not None else None
        self.detectors: list[tuple[str, Callable[[], Any]]] = [
            (info.name, info.cls)
            for info in registered_detectors(matrix=True, include=include)
        ]
        self.store = store
        #: per-binary detector invocations actually performed by :meth:`run`
        self.detector_invocations = 0
        #: store hit/miss and lock deltas of the last :meth:`run` call
        #: (run-scoped, not store-lifetime, so the BENCH record describes
        #: *this* run)
        self.run_store_stats: dict[str, Any] = {}
        self.cells: dict[str, dict[str, dict[str, float | int]]] = {}
        self.timings: dict[str, float] = {}
        self.cache_stats: dict[str, dict[str, float | int]] = {}

    def run(self) -> dict[str, dict[str, dict[str, float | int]]]:
        """Evaluate all cells; returns ``{scenario: {tool: summary}}``."""
        if self.store is not None:
            stats_before = self.store.stats_snapshot()
            lock_before = self.store.describe()["lock"]
        for scenario, corpus in self.corpora.items():
            evaluator = CorpusEvaluator(corpus, workers=self.workers, store=self.store)
            try:
                self.cells[scenario] = {
                    tool_name: evaluator.timed(
                        f"{scenario}:{tool_name}", evaluator.run_detector, factory
                    ).summary()
                    for tool_name, factory in self.detectors
                }
                self.timings.update(evaluator.timings)
                self.cache_stats[scenario] = evaluator.context_stats()
                self.detector_invocations += evaluator.detector_runs
            finally:
                evaluator.close()
        if self.store is not None:
            lock_after = self.store.describe()["lock"]
            self.run_store_stats = {
                **self.store.stats_delta(stats_before),
                "lock": {
                    key: round(lock_after[key] - lock_before[key], 6)
                    for key in lock_after
                },
            }
        return self.cells

    def write_bench(
        self, name: str = "scenario_matrix", *, extra: dict[str, Any] | None = None
    ) -> Path | None:
        """Write ``BENCH_<name>.json`` with all cells, timings and stats."""
        if self.bench_dir is None:
            return None
        record: dict[str, Any] = {
            "bench": name,
            "created_unix": round(time.time(), 3),
            "workers": self.workers,
            "scenarios": {
                scenario: len(corpus) for scenario, corpus in self.corpora.items()
            },
            "detectors": [tool_name for tool_name, _ in self.detectors],
            "cells": self.cells,
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "cache": self.cache_stats,
        }
        if self.store is not None:
            record["store"] = {
                "detector_invocations": self.detector_invocations,
                **self.run_store_stats,
            }
        if extra:
            record["extra"] = extra
        import json

        self.bench_dir.mkdir(parents=True, exist_ok=True)
        path = self.bench_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


# ----------------------------------------------------------------------
# Tables I and II — corpus characteristics
# ----------------------------------------------------------------------

@dataclass
class WildRow:
    software: str
    open_source: bool
    language: str
    has_eh_frame: bool
    has_symbols: bool
    fde_symbol_percent: float | None


def run_wild_study(corpus: list[tuple[WildProfile, SyntheticBinary]]) -> list[WildRow]:
    """FDE-vs-symbol coverage over the wild corpus (Table I)."""
    rows: list[WildRow] = []
    for profile, binary in corpus:
        image = binary.image
        if image.has_symbols:
            ratio = fde_symbol_coverage(image).percent
        else:
            ratio = None
        rows.append(
            WildRow(
                software=profile.software,
                open_source=profile.open_source,
                language=profile.language,
                has_eh_frame=image.has_eh_frame,
                has_symbols=image.has_symbols,
                fde_symbol_percent=ratio,
            )
        )
    return rows


@dataclass
class SelfBuiltRow:
    project: str
    category: str
    language: str
    binaries: int
    has_eh_frame: bool
    fde_symbol_percent: float


def run_selfbuilt_fde_study(corpus: list[SyntheticBinary]) -> list[SelfBuiltRow]:
    """FDE-vs-symbol coverage per project over the self-built corpus (Table II)."""
    by_project: dict[str, list[SyntheticBinary]] = defaultdict(list)
    for binary in corpus:
        by_project[binary.name.split(":")[0].rsplit("-", 1)[0]].append(binary)

    rows: list[SelfBuiltRow] = []
    for project, binaries in sorted(by_project.items()):
        symbols = 0
        covered = 0
        has_eh = True
        for binary in binaries:
            coverage = fde_symbol_coverage(binary.image)
            symbols += coverage.symbol_count
            covered += coverage.covered_symbols
            has_eh &= binary.image.has_eh_frame
        percent = 100.0 * covered / symbols if symbols else 100.0
        rows.append(
            SelfBuiltRow(
                project=project,
                category="",
                language="",
                binaries=len(binaries),
                has_eh_frame=has_eh,
                fde_symbol_percent=percent,
            )
        )
    return rows
