"""Ablation — why Algorithm 1 needs all three tail-call criteria.

The paper argues each restriction (stack height 0, calling-convention check,
target not referenced elsewhere) is necessary to avoid false tail calls that
would leave non-contiguous parts unmerged or, worse, promote arbitrary jump
targets to function starts.  This benchmark drops each criterion in turn and
measures the resulting error counts.
"""

from repro.analysis.recursive import RecursiveDisassembler
from repro.core.context import AnalysisContext
from repro.core.fde_source import extract_fde_starts
from repro.core.tailcall import detect_tail_calls_and_merge
from repro.eval.metrics import CorpusMetrics, compute_metrics


def _run_variant(corpus, **flags):
    metrics = CorpusMetrics()
    for binary in corpus:
        image = binary.image
        context = AnalysisContext(image)
        seeds = extract_fde_starts(image)
        disassembly = RecursiveDisassembler(image, context=context).disassemble(seeds)
        outcome = detect_tail_calls_and_merge(
            image, disassembly, set(seeds), context=context, **flags
        )
        detected = (set(seeds) - outcome.removed_starts) | outcome.added_starts
        metrics.add(compute_metrics(binary.ground_truth, detected))
    return metrics


def run_ablation(corpus):
    return {
        "all criteria": _run_variant(corpus),
        "no stack-height check": _run_variant(corpus, require_zero_stack_height=False),
        "no calling-convention check": _run_variant(corpus, require_calling_convention=False),
        "no reference check": _run_variant(corpus, require_unreferenced_target=False),
    }


def render(results):
    lines = ["Ablation — Algorithm 1 tail-call criteria", "-" * 60]
    lines.append(f"{'variant':<30} {'FP':>8} {'FN':>8} {'full acc.':>10}")
    for label, metrics in results.items():
        lines.append(
            f"{label:<30} {metrics.total_false_positives:>8d} "
            f"{metrics.total_false_negatives:>8d} {metrics.binaries_with_full_accuracy:>10d}"
        )
    return "\n".join(lines)


def test_ablation_algorithm1_criteria(benchmark, selfbuilt_corpus_small, report_writer):
    results = benchmark.pedantic(
        run_ablation, args=(selfbuilt_corpus_small,), rounds=1, iterations=1
    )
    report_writer("ablation_algorithm1", render(results))

    complete = results["all criteria"]
    # Dropping the stack-height criterion lets cold-part jumps (taken at
    # non-zero height) be classified as tail calls, so parts stay unmerged:
    # false positives can only go up.
    assert (
        results["no stack-height check"].total_false_positives
        >= complete.total_false_positives
    )
    # Dropping the reference check turns shared helpers into "tail call
    # targets" and prevents merges the full algorithm performs.
    assert (
        results["no reference check"].total_false_positives
        >= complete.total_false_positives
    )
    # The complete algorithm never reports more false positives than any
    # ablated variant (its criteria only ever restrict what gets accepted).
    for label, metrics in results.items():
        assert complete.total_false_positives <= metrics.total_false_positives, label
    # Dropping criteria never improves accuracy: the binaries with full
    # accuracy under the complete algorithm are a superset of every variant.
    for label, metrics in results.items():
        assert (
            complete.binaries_with_full_accuracy >= metrics.binaries_with_full_accuracy
        ), label
