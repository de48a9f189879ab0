"""Ablation — why function-pointer candidates must be validated (§IV-E).

The pointer collection is deliberately a super-set (every 8-byte window plus
every code constant).  Taking that super-set at face value would flood the
result with false function starts; the conservative validation keeps exactly
the legitimate ones.  This benchmark compares three policies: no pointer
stage at all, validated pointers (FETCH), and accepting every candidate.
"""

from repro.analysis.recursive import RecursiveDisassembler
from repro.analysis.xrefs import collect_potential_pointers, validate_function_pointer
from repro.core.context import AnalysisContext
from repro.core.fde_source import extract_fde_starts
from repro.eval.metrics import CorpusMetrics, compute_metrics


def run_policies(corpus):
    policies = {"no pointer stage": CorpusMetrics(), "validated pointers": CorpusMetrics(),
                "accept all candidates": CorpusMetrics()}
    for binary in corpus:
        image = binary.image
        context = AnalysisContext(image)
        seeds = extract_fde_starts(image)
        disassembly = RecursiveDisassembler(image, context=context).disassemble(seeds)
        base = set(seeds) | {
            t for t in disassembly.call_targets if image.is_executable_address(t)
        }
        candidates = {
            c
            for c in collect_potential_pointers(image, disassembly, context=context)
            if c not in base
        }
        validated = {
            c
            for c in candidates
            if validate_function_pointer(image, c, disassembly, base, context=context)
        }
        truth = binary.ground_truth
        policies["no pointer stage"].add(compute_metrics(truth, base))
        policies["validated pointers"].add(compute_metrics(truth, base | validated))
        policies["accept all candidates"].add(compute_metrics(truth, base | candidates))
    return policies


def render(policies):
    lines = ["Ablation — function-pointer validation (§IV-E)", "-" * 60]
    lines.append(f"{'policy':<26} {'FP':>10} {'FN':>8}")
    for label, metrics in policies.items():
        lines.append(
            f"{label:<26} {metrics.total_false_positives:>10d} "
            f"{metrics.total_false_negatives:>8d}"
        )
    return "\n".join(lines)


def test_ablation_pointer_validation(benchmark, selfbuilt_corpus_small, report_writer):
    policies = benchmark.pedantic(
        run_policies, args=(selfbuilt_corpus_small,), rounds=1, iterations=1
    )
    report_writer("ablation_xref", render(policies))

    none = policies["no pointer stage"]
    validated = policies["validated pointers"]
    everything = policies["accept all candidates"]

    # Validation only ever adds true functions (coverage up, no new FPs).
    assert validated.total_false_negatives <= none.total_false_negatives
    assert validated.total_false_positives <= none.total_false_positives
    # Taking the raw super-set is catastrophic for accuracy.
    assert everything.total_false_positives > 10 * max(validated.total_false_positives, 1)
