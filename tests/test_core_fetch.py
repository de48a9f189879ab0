"""Tests for the FETCH core: FDE extraction, Algorithm 1 and the pipeline."""

from repro.analysis import RecursiveDisassembler
from repro.core import (
    AnalysisContext,
    FetchDetector,
    FetchOptions,
    detect_tail_calls_and_merge,
    extract_fde_starts,
    fde_symbol_coverage,
)


# ----------------------------------------------------------------------
# FDE extraction (§IV, Q1)
# ----------------------------------------------------------------------

def test_fde_starts_cover_all_fde_backed_functions(rich_binary):
    starts = extract_fde_starts(rich_binary.image)
    for info in rich_binary.ground_truth.functions:
        if info.has_fde and not info.bad_fde_offset:
            assert info.address in starts


def test_fde_starts_miss_assembly_functions(rich_binary):
    starts = extract_fde_starts(rich_binary.image)
    missing = [f for f in rich_binary.ground_truth.functions if not f.has_fde]
    assert missing, "fixture should contain assembly functions without FDEs"
    for info in missing:
        assert info.address not in starts


def test_fde_starts_include_cold_parts(rich_binary):
    starts = extract_fde_starts(rich_binary.image)
    assert rich_binary.ground_truth.cold_part_starts <= starts


def test_fde_symbol_coverage_counts_untyped_assembly_symbols(rich_binary):
    coverage = fde_symbol_coverage(rich_binary.image)
    asm_count = len(rich_binary.ground_truth.functions_without_fde)
    assert coverage.symbol_count > 0
    assert coverage.covered_symbols <= coverage.symbol_count
    assert coverage.symbol_count - coverage.covered_symbols >= asm_count > 0
    assert 0.0 < coverage.ratio <= 1.0


def test_fde_symbol_coverage_of_stripped_binary_is_trivial(stripped_binary):
    coverage = fde_symbol_coverage(stripped_binary.image)
    assert coverage.symbol_count == 0
    assert coverage.ratio == 1.0


# ----------------------------------------------------------------------
# Algorithm 1 (§V-B)
# ----------------------------------------------------------------------

def _algorithm1(binary):
    """Algorithm 1 over the recursive disassembly from ``binary``'s FDEs."""
    image = binary.image
    context = AnalysisContext(image)
    seeds = extract_fde_starts(image)
    disassembly = RecursiveDisassembler(image, context=context).disassemble(seeds)
    return detect_tail_calls_and_merge(image, disassembly, set(seeds), context=context)


def test_algorithm1_merges_cold_parts_of_rsp_framed_functions(rich_binary):
    truth = rich_binary.ground_truth
    outcome = _algorithm1(rich_binary)

    for info in truth.functions:
        for cold in info.cold_part_addresses:
            if info.frame == "rsp":
                assert cold in outcome.merged, info.name
                assert outcome.merged[cold] == info.address
            else:
                assert cold not in outcome.merged, info.name


def test_algorithm1_never_merges_true_function_starts(rich_binary):
    truth = rich_binary.ground_truth
    outcome = _algorithm1(rich_binary)
    wrongly_merged = set(outcome.merged) & truth.function_starts
    # The only true functions Algorithm 1 may merge are tail-call-only
    # targets whose conservative checks fail (the paper's harmless FNs).
    for address in wrongly_merged:
        info = truth.by_address(address)
        assert info.reachable_via == "tailcall", info.name


def test_algorithm1_tail_call_targets_are_real_functions(rich_binary):
    truth = rich_binary.ground_truth
    outcome = _algorithm1(rich_binary)
    for target in outcome.tail_call_targets:
        assert target in truth.function_starts, hex(target)


def test_algorithm1_skips_functions_with_incomplete_cfi(rich_binary):
    truth = rich_binary.ground_truth
    outcome = _algorithm1(rich_binary)
    rbp_functions = {f.address for f in truth.functions if f.frame == "rbp" and f.has_fde}
    assert rbp_functions & outcome.skipped_functions


# ----------------------------------------------------------------------
# The full pipeline (§VI)
# ----------------------------------------------------------------------

def test_fde_only_pipeline_reports_cold_parts_as_starts(rich_binary):
    options = FetchOptions(
        use_recursion=False,
        validate_fde_starts=False,
        use_pointer_validation=False,
        use_tail_call_analysis=False,
    )
    result = FetchDetector(options).detect(rich_binary.image)
    assert result.function_starts == extract_fde_starts(rich_binary.image)


def test_recursion_stage_only_adds_call_targets(rich_binary):
    options = FetchOptions(
        validate_fde_starts=False, use_pointer_validation=False, use_tail_call_analysis=False
    )
    result = FetchDetector(options).detect(rich_binary.image)
    added = result.added_by_stage["recursion"]
    truth = rich_binary.ground_truth
    for address in added:
        info = truth.by_address(address)
        assert info is not None and not info.has_fde


def test_xref_stage_finds_indirect_only_functions_without_false_positives(rich_binary):
    options = FetchOptions(validate_fde_starts=False, use_tail_call_analysis=False)
    result = FetchDetector(options).detect(rich_binary.image)
    truth = rich_binary.ground_truth
    added = result.added_by_stage.get("xref", set())
    assert added <= truth.function_starts
    indirect_asm = {
        f.address
        for f in truth.functions
        if f.reachable_via == "indirect" and not f.has_fde and not f.violates_callconv
    }
    assert indirect_asm <= result.function_starts


def test_full_pipeline_has_no_false_positives_beyond_incomplete_cfi(rich_binary):
    result = FetchDetector().detect(rich_binary.image)
    truth = rich_binary.ground_truth
    false_positives = result.function_starts - truth.function_starts
    for address in false_positives:
        parents = [f for f in truth.functions if address in f.cold_part_addresses]
        assert parents and parents[0].frame == "rbp", hex(address)


def test_full_pipeline_false_negatives_are_harmless(rich_binary):
    result = FetchDetector().detect(rich_binary.image)
    truth = rich_binary.ground_truth
    for address in truth.function_starts - result.function_starts:
        info = truth.by_address(address)
        assert info.reachable_via in ("unreachable", "tailcall"), info.name


def test_pipeline_on_plain_binary_is_exact(plain_binary):
    result = FetchDetector().detect(plain_binary.image)
    truth = plain_binary.ground_truth
    assert result.function_starts == truth.function_starts


def test_pipeline_works_on_stripped_binaries(stripped_binary):
    result = FetchDetector().detect(stripped_binary.image)
    truth = stripped_binary.ground_truth
    recall = len(result.function_starts & truth.function_starts) / truth.function_count
    assert recall > 0.97


def test_pipeline_with_symbols_seed_matches_plain_run(plain_binary):
    plain = FetchDetector().detect(plain_binary.image)
    with_symbols = FetchDetector(FetchOptions(use_symbols=True)).detect(plain_binary.image)
    assert plain.function_starts == with_symbols.function_starts


def test_stage_attribution_is_complete(rich_binary):
    result = FetchDetector().detect(rich_binary.image)
    attributed = set()
    for added in result.added_by_stage.values():
        attributed |= added
    removed = set()
    for gone in result.removed_by_stage.values():
        removed |= gone
    removed |= set(result.merged_parts)
    assert result.function_starts == attributed - removed


def test_disabling_recursion_short_circuits_later_stages(rich_binary):
    options = FetchOptions(use_recursion=False)
    result = FetchDetector(options).detect(rich_binary.image)
    assert "xref" not in result.added_by_stage
    assert "tailcall" not in result.added_by_stage
    assert result.disassembly is None
