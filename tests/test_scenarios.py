"""Tests for the scenario-matrix corpus subsystem and its evaluation runner:
PIE/PLT, CET, ICF, padded-entry and stripped-noeh binaries, the CET-aware
detector paths, the ScenarioMatrix runner and the process-pool backend."""

from __future__ import annotations

import pytest

from repro.analysis.prologue import (
    CET_PROLOGUE_PATTERNS,
    PROLOGUE_PATTERNS,
    select_prologue_patterns,
)
from repro.core import FetchDetector, FetchOptions
from repro.elf import constants as EC
from repro.elf.image import BinaryImage
from repro.eval import CorpusEvaluator, ScenarioMatrix, compute_metrics
from repro.synth import (
    SCENARIO_NAMES,
    build_scenario_corpus,
    compile_program,
    plan_program,
)
from repro.synth.profiles import CompilerFamily, OptLevel, default_profile

_ENDBR = b"\xf3\x0f\x1e\xfa"


def _build(scenario, seed=7, count=25, **kwargs):
    profile = default_profile(CompilerFamily.GCC, OptLevel.O2)
    plan = plan_program(
        f"scen-{scenario}", profile, seed=seed, scenario=scenario,
        function_count=count, **kwargs
    )
    return compile_program(plan, keep_elf_bytes=True)


@pytest.fixture(scope="module")
def scenario_binaries():
    return {scenario: _build(scenario) for scenario in SCENARIO_NAMES}


# ----------------------------------------------------------------------
# Scenario construction invariants
# ----------------------------------------------------------------------

def test_unknown_scenario_is_rejected():
    profile = default_profile(CompilerFamily.GCC, OptLevel.O2)
    with pytest.raises(ValueError, match="unknown scenario"):
        plan_program("bad", profile, seed=1, scenario="riscv")
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario_corpus("riscv")


def test_vanilla_plans_are_unchanged_by_the_scenario_machinery():
    profile = default_profile(CompilerFamily.GCC, OptLevel.O2)
    explicit = plan_program("same", profile, seed=3, scenario="vanilla")
    implicit = plan_program("same", profile, seed=3)
    assert [f.name for f in explicit.functions] == [f.name for f in implicit.functions]
    assert compile_program(explicit).image.elf.sections[0].data == \
        compile_program(implicit).image.elf.sections[0].data


def test_pie_scenario_builds_et_dyn_with_plt(scenario_binaries):
    binary = scenario_binaries["pie"]
    image = binary.image
    assert image.is_pie
    assert image.elf.elf_type == EC.ET_DYN
    plt = image.section(".plt")
    got = image.section(".got.plt")
    assert plt is not None and plt.is_executable
    assert got is not None and got.is_writable and not got.is_executable

    stubs = [f for f in binary.ground_truth.functions if f.kind == "plt"]
    assert len(stubs) >= 4  # the header plus >= 3 stubs
    for info in stubs:
        assert plt.contains(info.address)
        assert not info.has_fde
    # GOT lazy slots point into the middle of their stubs (stub + 6).
    reserved = 3 * 8
    slots = [
        int.from_bytes(got.data[offset : offset + 8], "little")
        for offset in range(reserved, len(got.data), 8)
    ]
    stub_addresses = {f.address for f in stubs if f.name.endswith("@plt")}
    assert {slot - 6 for slot in slots} == stub_addresses
    # PIE survives an ELF write/read round trip.
    reloaded = BinaryImage.from_bytes(binary.elf_bytes, "rt")
    assert reloaded.is_pie and reloaded.section(".plt") is not None


def test_pie_plt_stubs_are_recovered_by_call_targets(scenario_binaries):
    binary = scenario_binaries["pie"]
    result = FetchDetector().detect(binary.image)
    stub_addresses = {
        f.address
        for f in binary.ground_truth.functions
        if f.kind == "plt" and f.name.endswith("@plt")
    }
    assert stub_addresses <= result.function_starts


def test_cet_scenario_prefixes_every_fde_function_with_endbr(scenario_binaries):
    binary = scenario_binaries["cet"]
    image = binary.image
    assert image.uses_cet
    for info in binary.ground_truth.functions:
        if info.has_fde:
            assert image.read(info.address, 4) == _ENDBR, info.name
    # Non-CET binaries are not misclassified.
    assert not scenario_binaries["vanilla"].image.uses_cet


def test_cet_aware_pattern_selection(scenario_binaries):
    assert select_prologue_patterns(scenario_binaries["cet"].image) == CET_PROLOGUE_PATTERNS
    assert select_prologue_patterns(scenario_binaries["vanilla"].image) == PROLOGUE_PATTERNS


def test_icf_scenario_folds_symbols_onto_shared_bodies(scenario_binaries):
    binary = scenario_binaries["icf"]
    folded = [f for f in binary.ground_truth.functions if f.folded_aliases]
    assert folded, "ICF scenario must fold at least one function"
    symbols = {s.name: s.address for s in binary.image.symbols}
    for info in folded:
        for alias in info.folded_aliases:
            assert symbols[alias] == info.address
    # Folding adds symbols, not functions: more symbols than bodies at .text.
    function_symbols = [s for s in binary.image.function_symbols]
    assert len(function_symbols) > len({s.address for s in function_symbols})


def test_padded_scenario_entries_start_with_nop_runs(scenario_binaries):
    binary = scenario_binaries["padded"]
    padded = [f for f in binary.ground_truth.functions if f.entry_padding]
    assert padded, "padded scenario must pad at least one entry"
    from repro.x86.disassembler import decode_instruction

    for info in padded:
        section = binary.image.section_containing(info.address)
        offset = info.address - section.address
        consumed = 0
        while consumed < info.entry_padding:
            insn = decode_instruction(section.data, offset + consumed, info.address + consumed)
            assert insn.mnemonic == "nop"
            consumed += insn.size
        assert consumed == info.entry_padding
    # The FDE still covers the true (padded) start, so FETCH stays exact.
    result = FetchDetector().detect(binary.image)
    metrics = compute_metrics(binary.ground_truth, result.function_starts)
    assert {f.address for f in padded} & metrics.false_negatives == set()


def test_stripped_noeh_scenario_has_neither_symbols_nor_eh(scenario_binaries):
    binary = scenario_binaries["stripped-noeh"]
    image = binary.image
    assert not image.has_eh_frame and not image.has_symbols
    # The written ELF drops .symtab entirely, like `strip` output.
    reloaded = BinaryImage.from_bytes(binary.elf_bytes, "rt")
    assert reloaded.elf.section(".symtab") is None


def test_fetch_entry_fallback_recovers_functions_without_eh(scenario_binaries):
    binary = scenario_binaries["stripped-noeh"]
    with_fallback = FetchDetector().detect(binary.image)
    without = FetchDetector(FetchOptions(fallback_entry_seed=False)).detect(binary.image)
    # Without the fallback only pointer-validated starts survive (no FDE and
    # no entry seed); the entry function itself is unreachable.
    assert binary.image.entry_point not in without.function_starts
    assert without.function_starts < with_fallback.function_starts
    metrics = compute_metrics(binary.ground_truth, with_fallback.function_starts)
    # Recursive traversal from the entry point recovers most call-reachable
    # functions even with no .eh_frame and no symbols.
    assert metrics.recall > 0.8


# ----------------------------------------------------------------------
# ScenarioMatrix runner and the process-pool backend
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_corpora():
    return {
        scenario: build_scenario_corpus(scenario, scale=0.25, programs=2, seed=11)
        for scenario in ("vanilla", "cet", "stripped-noeh")
    }


def test_scenario_matrix_covers_every_cell(tiny_corpora):
    cells = ScenarioMatrix(tiny_corpora).run()
    assert set(cells) == set(tiny_corpora)
    for scenario, row in cells.items():
        assert len(row) == 10
        for tool, summary in row.items():
            assert summary["binaries"] == 2, (scenario, tool)


def test_scenario_matrix_bench_record(tmp_path, tiny_corpora):
    matrix = ScenarioMatrix(
        {"vanilla": tiny_corpora["vanilla"]}, bench_dir=tmp_path
    )
    matrix.run()
    path = matrix.write_bench("matrix_smoke", extra={"note": 1})
    assert path is not None and path.name == "BENCH_matrix_smoke.json"
    import json

    record = json.loads(path.read_text())
    assert record["cells"]["vanilla"]["fetch"]["binaries"] == 2
    assert record["scenarios"] == {"vanilla": 2}
    assert record["extra"] == {"note": 1}
    assert any(key.startswith("vanilla:") for key in record["timings_seconds"])


def test_process_pool_matches_serial_evaluation(tiny_corpora):
    corpus = tiny_corpora["vanilla"] + tiny_corpora["cet"]
    serial = CorpusEvaluator(corpus).run_detector(FetchDetector)
    with CorpusEvaluator(corpus, workers=2) as evaluator:
        parallel = evaluator.run_detector(FetchDetector)
        fde_serial = CorpusEvaluator(corpus).fde_only_metrics()
        fde_parallel = evaluator.fde_only_metrics()
    assert [m.__dict__ for m in parallel.per_binary] == [m.__dict__ for m in serial.per_binary]
    assert [m.__dict__ for m in fde_parallel.per_binary] == [m.__dict__ for m in fde_serial.per_binary]


def test_process_pool_aggregates_decode_stats(tiny_corpora):
    """Worker decode counts fold back into the parent's ``DECODE_STATS``."""
    from repro.x86.disassembler import DECODE_STATS

    corpus = tiny_corpora["vanilla"]
    before = DECODE_STATS.raw_decodes
    CorpusEvaluator(corpus).run_detector(FetchDetector)
    serial_decodes = DECODE_STATS.raw_decodes - before
    assert serial_decodes > 0

    before = DECODE_STATS.raw_decodes
    with CorpusEvaluator(corpus, workers=2) as evaluator:
        evaluator.run_detector(FetchDetector)
    assert DECODE_STATS.raw_decodes - before == serial_decodes


def test_cold_detection_decode_count_is_exact(tiny_corpora):
    """``DECODE_STATS.raw_decodes`` counts exactly the cache-filling work.

    The span-cached cold pipeline must decode every instruction at most once
    and never decode past what it records: the raw-decode delta of a cold
    detection equals the decode-cache population (each raw decode fills
    exactly one slot — no prefetch overshoot, no uncached decodes), and a
    warm re-run on the same context performs zero raw decodes.
    """
    from repro.core import AnalysisContext
    from repro.x86.disassembler import DECODE_STATS

    for corpus in tiny_corpora.values():
        for binary in corpus:
            image = BinaryImage(elf=binary.image.elf, name=binary.name)
            context = AnalysisContext(image)
            before = DECODE_STATS.raw_decodes
            FetchDetector().detect(image, context)
            cold = DECODE_STATS.raw_decodes - before
            assert cold == len(context.decode_cache) > 0

            before = DECODE_STATS.raw_decodes
            FetchDetector().detect(image, context)
            assert DECODE_STATS.raw_decodes == before


def test_process_pool_tool_comparison_matches_serial(tiny_corpora):
    from repro.eval import run_tool_comparison

    corpus = tiny_corpora["vanilla"]
    serial = CorpusEvaluator(corpus)
    with CorpusEvaluator(corpus, workers=2) as processes:
        assert run_tool_comparison(corpus, evaluator=processes) == run_tool_comparison(
            corpus, evaluator=serial
        )


def test_closures_run_serially(tiny_corpora):
    corpus = tiny_corpora["vanilla"]
    with CorpusEvaluator(corpus, workers=2) as evaluator:
        seen = []

        def not_picklable(binary, context):
            seen.append(binary.name)
            return binary.name

        names = evaluator.map(not_picklable, corpus)
    assert names == [binary.name for binary in corpus]
    assert seen == names


def test_foreign_binaries_run_serially(tiny_corpora):
    with CorpusEvaluator(tiny_corpora["vanilla"], workers=2) as evaluator:
        foreign = tiny_corpora["cet"]
        from repro.eval.runner import _fde_only_binary_metrics

        per = evaluator.map(_fde_only_binary_metrics, foreign)
    assert len(per) == len(foreign)


def test_unpicklable_fn_args_run_serially(tiny_corpora):
    from repro.eval.runner import _detect_binary_metrics

    corpus = tiny_corpora["vanilla"]

    class UnpicklableDetector:
        name = "unpicklable"
        _handle = lambda: None  # noqa: E731 - instance-level lambda defeats pickle

        def __init__(self):
            self.closure = lambda: None

        def detect(self, image, context=None):
            return FetchDetector().detect(image, context)

    with CorpusEvaluator(corpus, workers=2) as evaluator:
        per = evaluator.map(
            _detect_binary_metrics, corpus, fn_args=(UnpicklableDetector(),)
        )
    assert len(per) == len(corpus)


def test_pattern_baselines_survive_malformed_eh_frame(scenario_binaries):
    # uses_cet probes FDE starts; a corrupt .eh_frame must degrade to
    # "not CET", not crash detectors that never read .eh_frame themselves.
    from repro.baselines import ByteWeightLike
    from repro.elf.structs import ElfFile, Section

    source = scenario_binaries["cet"].image
    broken_sections = []
    for section in source.elf.sections:
        if section.name == ".eh_frame":
            data = bytearray(section.data)
            data[4:8] = b"\xff\xfe\xfd\xfc"  # corrupt the first CIE id field
            section = Section(name=section.name, data=bytes(data),
                              address=section.address, flags=section.flags)
        broken_sections.append(section)
    image = BinaryImage(
        elf=ElfFile(sections=broken_sections, symbols=source.elf.symbols,
                    entry_point=0),  # no entry: force the FDE-sampling path
        name="broken-eh",
    )
    assert image.uses_cet is False
    result = ByteWeightLike().detect(image)
    assert result.function_starts  # signature matching still ran
