"""Shared-context parity and caching behaviour.

The contract of :class:`repro.core.context.AnalysisContext`: every detector
produces byte-identical results whether it runs with a private context or
with a context shared across all detectors, and repeated decodes hit the
cache instead of re-decoding.
"""

from __future__ import annotations

import pytest

from repro.analysis.gaps import compute_gaps
from repro.analysis.prologue import PROLOGUE_PATTERNS, match_prologues
from repro.analysis.recursive import RecursiveDisassembler
from repro.baselines import all_comparison_tools
from repro.baselines.nucleus_like import NucleusLike
from repro.core import AnalysisContext, FetchDetector
from repro.core.context import context_for
from repro.eval import CorpusEvaluator, compute_metrics, run_figure5c, run_tool_comparison
from repro.eval.runner import _tool_comparison_metrics
from repro.x86.disassembler import DecodeError, decode_instruction


def _all_detectors():
    return all_comparison_tools() + [FetchDetector()]


def _snapshot(result):
    """The complete observable output of a detection run."""
    return {
        "starts": sorted(result.function_starts),
        "added": {k: sorted(v) for k, v in result.added_by_stage.items()},
        "removed": {k: sorted(v) for k, v in result.removed_by_stage.items()},
        "merged": dict(result.merged_parts),
        "tailcalls": sorted(result.tail_call_targets),
    }


# ----------------------------------------------------------------------
# Parity: shared context vs fresh runs
# ----------------------------------------------------------------------

def test_every_detector_is_context_parity_clean(small_corpus):
    """FETCH and all nine baselines: shared context == uncached run."""
    for binary in small_corpus:
        shared = AnalysisContext(binary.image)
        for detector in _all_detectors():
            fresh = detector.detect(binary.image)
            cached = detector.detect(binary.image, shared)
            assert _snapshot(fresh) == _snapshot(cached), (
                f"{detector.name} diverges on {binary.name} with a shared context"
            )


def test_repeated_runs_on_one_context_stay_stable(small_corpus):
    """Re-running a detector on a warm context changes nothing."""
    binary = small_corpus[0]
    context = AnalysisContext(binary.image)
    detector = FetchDetector()
    first = detector.detect(binary.image, context)
    second = detector.detect(binary.image, context)
    assert _snapshot(first) == _snapshot(second)


def test_prologue_matching_parity_with_context(small_corpus):
    """The context's whole-text occurrence lists, filtered to gaps, equal a
    direct search of every gap window."""
    binary = small_corpus[0]
    image = binary.image
    context = AnalysisContext(image)
    disassembly = RecursiveDisassembler(image, context=context).disassemble(
        {fde.pc_begin for fde in image.fdes}
    )
    gaps = compute_gaps(image, disassembly)
    expected: set[int] = set()
    for gap_start, gap_end in gaps:
        section = image.section_containing(gap_start)
        window = image.read(gap_start, min(gap_end, section.end_address) - gap_start)
        for pattern in PROLOGUE_PATTERNS:
            offset = window.find(pattern)
            while offset != -1:
                expected.add(gap_start + offset)
                offset = window.find(pattern, offset + 1)
    assert expected
    assert match_prologues(image, gaps, context=context) == expected


def test_context_rejects_foreign_image(small_corpus):
    context = AnalysisContext(small_corpus[0].image)
    with pytest.raises(ValueError, match="context was built for"):
        context_for(small_corpus[1].image, context)


def _walk(disassembler, start, function):
    """Everything the recursive walk records for one function."""
    return {
        "instructions": list(function.instructions.items()),
        "jumps": [insn.address for insn in function.jumps],
        "call_sites": function.call_sites,
        "code_constants": function.code_constants,
        "had_decode_error": function.had_decode_error,
        "is_noreturn": disassembler.is_noreturn(start),
    }


def test_walks_from_interior_addresses_match_a_fresh_context(small_corpus):
    """A decode cache pre-filled by a linear sweep (no spans built, so most
    walk entries are interior addresses, as in a tool comparison) gives the
    same traversal and §IV-E verdicts as a fresh context."""
    for binary in small_corpus:
        image = binary.image
        seeds = {fde.pc_begin for fde in image.fdes}
        runs = []
        for prewarm in (False, True):
            context = AnalysisContext(image)
            if prewarm:
                NucleusLike().detect(image, context)
                assert not context._span_index and context.decode_cache
            rejected = context.filter_invalid_entries(seeds)
            disassembler = RecursiveDisassembler(image, context=context)
            functions = disassembler.disassemble(seeds).functions
            walks = {start: _walk(disassembler, start, f) for start, f in functions.items()}
            for walk in walks.values():
                # Each instruction is walked once, also through a partly
                # visited span.
                assert len(set(walk["jumps"])) == len(walk["jumps"])
                assert len(set(walk["call_sites"])) == len(walk["call_sites"])
            runs.append((rejected, walks))
        assert runs[0] == runs[1], binary.name


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------

def test_repeated_decodes_hit_the_cache(small_corpus):
    binary = small_corpus[0]
    context = AnalysisContext(binary.image)
    address = min(fde.pc_begin for fde in binary.image.fdes)

    first = context.decode(address)
    assert first is not None
    misses = context.decode_cache.misses
    hits_before = context.decode_cache.hits
    second = context.decode(address)
    assert second is first
    assert context.decode_cache.hits == hits_before + 1
    assert context.decode_cache.misses == misses


def test_second_detector_reuses_decode_work(small_corpus):
    """A second detector on a warm context re-decodes nothing at all."""
    binary = small_corpus[0]
    context = AnalysisContext(binary.image)
    FetchDetector().detect(binary.image, context)
    cached_instructions = len(context.decode_cache)
    cached_functions = len(context.function_cache)
    misses_before = context.decode_cache.misses
    assert cached_instructions > 0 and cached_functions > 0

    FetchDetector().detect(binary.image, context)
    assert len(context.decode_cache) == cached_instructions
    assert len(context.function_cache) == cached_functions
    assert context.decode_cache.misses == misses_before


def test_decode_instruction_cache_replays_errors():
    cache: dict = {}
    good = bytes.fromhex("55")  # push rbp
    insn = decode_instruction(good, 0, 0x1000, cache)
    assert decode_instruction(good, 0, 0x1000, cache) is insn

    bad = b"\x06"  # unsupported opcode
    with pytest.raises(DecodeError):
        decode_instruction(bad, 0, 0x2000, cache)
    assert cache[0x2000] is None
    with pytest.raises(DecodeError):
        decode_instruction(bad, 0, 0x2000, cache)


def test_context_stats_report_cached_state(small_corpus):
    binary = small_corpus[0]
    context = AnalysisContext(binary.image)
    FetchDetector().detect(binary.image, context)
    stats = context.stats()
    assert stats.cached_instructions == len(context.decode_cache)
    assert stats.cached_instructions > 0
    assert stats.cached_cfa_tables > 0
    assert stats.cached_callconv_checks > 0
    assert 0.0 <= stats.decode_hit_ratio <= 1.0
    assert stats.as_dict()["decode_hits"] == stats.decode_hits


def test_mutually_recursive_functions_stay_out_of_shared_cache():
    """Noreturn facts on call cycles are order-dependent; never share them."""
    from repro.elf import constants as C
    from repro.elf.image import BinaryImage
    from repro.elf.structs import ElfFile, Section

    a, b = 0x401000, 0x401010
    code = bytearray(0x20)
    code[0x00:0x05] = b"\xe8\x0b\x00\x00\x00"  # A: call B
    code[0x05] = 0xC3  # ret
    code[0x06:0x10] = b"\x90" * 10
    code[0x10:0x15] = b"\xe8\xeb\xff\xff\xff"  # B: call A
    code[0x15] = 0xC3  # ret
    code[0x16:0x20] = b"\x90" * 10
    text = Section(
        name=".text", data=bytes(code), address=a,
        flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
    )
    image = BinaryImage(elf=ElfFile(sections=[text], entry_point=a), name="cycle")

    context = AnalysisContext(image)
    shared_disassembler = RecursiveDisassembler(image, context=context)
    shared = shared_disassembler.disassemble({a, b})
    assert set(shared.functions) == {a, b}
    # Both functions sit on the call cycle: tainted, so nothing is cached.
    assert shared_disassembler._tainted == {a, b}
    assert context.function_cache == {}

    fresh = RecursiveDisassembler(image, context=AnalysisContext(image)).disassemble({a, b})
    for start in (a, b):
        assert set(fresh.functions[start].instructions) == set(
            shared.functions[start].instructions
        )

    # Context-level noreturn queries run on fresh state each time, so the
    # answer is query-order independent even on the cycle (both return).
    forward = AnalysisContext(image)
    backward = AnalysisContext(image)
    assert [forward.is_noreturn(a), forward.is_noreturn(b)] == [
        backward.is_noreturn(b), backward.is_noreturn(a)
    ][::-1]
    assert a not in forward._noreturn  # cycle members are never memoized


def test_precise_noreturn_analysis_parity_on_cycles():
    """Precise NoreturnAnalysis must agree on a fresh and on a warm context
    even when a call cycle makes the fix-point entry-order dependent."""
    from repro.analysis.noreturn import NoreturnAnalysis
    from repro.elf import constants as C
    from repro.elf.image import BinaryImage
    from repro.elf.structs import ElfFile, Section

    b, a = 0x401000, 0x401010
    code = bytearray(0x20)
    code[0x00:0x05] = b"\xe8\x0b\x00\x00\x00"  # B: call A
    code[0x05] = 0xC3  # ret
    code[0x06:0x10] = b"\x90" * 10
    code[0x10:0x15] = b"\xe8\xeb\xff\xff\xff"  # A: call B
    code[0x15] = 0xF4  # hlt — A never returns on its own path
    code[0x16:0x20] = b"\x90" * 10
    text = Section(
        name=".text", data=bytes(code), address=b,
        flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
    )
    image = BinaryImage(elf=ElfFile(sections=[text], entry_point=b), name="nr-cycle")

    warm = AnalysisContext(image)
    disassembly = RecursiveDisassembler(image, context=warm).disassemble({a, b})
    warm.is_noreturn(a)
    fresh = NoreturnAnalysis(image, context=AnalysisContext(image)).compute(disassembly)
    assert NoreturnAnalysis(image, context=warm).compute(disassembly) == fresh


# ----------------------------------------------------------------------
# Parallel corpus evaluation
# ----------------------------------------------------------------------

def test_parallel_evaluation_matches_serial(small_corpus):
    corpus = small_corpus[:4]
    serial = run_tool_comparison(corpus, evaluator=CorpusEvaluator(corpus))
    with CorpusEvaluator(corpus, workers=2) as evaluator:
        parallel = run_tool_comparison(corpus, evaluator=evaluator)
    assert serial == parallel


def test_unshared_evaluation_matches_shared(small_corpus):
    """The before/after benchmark comparison is apples to apples: a private
    context per detector run (``tool.detect(image)``) and one shared context
    per binary give the same metrics, binary by binary."""
    corpus = small_corpus[:3]
    tools = _all_detectors()
    unshared = [
        {
            tool.name: compute_metrics(
                binary.ground_truth, tool.detect(binary.image).function_starts
            )
            for tool in tools
        }
        for binary in corpus
    ]
    shared = CorpusEvaluator(corpus).map(_tool_comparison_metrics, fn_args=(tools,))
    assert unshared == shared


def test_shared_ladder_matches_fresh_ladder(small_corpus):
    corpus = small_corpus[:4]
    fresh = run_figure5c(corpus)
    shared = run_figure5c(corpus, evaluator=CorpusEvaluator(corpus))
    assert [o.label for o in fresh] == [o.label for o in shared]
    for a, b in zip(fresh, shared):
        assert a.metrics.summary() == b.metrics.summary()
        assert [m.false_positives for m in a.metrics.per_binary] == [
            m.false_positives for m in b.metrics.per_binary
        ]
        assert [m.false_negatives for m in a.metrics.per_binary] == [
            m.false_negatives for m in b.metrics.per_binary
        ]


def test_evaluator_map_preserves_corpus_order(small_corpus):
    evaluator = CorpusEvaluator(small_corpus)
    names = evaluator.map(lambda binary, context: binary.name)
    assert names == [binary.name for binary in small_corpus]


def test_evaluator_reuses_one_context_per_binary(small_corpus):
    evaluator = CorpusEvaluator(small_corpus)
    first = evaluator.context_for(small_corpus[0])
    assert evaluator.context_for(small_corpus[0]) is first
    assert evaluator.context_for(small_corpus[1]) is not first

    evaluator.release(small_corpus[0])
    assert evaluator.context_for(small_corpus[0]) is not first
    evaluator.release()
    assert evaluator._contexts == {}


def test_evaluator_writes_bench_record(tmp_path, small_corpus):
    import json

    corpus = small_corpus[:2]
    evaluator = CorpusEvaluator(corpus, workers=1, bench_dir=tmp_path)
    evaluator.timed("smoke", evaluator.run_detector, FetchDetector)
    path = evaluator.write_bench("smoke_test", extra={"note": "unit"})
    assert path is not None and path.name == "BENCH_smoke_test.json"
    record = json.loads(path.read_text())
    assert record["bench"] == "smoke_test"
    assert record["workers"] == 1
    assert record["corpus_size"] == 2
    assert record["timings_seconds"]["smoke"] >= 0
    assert record["cache"]["decode_misses"] > 0
    assert record["extra"] == {"note": "unit"}


def test_evaluator_without_bench_dir_writes_nothing(small_corpus):
    evaluator = CorpusEvaluator(small_corpus[:1])
    assert evaluator.write_bench("nowhere") is None
