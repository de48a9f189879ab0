"""Tests for the decoded-span cache layer and the lazy CFI decode.

Two properties anchor the one-decode cold pipeline:

* the span index keys span starts only, and every spanned instruction is
  served from the shared decode cache (detector output itself is pinned by
  ``tests/test_golden_outputs.py``);
* ``.eh_frame`` parsing validates CFI programs without decoding them —
  ``decode_cfi_program`` runs only when a CFA row is actually queried.
"""

from __future__ import annotations

import pytest

from repro.core import AnalysisContext, FetchDetector
from repro.elf.image import BinaryImage
from repro.synth import build_scenario_corpus


@pytest.fixture(scope="module")
def small_binary():
    return build_scenario_corpus("vanilla", scale=0.25, programs=1, seed=11)[0]


def test_span_index_holds_span_starts_only(small_binary):
    """Interior span addresses resolve through the decode cache, not the
    index: ``span_at`` answers ``None`` for them while ``decode`` still
    serves the instruction, and every index entry keys a span's first
    instruction."""
    image = BinaryImage(elf=small_binary.image.elf, name=small_binary.name)
    context = AnalysisContext(image)
    FetchDetector().detect(image, context)
    assert context._span_index, "cold detection built no spans"
    interior_seen = 0
    for start, span in context._span_index.items():
        assert span.insns[0].address == start
        for insn in span.insns:
            assert context.decode_cache.get(insn.address) is insn
        for insn in span.insns[1:]:
            if insn.address in context._span_index:
                continue  # a later walk started a span at this address
            assert context.span_at(insn.address) is None
            assert context.decode(insn.address) is insn
            interior_seen += 1
    assert interior_seen > 0


def test_cfi_programs_decode_only_when_rows_are_queried(small_binary, monkeypatch):
    """``parse_eh_frame`` and the completeness scan never build
    ``CfiInstruction`` objects; the first CFA row query does."""
    import repro.dwarf.cfi as cfi

    calls = []
    real = cfi.decode_cfi_program

    def counting(raw, **kwargs):
        calls.append(len(raw))
        return real(raw, **kwargs)

    monkeypatch.setattr(cfi, "decode_cfi_program", counting)

    image = BinaryImage(elf=small_binary.image.elf, name=small_binary.name)
    fdes = image.fdes  # parses .eh_frame (validation scan only)
    assert fdes, "test binary must carry .eh_frame"
    assert calls == []

    context = AnalysisContext(image)
    fde = fdes[0]
    table = context.cfa_table(fde)
    # The §V-B conservativeness gate runs on raw CFI bytes.
    table.has_complete_stack_height
    assert calls == []

    # The first actual row query forces the decode.
    table.stack_height_at(fde.pc_begin)
    assert calls
