"""Tests for the decoded-span cache layer.

The span index keys span starts only, and every spanned instruction is
served from the shared decode cache (detector output itself is pinned by
``tests/test_golden_outputs.py``).
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

