"""Tests for the decoded-span cache layer.

Every decodable code address has a span: the index keys each span by its
first instruction, and an address inside a built span gets a suffix span
served from the shared decode cache (detector output itself is pinned by
``tests/test_golden_outputs.py``).
"""

from __future__ import annotations

import pytest

from repro.core import AnalysisContext, FetchDetector
from repro.core.context import _SPAN_STOP
from repro.elf.image import BinaryImage
from repro.synth import build_scenario_corpus
from repro.x86.disassembler import DECODE_STATS


@pytest.fixture(scope="module")
def small_binary():
    return build_scenario_corpus("vanilla", scale=0.25, programs=1, seed=11)[0]


def test_interior_span_address_gets_the_enclosing_tail(small_binary):
    """``span_at`` at an interior span address returns the enclosing span's
    tail as the same ``Instruction`` objects, indexed under its first
    instruction, without a raw decode."""
    image = BinaryImage(elf=small_binary.image.elf, name=small_binary.name)
    context = AnalysisContext(image)
    FetchDetector().detect(image, context)
    index = context._span_index
    assert index, "cold detection built no spans"
    interior_seen = 0
    for start, span in list(index.items()):
        assert span.insns[0].address == start
        for insn in span.insns:
            assert context.decode_cache.get(insn.address) is insn
        if not (span.failed or span.insns[-1]._flags & _SPAN_STOP):
            continue  # budget-truncated: a suffix span may run past its end
        for i, insn in enumerate(span.insns[1:], 1):
            if insn.address in index:
                continue  # a walk already started a span at this address
            before = DECODE_STATS.raw_decodes
            tail = context.span_at(insn.address)
            assert DECODE_STATS.raw_decodes == before
            assert len(tail.insns) == len(span.insns) - i
            assert all(a is b for a, b in zip(tail.insns, span.insns[i:]))
            assert tail.failed == span.failed
            assert index[insn.address] is tail
            interior_seen += 1
    assert interior_seen > 0
    for start, span in index.items():
        assert span.insns[0].address == start
