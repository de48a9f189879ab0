"""Prologue / signature matching over non-disassembled gaps.

This is one of the *unsafe* approaches of §II-B / §IV-D: scan the bytes that
recursive disassembly did not reach for byte patterns that commonly start a
function.  It finds functions that genuinely start with a standard prologue,
but it also fires on data embedded in the text section and on the middle of
instructions, which is exactly how the false positives quantified in the
paper arise.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.elf.image import BinaryImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext

#: Common x86-64 function prologue byte patterns (most specific first).
PROLOGUE_PATTERNS: tuple[bytes, ...] = (
    b"\xf3\x0f\x1e\xfa",          # endbr64
    b"\x55\x48\x89\xe5",          # push rbp; mov rbp, rsp
    b"\x41\x57\x41\x56",          # push r15; push r14
    b"\x53\x48\x83\xec",          # push rbx; sub rsp, imm8
    b"\x48\x83\xec",              # sub rsp, imm8
)

#: Patterns for CET-instrumented binaries: with indirect-branch tracking every
#: function entry must be an ``endbr64`` landing pad, so a prologue byte
#: sequence *not* anchored at an endbr64 is mid-function code or data, never a
#: function start.  CET-aware matchers therefore trust only the landing pad.
CET_PROLOGUE_PATTERNS: tuple[bytes, ...] = (
    b"\xf3\x0f\x1e\xfa",          # endbr64
)


def select_prologue_patterns(image: BinaryImage) -> tuple[bytes, ...]:
    """The prologue signature set appropriate for ``image``.

    CET binaries (see :attr:`BinaryImage.uses_cet`) get the endbr64-anchored
    set; everything else gets the classic patterns.  This is the scenario
    hook used by all pattern-matching detector models.
    """
    return CET_PROLOGUE_PATTERNS if image.uses_cet else PROLOGUE_PATTERNS


def match_prologues(
    image: BinaryImage,
    gaps: list[tuple[int, int]],
    *,
    patterns: tuple[bytes, ...] = PROLOGUE_PATTERNS,
    context: "AnalysisContext",
) -> set[int]:
    """Return addresses inside ``gaps`` where a prologue pattern occurs.

    The executable sections are scanned for the patterns once per binary (on
    ``context``) and the occurrence lists are filtered down to ``gaps``,
    instead of re-searching the gap windows on every call.
    """
    by_pattern = context.text_pattern_matches(patterns)
    matches: set[int] = set()
    for gap_start, gap_end in gaps:
        section = image.section_containing(gap_start)
        if section is None:
            continue
        end = min(gap_end, section.end_address)
        for pattern, positions in by_pattern.items():
            # A match counts only when the pattern fits inside the gap window
            # (clamped to its section).
            limit = end - len(pattern)
            index = bisect_left(positions, gap_start)
            while index < len(positions) and positions[index] <= limit:
                matches.add(positions[index])
                index += 1
    return matches
