"""ANGR-style detector model.

Strategies (paper §IV-C / §IV-D): seed from symbols and FDEs, recursive
disassembly, an *alignment* heuristic (in a padding region, the first
non-padding instruction becomes a function start), *function merging* (two
adjacent functions connected by the only jump between them are merged),
prologue matching over gaps, a heuristic tail-call detector, and a *linear
scan* of the remaining gaps.  The toggles correspond to the Figure 5b ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.linearscan import linear_scan_gaps
from repro.analysis.padding import PADDING_BYTES
from repro.baselines.base import BaselineTool
from repro.core.context import AnalysisContext, context_for
from repro.core.registry import register_detector
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage


@dataclass(frozen=True)
class AngrOptions:
    """Strategy toggles matching Figure 5b."""

    function_merging: bool = False
    function_matching: bool = False
    tail_call_heuristic: bool = False
    linear_scan: bool = False


@register_detector(
    "angr",
    options=AngrOptions,
    order=80,
    comparison=True,
    needs_eh_frame=True,
    cet_aware=True,
    description="FDE+symbol seeds, recursion, alignment and merge heuristics",
)
class AngrLike(BaselineTool):
    """A strategy-faithful model of angr's CFGFast function detection."""

    def __init__(self, options: AngrOptions | None = None):
        self.options = options or AngrOptions()

    def detect(
        self, image: BinaryImage, context: AnalysisContext | None = None
    ) -> DetectionResult:
        options = self.options
        context = context_for(image, context)
        result = DetectionResult(binary_name=image.name)

        seeds = self._fde_starts(image) | self._symbol_starts(image)
        seeds = {s for s in seeds if image.is_executable_address(s)}
        result.record_stage("seeds", seeds)

        disassembler, disassembly, starts = self._recursive(image, seeds, context)
        result.disassembly = disassembly
        result.record_stage("recursion", starts - result.function_starts)

        added = self._alignment_starts(image, disassembly, result.function_starts)
        result.record_stage("alignment", added)

        if options.function_merging:
            removed = self._merge_adjacent(image, disassembly, result.function_starts)
            result.record_stage("fmerge", set(), removed)

        if options.function_matching:
            matches = {
                m
                for m in self._prologue_matches(
                    image, self._gaps(image, disassembly), context
                )
                if m not in result.function_starts
            }
            grown = self._grow_from_matches(image, disassembler, disassembly, matches)
            result.record_stage("fsig", grown - result.function_starts)

        if options.tail_call_heuristic:
            added = self._heuristic_tail_calls(image, disassembly, result.function_starts)
            result.record_stage("tailcall", added - result.function_starts)

        if options.linear_scan:
            scanned = linear_scan_gaps(
                image,
                self._gaps(image, disassembly),
                context=context,
                require_endbr=image.uses_cet,
            )
            result.record_stage("scan", scanned - result.function_starts)

        return result

    # ------------------------------------------------------------------
    def _alignment_starts(
        self, image: BinaryImage, disassembly, starts: set[int]
    ) -> set[int]:
        """First non-padding byte of a padding-led gap becomes a start."""
        added: set[int] = set()
        for gap_start, gap_end in self._gaps(image, disassembly):
            section = image.section_containing(gap_start)
            if section is None:
                continue
            data = section.data
            cursor = gap_start
            saw_padding = False
            while cursor < gap_end:
                byte = data[cursor - section.address]
                if byte in PADDING_BYTES:
                    saw_padding = True
                    cursor += 1
                    continue
                break
            if saw_padding and cursor < gap_end and cursor not in starts:
                added.add(cursor)
        return added

    def _merge_adjacent(
        self, image: BinaryImage, disassembly, starts: set[int]
    ) -> set[int]:
        """Merge two adjacent functions connected by the only jump between them."""
        removed: set[int] = set()
        ordered = sorted(starts)
        jump_targets: dict[int, list[int]] = {}
        for insn in disassembly.instructions.values():
            if insn.is_jump and insn.branch_target is not None:
                jump_targets.setdefault(insn.branch_target, []).append(insn.address)

        for index in range(len(ordered) - 1):
            first, second = ordered[index], ordered[index + 1]
            function = disassembly.functions.get(first)
            if function is None:
                continue
            outgoing = [
                j
                for j in function.jumps
                if j.branch_target is not None and not (first <= j.branch_target < second)
            ]
            if len(outgoing) != 1 or outgoing[0].branch_target != second:
                continue
            incoming = jump_targets.get(second, [])
            if len(incoming) == 1 and incoming[0] == outgoing[0].address:
                removed.add(second)
        return removed

    def _heuristic_tail_calls(
        self, image: BinaryImage, disassembly, starts: set[int]
    ) -> set[int]:
        added: set[int] = set()
        fde_ranges = {fde.pc_begin: (fde.pc_begin, fde.pc_end) for fde in image.fdes}
        for start, function in disassembly.functions.items():
            begin, end = fde_ranges.get(start, (start, function.end))
            for jump in function.jumps:
                target = jump.branch_target
                if target is None or not image.is_executable_address(target):
                    continue
                if begin <= target < end:
                    continue
                if target not in starts:
                    added.add(target)
        return added
