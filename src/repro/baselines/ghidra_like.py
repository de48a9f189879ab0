"""GHIDRA-style detector model.

Strategies (paper §IV-C / §IV-D): seed from symbols and FDEs, recursive
disassembly, *control-flow repairing* (remove the function start after a
non-returning call when nothing else references it), a *thunk* heuristic
(the target of a function that starts with a jump becomes a function start),
optional prologue matching and an optional heuristic tail-call detector.
The toggles correspond to the Figure 5a ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.noreturn import NoreturnAnalysis
from repro.baselines.base import BaselineTool
from repro.core.context import AnalysisContext, context_for
from repro.core.registry import register_detector
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage


@dataclass(frozen=True)
class GhidraOptions:
    """Strategy toggles matching Figure 5a."""

    control_flow_repair: bool = False
    function_matching: bool = False
    tail_call_heuristic: bool = False


@register_detector(
    "ghidra",
    options=GhidraOptions,
    order=70,
    comparison=True,
    needs_eh_frame=True,
    cet_aware=True,
    description="FDE+symbol seeds, recursion, thunks and optional repair",
)
class GhidraLike(BaselineTool):
    """A strategy-faithful model of GHIDRA's function detection."""

    def __init__(self, options: GhidraOptions | None = None):
        self.options = options or GhidraOptions()

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

        if options.control_flow_repair:
            removed = self._control_flow_repair(
                image, disassembly, result.function_starts, context
            )
            result.record_stage("cfr", set(), removed)

        added = self._thunk_targets(image, disassembly, result.function_starts)
        result.record_stage("thunk", added)

        if options.function_matching:
            added = self._strict_function_matching(
                image, disassembly, result.function_starts, context
            )
            grown = self._grow_from_matches(image, disassembler, disassembly, added)
            result.record_stage("fsig", grown - result.function_starts)

        if options.tail_call_heuristic:
            added = self._heuristic_tail_calls(image, disassembly, result.function_starts)
            result.record_stage("tailcall", added - result.function_starts)

        return result

    # ------------------------------------------------------------------
    def _control_flow_repair(
        self, image: BinaryImage, disassembly, starts: set[int], context: AnalysisContext
    ) -> set[int]:
        """Remove starts that follow a non-returning function and lack references.

        The noreturn analysis used here is deliberately the eager
        (over-approximating) one; combined with the incompleteness of
        reference collection this removes true function starts, which is the
        coverage loss the paper measures for GHIDRA.
        """
        noreturn = NoreturnAnalysis(image, mode="eager", context=context).compute(disassembly)
        referenced = self._reference_targets(disassembly)
        ordered = sorted(starts)
        removed: set[int] = set()
        for index, start in enumerate(ordered):
            if index == 0 or start == image.entry_point:
                continue
            if start in referenced:
                continue
            previous = ordered[index - 1]
            if previous in noreturn:
                removed.add(start)
        return removed

    def _thunk_targets(
        self, image: BinaryImage, disassembly, starts: set[int]
    ) -> set[int]:
        """A function that begins with a jump is a thunk; its target is a start."""
        added: set[int] = set()
        for start in starts:
            function = disassembly.functions.get(start)
            if function is None:
                continue
            first = function.instructions.get(start)
            if first is None:
                continue
            if first.mnemonic == "endbr64":
                first = function.instructions.get(first.end)
            if first is None or not first.is_unconditional_jump:
                continue
            target = first.branch_target
            if target is not None and image.is_executable_address(target):
                if target not in starts:
                    added.add(target)
        return added

    def _strict_function_matching(
        self,
        image: BinaryImage,
        disassembly,
        starts: set[int],
        context: AnalysisContext,
    ) -> set[int]:
        """GHIDRA's matcher only fires on aligned matches right after padding."""
        gaps = self._gaps(image, disassembly)
        matches = self._prologue_matches(image, gaps, context)
        strict: set[int] = set()
        for address in matches:
            if address % 16 != 0 or address in starts:
                continue
            try:
                before = image.read(address - 1, 1)
            except ValueError:
                continue
            if before in (b"\x90", b"\xcc", b"\x00", b"\xc3"):
                strict.add(address)
        return strict

    def _heuristic_tail_calls(
        self, image: BinaryImage, disassembly, starts: set[int]
    ) -> set[int]:
        """Treat any jump leaving the current function's region as a tail call.

        No stack-height, calling-convention or reference restrictions: this is
        the unsafe heuristic whose false positives the paper quantifies.
        """
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
