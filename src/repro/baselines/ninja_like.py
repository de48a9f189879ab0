"""Binary Ninja-style detector model.

Binary Ninja combines recursive descent from the entry point with linear
sweep of unexplored regions and a pointer sweep of data sections.  That keeps
its false-negative count low but — as the paper's Table III shows — the
linear sweep contributes a substantial number of false positives.
"""

from __future__ import annotations

from repro.analysis.linearscan import linear_scan_gaps
from repro.baselines.base import BaselineTool
from repro.core.registry import register_detector
from repro.core.context import AnalysisContext, context_for
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage


@register_detector(
    "ninja",
    order=60,
    comparison=True,
    cet_aware=True,
    description="recursion, pointer sweep, prologues and linear sweep",
)
class BinaryNinjaLike(BaselineTool):

    def detect(
        self, image: BinaryImage, context: AnalysisContext | None = None
    ) -> DetectionResult:
        context = context_for(image, context)
        result = DetectionResult(binary_name=image.name)
        seeds = {image.entry_point} if image.entry_point else set()
        result.record_stage("seeds", {s for s in seeds if image.is_executable_address(s)})

        disassembler, disassembly, starts = self._recursive(
            image, result.function_starts, context
        )
        result.disassembly = disassembly
        result.record_stage("recursion", starts - result.function_starts)

        # Pointer sweep over data sections (aligned slots).
        pointer_targets = self._aligned_pointer_sweep(result, disassembly, context)
        grown = self._grow_from_matches(image, disassembler, disassembly, pointer_targets)
        result.record_stage("pointers", grown - result.function_starts)

        # Prologue matching over gaps, then linear sweep of what remains.
        gaps = self._gaps(image, disassembly)
        matches = {
            m
            for m in self._prologue_matches(image, gaps, context)
            if m not in result.function_starts
        }
        grown = self._grow_from_matches(image, disassembler, disassembly, matches)
        result.record_stage("prologue", grown - result.function_starts)

        scanned = linear_scan_gaps(
            image,
            self._gaps(image, disassembly),
            context=context,
            require_endbr=image.uses_cet,
        )
        result.record_stage("linear", scanned - result.function_starts)
        return result
