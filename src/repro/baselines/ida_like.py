"""IDA Pro-style detector model.

IDA's FLIRT/heuristic analysis is conservative: recursive disassembly from
the entry point, a scan of data sections for code pointers (address-taken
functions), and prologue matching restricted to aligned locations following
padding.  In the paper's comparison IDA has the fewest false positives of the
non-FDE tools but misses functions that are never referenced from data or
code (Table III).
"""

from __future__ import annotations

from repro.baselines.base import BaselineTool
from repro.core.registry import register_detector
from repro.core.context import AnalysisContext, context_for
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage


@register_detector(
    "ida",
    order=50,
    comparison=True,
    cet_aware=True,
    description="conservative recursion, aligned pointer scan, strict prologues",
)
class IdaLike(BaselineTool):

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

        # Data-section pointer scan (aligned slots only, unlike §IV-E's
        # deliberately exhaustive sliding window).
        pointer_targets = self._aligned_pointer_sweep(result, disassembly, context)
        grown = self._grow_from_matches(image, disassembler, disassembly, pointer_targets)
        result.record_stage("pointers", grown - result.function_starts)

        # Conservative prologue matching: aligned, preceded by padding.
        gaps = self._gaps(image, disassembly)
        strict: set[int] = set()
        for address in self._prologue_matches(image, gaps, context):
            if address in result.function_starts or address % 16 != 0:
                continue
            try:
                before = image.read(address - 1, 1)
            except ValueError:
                continue
            if before in (b"\x90", b"\xcc", b"\x00", b"\xc3"):
                strict.add(address)
        grown = self._grow_from_matches(image, disassembler, disassembly, strict)
        result.record_stage("prologue", grown - result.function_starts)
        return result
