"""Non-returning function analysis.

The safe pipeline uses the *precise* mode: a function is non-returning only
when no reachable path ends in a ``ret`` (the DYNINST-style fix-point the
paper reuses, §IV-C).  The *eager* mode over-approximates — any function that
contains an abort-style terminator or calls a known non-returning function on
any path is treated as non-returning — and models the inaccuracy that makes
GHIDRA's control-flow repairing remove true function starts (§IV-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.recursive import RecursiveDisassembler
from repro.analysis.result import DisassemblyResult
from repro.elf.image import BinaryImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext


class NoreturnAnalysis:
    """Classify detected functions as returning / non-returning."""

    def __init__(
        self,
        image: BinaryImage,
        mode: str = "precise",
        *,
        context: "AnalysisContext",
    ):
        if mode not in ("precise", "eager"):
            raise ValueError(f"unknown noreturn mode: {mode}")
        self.image = image
        self.mode = mode
        self.context = context

    def compute(
        self, result: DisassemblyResult, disassembler: RecursiveDisassembler | None = None
    ) -> set[int]:
        """Return the set of non-returning function starts in ``result``."""
        if self.mode == "precise":
            if disassembler is None:
                # One accumulating disassembler for the whole compute() call:
                # the shared context only contributes canonical
                # (order-independent) caches, so the verdicts — including on
                # call cycles — do not depend on what the context has seen.
                disassembler = RecursiveDisassembler(self.image, context=self.context)
            return {
                start for start in result.functions if disassembler.is_noreturn(start)
            }
        return self._eager(result)

    def _eager(self, result: DisassemblyResult) -> set[int]:
        # Over-approximation: any function containing an abort-style
        # terminator anywhere is flagged, regardless of whether other paths
        # return.  This is the kind of imprecision that makes control-flow
        # repairing remove true function starts.
        noreturn: set[int] = set()
        for start, function in result.functions.items():
            if any(i.mnemonic in ("ud2", "hlt") for i in function.instructions.values()):
                noreturn.add(start)
        return noreturn
