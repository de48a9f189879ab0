"""Shared machinery for the baseline tool models."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.analysis.gaps import compute_gaps
from repro.analysis.prologue import match_prologues, select_prologue_patterns
from repro.analysis.recursive import RecursiveDisassembler
from repro.analysis.result import DisassemblyResult
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext


class BaselineTool(ABC):
    """A function-start detector modelled after an existing tool.

    ``detect`` takes an optional shared
    :class:`~repro.core.context.AnalysisContext` (a fresh one is built via
    :func:`~repro.core.context.context_for` when omitted); results are
    identical either way, but a context shared across tools (and
    strategy-ladder rungs) decodes every instruction of the binary at most
    once.  The building blocks below require the detector's context.
    """

    #: short name used in tables (overridden by subclasses)
    name: str = "baseline"

    @abstractmethod
    def detect(
        self, image: BinaryImage, context: "AnalysisContext | None" = None
    ) -> DetectionResult:
        """Detect function starts in ``image``."""

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def _recursive(
        self,
        image: BinaryImage,
        seeds: set[int],
        context: "AnalysisContext",
    ) -> tuple[RecursiveDisassembler, DisassemblyResult, set[int]]:
        """Run recursive disassembly and return the grown start set."""
        disassembler = RecursiveDisassembler(image, context=context)
        seeds = {s for s in seeds if image.is_executable_address(s)}
        result = disassembler.disassemble(seeds)
        starts = set(seeds)
        starts |= {
            t for t in result.call_targets if image.is_executable_address(t)
        }
        return disassembler, result, starts

    def _grow_from_matches(
        self,
        image: BinaryImage,
        disassembler: RecursiveDisassembler,
        result: DisassemblyResult,
        matches: set[int],
    ) -> set[int]:
        """Recursively disassemble from heuristic matches, merging state."""
        new_starts = {m for m in matches if image.is_executable_address(m)}
        if not new_starts:
            return set()
        extension = disassembler.disassemble(new_starts)
        result.functions.update(extension.functions)
        result.instructions.update(extension.instructions)
        result.call_targets.update(extension.call_targets)
        grown = set(new_starts)
        grown |= {
            t for t in extension.call_targets if image.is_executable_address(t)
        }
        return grown

    @staticmethod
    def _gaps(image: BinaryImage, result: DisassemblyResult) -> list[tuple[int, int]]:
        return compute_gaps(image, result)

    @staticmethod
    def _prologue_matches(
        image: BinaryImage,
        gaps: list[tuple[int, int]],
        context: "AnalysisContext",
    ) -> set[int]:
        """Gap prologue matching with the scenario-appropriate signature set.

        CET binaries get endbr64-anchored patterns (every function entry is a
        landing pad there), everything else the classic prologues.
        """
        return match_prologues(
            image, gaps, patterns=select_prologue_patterns(image), context=context
        )

    @staticmethod
    def _aligned_pointer_sweep(
        result: DetectionResult,
        disassembly: DisassemblyResult,
        context: "AnalysisContext",
    ) -> set[int]:
        """Conservative pointer sweep of 8-byte-aligned data-section slots.

        Shared by the IDA- and Binary-Ninja-style models: executable targets
        of aligned slots, minus already-detected starts and pointers into
        code already attributed to a function (e.g. jump-table entries).
        """
        return {
            value
            for value in context.aligned_data_pointers()
            if value not in result.function_starts
            and value not in disassembly.instructions
        }

    @staticmethod
    def _reference_targets(result: DisassemblyResult) -> set[int]:
        """Addresses referenced by any decoded call or jump."""
        targets: set[int] = set()
        for insn in result.instructions.values():
            target = insn.branch_target
            if target is not None:
                targets.add(target)
        return targets

    @staticmethod
    def _symbol_starts(image: BinaryImage) -> set[int]:
        return {s.address for s in image.function_symbols}

    @staticmethod
    def _fde_starts(image: BinaryImage) -> set[int]:
        return {fde.pc_begin for fde in image.fdes}
