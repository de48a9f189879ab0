"""Static stack-height analysis (the angr / DYNINST style analyses).

The paper's Algorithm 1 deliberately reads stack heights from call-frame
information rather than from a static analysis, because the static analyses
shipped by existing tools are both incomplete (they give up on constructs
they cannot model) and occasionally inaccurate (they propagate a wrong height
through joins).  Table IV quantifies that gap.  This module provides a
configurable forward data-flow analysis whose two flavours reproduce those
imperfections:

* ``"dyninst"`` — conservative: conflicting heights at a join become unknown,
  frame-pointer-based epilogues (``leave``) are not modelled.
* ``"angr"`` — keeps the first height seen at a join (which can be wrong when
  paths disagree) and additionally gives up on functions containing indirect
  jumps.
"""

from __future__ import annotations

from repro.analysis.result import DisassembledFunction
from repro.x86.semantics import stack_delta


class StackHeightAnalysis:
    """Forward stack-pointer-delta analysis over a detected function."""

    def __init__(self, flavor: str = "dyninst"):
        if flavor not in ("dyninst", "angr", "exact"):
            raise ValueError(f"unknown stack-height flavor: {flavor}")
        self.flavor = flavor

    def analyze(self, function: DisassembledFunction) -> dict[int, int | None]:
        """Compute the stack height *before* each instruction of ``function``.

        Heights are bytes pushed since function entry; ``None`` means the
        analysis could not determine the height at that location.
        :meth:`repro.core.context.AnalysisContext.stack_heights` memoizes the
        result by flavor and exact instruction set.
        """
        if not function.instructions:
            return {}
        if self.flavor == "angr" and any(
            insn.is_indirect_branch and insn.is_unconditional_jump
            for insn in function.instructions.values()
        ):
            # angr-style: the presence of an unresolved indirect jump makes
            # the whole function's stack tracking unreliable.
            return {address: None for address in function.instructions}

        heights: dict[int, int | None] = {}
        worklist: list[tuple[int, int | None]] = [(function.start, 0)]
        iterations = 0
        limit = len(function.instructions) * 8 + 64

        while worklist and iterations < limit:
            iterations += 1
            address, height = worklist.pop()
            insn = function.instructions.get(address)
            if insn is None:
                continue
            if address in heights:
                known = heights[address]
                if known == height:
                    continue
                if self.flavor == "angr":
                    # Keep the first value: cheaper, occasionally wrong.
                    continue
                if known is None:
                    continue
                heights[address] = None
                height = None
            else:
                heights[address] = height

            successors = self._successors(function, insn)
            next_height = self._transfer(insn, height)
            for successor in successors:
                worklist.append((successor, next_height))

        for address in function.instructions:
            heights.setdefault(address, None)
        return heights

    # ------------------------------------------------------------------
    def _transfer(self, insn, height: int | None) -> int | None:
        if height is None:
            return None
        delta = stack_delta(insn)
        if delta is None:
            if self.flavor == "exact" and insn.mnemonic == "leave":
                # leave = mov rsp, rbp; pop rbp — only resolvable when the
                # frame pointer offset is known, which this simple analysis
                # does not track; the exact flavor assumes a standard frame.
                return 0
            return None
        return height - delta

    @staticmethod
    def _successors(function: DisassembledFunction, insn) -> list[int]:
        successors: list[int] = []
        if insn.is_ret or insn.mnemonic in ("ud2", "hlt"):
            return successors
        if insn.is_unconditional_jump:
            target = insn.branch_target
            if target is not None and target in function.instructions:
                successors.append(target)
            return successors
        if insn.is_conditional_jump:
            target = insn.branch_target
            if target is not None and target in function.instructions:
                successors.append(target)
        if insn.end in function.instructions:
            successors.append(insn.end)
        return successors
