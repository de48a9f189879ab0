"""NUCLEUS-style detector model.

NUCLEUS is compiler-agnostic: it linearly sweeps the text section, builds an
intra-procedural control-flow graph (calls excluded), groups basic blocks
into weakly-connected components, and reports the target of each direct call
plus the lowest address of each component as function starts (§II-B).
Unresolved jump-table cases fragment into their own components (false
positives) and functions reached only by tail calls collapse into their
caller's component (false negatives).

The components come from one pass over the sweep in address order.
Fall-through edges chain consecutive instructions into runs, and jump edges
join runs in a union-find keyed by run head whose root is always the lower
address, so each root is its component's lowest address.
"""

from __future__ import annotations

from repro.baselines.base import BaselineTool
from repro.core.registry import register_detector
from repro.core.context import AnalysisContext, context_for
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage
from repro.x86.disassembler import decode_range
from repro.x86.instruction import (
    _F_CALL,
    _F_INVALID,
    _F_JUMP,
    _F_PADDING,
    _F_TERMINATOR,
    Instruction,
)

#: instructions with no outgoing edge that are graph nodes only when an edge
#: reaches them, and that never head a reported component
_NOT_A_SOURCE = _F_PADDING | _F_INVALID


@register_detector(
    "nucleus",
    order=40,
    comparison=True,
    cet_aware=True,
    description="linear sweep grouped into weakly-connected CFG components",
)
class NucleusLike(BaselineTool):

    def detect(
        self, image: BinaryImage, context: AnalysisContext | None = None
    ) -> DetectionResult:
        context = context_for(image, context)
        result = DetectionResult(binary_name=image.name)
        instructions = self._linear_sweep(image, context)
        call_targets, heads = self._components(instructions)

        starts = {t for t in call_targets if image.is_executable_address(t)}
        cet = image.uses_cet
        for head in heads:
            insn = instructions[head]
            if insn._flags & _NOT_A_SOURCE:
                continue
            # On CET binaries a component head that is not an endbr64 landing
            # pad cannot be a function entry (only fallthrough/jump flow
            # reaches it), so it is fragment noise, not a function.
            if cet and insn.mnemonic != "endbr64":
                continue
            starts.add(head)
        result.record_stage("cfg", starts)
        return result

    # ------------------------------------------------------------------
    def _linear_sweep(
        self, image: BinaryImage, context: AnalysisContext
    ) -> dict[int, Instruction]:
        cache = context.decode_cache
        instructions: dict[int, Instruction] = {}
        for section in image.executable_sections:
            for insn in decode_range(
                section.data, section.address, stop_on_error=False, cache=cache
            ):
                instructions[insn.address] = insn
        return instructions

    @staticmethod
    def _components(
        instructions: dict[int, Instruction]
    ) -> tuple[set[int], list[int]]:
        """Direct call targets, and the lowest address of each CFG component.

        Edges: a call falls through and never links to its target; a jump
        links to its target, and a conditional one also falls through;
        ``ret``/``ud2``/``hlt`` link nowhere, and padding and ``(bad)`` are
        never the source of an edge.  An edge exists only if its endpoint was
        swept.  A padding or ``(bad)`` instruction that no edge reaches is its
        own one-address component here, which the caller skips like any
        padding-headed component.
        """
        run_head: dict[int, int] = {}  # address -> first address of its run
        parent: dict[int, int] = {}  # run head -> a lower head in its component
        links: list[tuple[int, int]] = []  # (source run head, target address)
        call_targets: set[int] = set()
        head = follows = None
        for address in sorted(instructions):
            if address != follows:
                if follows is not None:
                    links.append((head, follows))
                head = address
                parent[head] = head
            run_head[address] = head
            follows = None
            insn = instructions[address]
            flags = insn._flags
            if flags & _NOT_A_SOURCE:
                continue
            target = insn.branch_target
            if flags & _F_CALL:
                if target is not None:
                    call_targets.add(target)
            elif flags & _F_JUMP and target in instructions:
                links.append((head, target))
            if not flags & _F_TERMINATOR and insn.end in instructions:
                follows = insn.end

        def find(node: int) -> int:
            while parent[node] != node:
                parent[node] = node = parent[parent[node]]
            return node

        for source, target in links:
            a, b = find(source), find(run_head[target])
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        return call_targets, [h for h, up in parent.items() if h == up]
