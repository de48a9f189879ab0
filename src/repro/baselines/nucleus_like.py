"""NUCLEUS-style detector model.

NUCLEUS is compiler-agnostic: it linearly sweeps the text section, builds an
intra-procedural control-flow graph (calls excluded), groups basic blocks
into weakly-connected components, and reports the target of each direct call
plus the lowest address of each component as function starts (§II-B).
Unresolved jump-table cases fragment into their own components (false
positives) and functions reached only by tail calls collapse into their
caller's component (false negatives).
"""

from __future__ import annotations

import networkx as nx

from repro.baselines.base import BaselineTool
from repro.core.registry import register_detector
from repro.core.context import AnalysisContext, context_for
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage
from repro.x86.disassembler import decode_range
from repro.x86.instruction import Instruction


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
        call_targets, components = self._build_cfg(instructions)

        starts: set[int] = set()
        starts |= {t for t in call_targets if image.is_executable_address(t)}
        cet = image.uses_cet
        for component in components:
            block_addresses = [a for a in component if a in instructions]
            if not block_addresses:
                continue
            lowest = min(block_addresses)
            insn = instructions[lowest]
            if insn.is_padding or insn.mnemonic == "(bad)":
                continue
            # On CET binaries a component head that is not an endbr64 landing
            # pad cannot be a function entry (only fallthrough/jump flow
            # reaches it), so it is fragment noise, not a function.
            if cet and insn.mnemonic != "endbr64":
                continue
            starts.add(lowest)
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

    def _build_cfg(
        self, instructions: dict[int, Instruction]
    ) -> tuple[set[int], list[set[int]]]:
        graph = nx.Graph()
        call_targets: set[int] = set()
        ordered = sorted(instructions)
        for address in ordered:
            insn = instructions[address]
            if insn.mnemonic == "(bad)" or insn.is_padding:
                continue
            graph.add_node(address)
            if insn.is_call:
                if insn.branch_target is not None:
                    call_targets.add(insn.branch_target)
                if insn.end in instructions:
                    graph.add_edge(address, insn.end)
                continue
            if insn.is_jump:
                target = insn.branch_target
                if target is not None and target in instructions:
                    graph.add_edge(address, target)
                if insn.is_conditional_jump and insn.end in instructions:
                    graph.add_edge(address, insn.end)
                continue
            if insn.is_ret or insn.mnemonic in ("ud2", "hlt"):
                continue
            if insn.end in instructions:
                graph.add_edge(address, insn.end)
        components = [set(c) for c in nx.connected_components(graph)]
        return call_targets, components
