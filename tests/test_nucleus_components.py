"""NUCLEUS components against a breadth-first oracle with no graph library.

``NucleusLike._components`` finds the weakly-connected components of the
intra-procedural CFG in one sweep plus a union-find.  The oracle here builds
the same undirected graph edge by edge, walks each component breadth-first
and takes its lowest address, on the scenario-matrix corpus and on
hand-assembled corner cases.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.baselines import NucleusLike
from repro.core.context import AnalysisContext
from repro.synth import build_scenario_matrix_corpora
from repro.x86.assembler import Assembler
from repro.x86.disassembler import decode_range
from repro.x86.instruction import Instruction
from repro.x86.operands import Mem
from repro.x86.registers import RAX, RBP, RDI

asm = Assembler()
BASE = 0x1000


def _not_a_source(insn: Instruction) -> bool:
    return insn.mnemonic == "(bad)" or insn.is_padding


def _oracle(instructions: dict[int, Instruction]) -> tuple[set[int], set[int]]:
    """Direct call targets, and the lowest address of each component whose
    lowest address is neither padding nor ``(bad)``."""
    neighbours: dict[int, set[int]] = {}
    call_targets: set[int] = set()

    def link(a: int, b: int) -> None:
        if b in instructions:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)

    for address, insn in instructions.items():
        if _not_a_source(insn):
            continue
        neighbours.setdefault(address, set())
        if insn.is_call:
            if insn.branch_target is not None:
                call_targets.add(insn.branch_target)
            link(address, insn.end)
        elif insn.is_jump:
            if insn.branch_target is not None:
                link(address, insn.branch_target)
            if insn.is_conditional_jump:
                link(address, insn.end)
        elif not (insn.is_ret or insn.mnemonic in ("ud2", "hlt")):
            link(address, insn.end)

    lowest: set[int] = set()
    seen: set[int] = set()
    for node in sorted(neighbours):
        if node in seen:
            continue
        seen.add(node)
        queue = deque([node])
        while queue:
            for other in neighbours[queue.popleft()]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        if not _not_a_source(instructions[node]):
            lowest.add(node)
    return call_targets, lowest


def _heads(instructions: dict[int, Instruction]) -> tuple[set[int], set[int]]:
    call_targets, heads = NucleusLike._components(instructions)
    return call_targets, {h for h in heads if not _not_a_source(instructions[h])}


def _assemble(*items) -> dict[int, Instruction]:
    """Sweep ``items`` placed at ``BASE``: bytes, a label string, or
    ``(op, label)`` with ``op`` one of ``call``/``jmp``/``je`` (rel32)."""
    sizes = {"call": 5, "jmp": 5, "je": 6}
    labels: dict[str, int] = {}
    address = BASE
    for item in items:
        if isinstance(item, str):
            labels[item] = address
        else:
            address += sizes[item[0]] if isinstance(item, tuple) else len(item)
    code = b""
    for item in items:
        if isinstance(item, tuple):
            op, label = item
            rel = labels[label] - (BASE + len(code) + sizes[op])
            code += {
                "call": asm.call_rel32,
                "jmp": asm.jmp_rel32,
                "je": lambda rel: asm.jcc_rel32("e", rel),
            }[op](rel)
        elif isinstance(item, bytes):
            code += item
    return {i.address: i for i in decode_range(code, BASE, stop_on_error=False)}


def _at(instructions: dict[int, Instruction], mnemonic: str) -> list[int]:
    return sorted(a for a, i in instructions.items() if i.mnemonic == mnemonic)


BODY = asm.push(RBP) + asm.mov_rr(RBP, RDI)

CASES = {
    # padding after a ret that only a jump reaches joins the jump's component
    "padding reached only by a jump": (
        _assemble(BODY, ("je", "pad"), asm.ret(), "pad", asm.nop(1), BODY, asm.ret()),
        lambda insns: {BASE, _at(insns, "push")[1]},
    ),
    # the jump's component is headed by the padding it reaches: not reported
    "component headed by padding": (
        _assemble("pad", asm.nop(1), asm.int3_padding(3), BODY, ("jmp", "pad")),
        lambda insns: set(),
    ),
    # a (bad) byte ends a run; the code after it is its own component
    "(bad) byte": (
        _assemble(BODY, b"\x06", BODY, asm.ret(), "bad", b"\x06", BODY, ("jmp", "bad")),
        lambda insns: {BASE, _at(insns, "push")[1]},
    ),
    # a call falls through to its return point and never joins its target
    "call target stays apart": (
        _assemble(BODY, ("call", "g"), asm.ret(), asm.int3_padding(2), "g", BODY, asm.ret()),
        lambda insns: {BASE, _at(insns, "push")[1]},
    ),
    # a jump-table case reached only through the table is a fragment unless
    # it jumps back into its function
    "interior jump-table target": (
        _assemble(
            BODY,
            "join",
            asm.mov_rr(RAX, RDI),
            asm.jmp_mem(Mem(index=RAX, scale=8, disp=0x4000)),
            "case0",
            BODY,
            ("jmp", "join"),
            "case1",
            BODY,
            asm.ret(),
        ),
        lambda insns: {BASE, _at(insns, "push")[2]},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_assembled_components_match_the_oracle(name):
    instructions, expected = CASES[name]
    call_targets, heads = _heads(instructions)
    assert (call_targets, heads) == _oracle(instructions)
    assert heads == expected(instructions)


def test_overlapping_decodes_join_through_the_shared_fall_through():
    # two decodes that end at the same address, as overlapping sections would
    # give: the fall-through of the first is not its successor in address order
    instructions = {
        BASE: Instruction("add", (), BASE, b"\x00" * 4),
        BASE + 2: Instruction("add", (), BASE + 2, b"\x00" * 2),
        BASE + 4: Instruction("ret", (), BASE + 4, b"\xc3"),
    }
    assert _heads(instructions) == _oracle(instructions) == (set(), {BASE})


@pytest.fixture(scope="module")
def matrix_binaries():
    matrix = build_scenario_matrix_corpora(scale=0.15, programs=1, seed=11)
    return [binary for row in matrix.values() for binary in row]


def test_matrix_corpus_components_match_the_oracle(matrix_binaries):
    tool = NucleusLike()
    for binary in matrix_binaries:
        image = binary.image
        instructions = tool._linear_sweep(image, AnalysisContext(image))
        call_targets, heads = _oracle(instructions)
        assert _heads(instructions) == (call_targets, heads), binary.name
        if image.uses_cet:
            heads = {h for h in heads if instructions[h].mnemonic == "endbr64"}
        expected = heads | {t for t in call_targets if image.is_executable_address(t)}
        assert tool.detect(image).function_starts == expected, binary.name
