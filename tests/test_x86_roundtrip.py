"""Assembler ↔ disassembler round-trip fuzz.

Randomized instruction streams — with instruction mixes weighted by the
synthetic build profiles from :mod:`repro.synth.profiles` — are encoded
through :class:`repro.x86.assembler.Assembler` and batch-decoded with
:func:`repro.x86.disassembler.decode_block`.  Every decoded instruction must
reproduce the intended mnemonic, operand tuple and operand size
field-identically, and consume exactly the bytes the assembler emitted.

This is the safety net under the table-driven decoder rewrite: the encoder
and decoder were written independently against the ISA manual, so any
encode/decode disagreement the generator can reach fails loudly here.
"""

from __future__ import annotations

import random

import pytest

from repro.synth import compile_program, plan_program
from repro.synth.profiles import CompilerFamily, OptLevel, default_profile
from repro.x86.assembler import Assembler
from repro.x86.disassembler import decode_block, decode_instruction
from repro.x86.instruction import Instruction
from repro.x86.operands import Imm, Mem
from repro.x86.registers import GPR64, RSP

asm = Assembler()

BASE = 0x401000

#: condition codes shared by the assembler (``jcc_rel*``) and the decoder
#: (which names the instruction ``j`` + code).
_CC = ("o", "no", "b", "ae", "e", "ne", "be", "a",
       "s", "ns", "p", "np", "l", "ge", "le", "g")

#: registers usable as a SIB index (anything but rsp).
_INDEX_POOL = tuple(reg for reg in GPR64 if reg is not RSP)


class _Rel:
    """Placeholder for a relative-branch target, resolved at layout time.

    The decoder reports relative branches as an absolute ``Imm(target, 8)``
    where ``target = end-of-instruction + rel``; the end address is only
    known once the stream is laid out.
    """

    __slots__ = ("rel",)

    def __init__(self, rel: int):
        self.rel = rel


def _random_mem(rng: random.Random) -> Mem:
    """A random memory operand covering every addressing shape we encode."""
    shape = rng.randrange(6)
    disp = rng.choice(
        (0, rng.randint(-128, 127), rng.randint(-(2**31), 2**31 - 1))
    )
    if shape == 0:  # RIP-relative
        return Mem(disp=rng.randint(-(2**31), 2**31 - 1), rip_relative=True)
    if shape == 1:  # absolute disp32
        return Mem(disp=disp)
    if shape == 2:  # index-only (jump-table style)
        return Mem(index=rng.choice(_INDEX_POOL), scale=rng.choice((1, 2, 4, 8)), disp=disp)
    base = rng.choice(GPR64)
    if shape == 3:  # base only
        return Mem(base=base, disp=disp)
    if shape == 4:  # base + index
        return Mem(base=base, index=rng.choice(_INDEX_POOL), scale=rng.choice((1, 2, 4, 8)),
                   disp=disp)
    return Mem(base=base, disp=rng.randint(-128, 127))  # base + disp8


def _emit_one(category: str, rng: random.Random, profile) -> tuple[bytes, str, tuple, int]:
    """Encode one random instruction; returns ``(bytes, mnemonic, operands, osize)``.

    Operand tuples may contain :class:`_Rel` placeholders.
    """
    reg = rng.choice(GPR64)
    other = rng.choice(GPR64)
    if category == "stack":
        kind = rng.randrange(3)
        if kind == 0:
            return asm.push(reg), "push", (reg,), 8
        if kind == 1:
            return asm.pop(reg), "pop", (reg,), 8
        return asm.leave(), "leave", (), 8
    if category == "mov_rr":
        return asm.mov_rr(reg, other), "mov", (reg, other), 8
    if category == "mov_ri":
        kind = rng.randrange(3)
        if kind == 0:  # sign-extended imm32 form
            value = rng.randint(-(2**31), 2**31 - 1)
            return asm.mov_ri(reg, value), "mov", (reg, Imm(value, 4)), 8
        if kind == 1:  # movabs
            value = rng.choice((1, -1)) * rng.randint(2**31, 2**62)
            return asm.mov_ri(reg, value), "mov", (reg, Imm(value, 8)), 8
        value = rng.randint(0, 2**31 - 1)  # 32-bit form zero-extends
        return asm.mov_ri32(reg, value), "mov", (reg, Imm(value, 4)), 4
    if category == "alu_ri":
        op = rng.choice(("add", "or", "and", "sub", "cmp"))
        encode = getattr(asm, f"{op}_ri")
        if rng.random() < 0.5:
            value = rng.randint(-128, 127)
            return encode(reg, value), op, (reg, Imm(value, 1)), 8
        value = rng.choice((1, -1)) * rng.randint(128, 2**31 - 1)
        return encode(reg, value), op, (reg, Imm(value, 4)), 8
    if category == "alu_rr":
        op = rng.choice(("add", "sub", "xor", "cmp", "test"))
        if op == "xor" and rng.random() < 0.3:
            return asm.xor_rr32(reg, other), "xor", (reg, other), 4
        return getattr(asm, f"{op}_rr")(reg, other), op, (reg, other), 8
    if category == "mem":
        mem = _random_mem(rng)
        kind = rng.randrange(3)
        if kind == 0:
            return asm.mov_load(reg, mem), "mov", (reg, mem), 8
        if kind == 1:
            return asm.mov_store(mem, reg), "mov", (mem, reg), 8
        return asm.movsxd_load(reg, mem), "movsxd", (reg, mem), 8
    if category == "lea":
        mem = _random_mem(rng)
        return asm.lea(reg, mem), "lea", (reg, mem), 8
    if category == "wide":
        if rng.random() < 0.5:
            return asm.movsxd(reg, other), "movsxd", (reg, other), 8
        return asm.imul_rr(reg, other), "imul", (reg, other), 8
    if category == "shift":
        amount = rng.randint(0, 63)
        if rng.random() < 0.5:
            return asm.shl_ri(reg, amount), "shl", (reg, Imm(amount, 1)), 8
        return asm.sar_ri(reg, amount), "sar", (reg, Imm(amount, 1)), 8
    if category == "branch":
        kind = rng.randrange(4)
        if kind == 0:
            rel = rng.randint(-(2**31), 2**31 - 1)
            return asm.call_rel32(rel), "call", (_Rel(rel),), 8
        if kind == 1:
            rel = rng.randint(-(2**31), 2**31 - 1)
            return asm.jmp_rel32(rel), "jmp", (_Rel(rel),), 8
        if kind == 2:
            rel = rng.randint(-128, 127)
            return asm.jmp_rel8(rel), "jmp", (_Rel(rel),), 8
        cc = rng.choice(_CC)
        if rng.random() < 0.5:
            rel = rng.randint(-128, 127)
            return asm.jcc_rel8(cc, rel), "j" + cc, (_Rel(rel),), 8
        rel = rng.randint(-(2**31), 2**31 - 1)
        return asm.jcc_rel32(cc, rel), "j" + cc, (_Rel(rel),), 8
    if category == "indirect":
        kind = rng.randrange(4)
        if kind == 0:
            return asm.call_reg(reg), "call", (reg,), 8
        if kind == 1:
            return asm.jmp_reg(reg), "jmp", (reg,), 8
        mem = _random_mem(rng)
        if kind == 2:
            return asm.call_mem(mem), "call", (mem,), 8
        return asm.jmp_mem(mem), "jmp", (mem,), 8
    assert category == "misc"
    kind = rng.randrange(5 if profile.emits_endbr else 4)
    if kind == 0:
        return asm.ret(), "ret", (), 8
    if kind == 1:
        return asm.syscall(), "syscall", (), 8
    if kind == 2:  # one aligned-length NOP chunk (each chunk is one insn)
        length = rng.randint(1, 9)
        return asm.nop(length), "nop", (), 8
    if kind == 3:
        return b"\xcc", "int3", (), 8
    return asm.endbr64(), "endbr64", (), 8


def _profile_weights(profile) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Category weights for one build profile.

    The profile rates steer the mix the same way they steer the synthetic
    compiler: more tail calls / cold splits mean more branches, jump tables
    mean more indirect transfers, frame pointers mean more stack traffic,
    dense ``Os`` alignment means fewer padding NOPs.
    """
    weights = {
        "stack": 8 + 20 * profile.frame_pointer_rate,
        "mov_rr": 12.0,
        "mov_ri": 10.0,
        "alu_ri": 10.0,
        "alu_rr": 10.0,
        "mem": 14.0,
        "lea": 6.0,
        "wide": 4.0,
        "shift": 4.0,
        "branch": 6 + 40 * (profile.tail_call_rate + profile.cold_split_rate),
        "indirect": 2 + 50 * profile.jump_table_rate,
        "misc": 2 + profile.function_alignment / 8,
    }
    return tuple(weights), tuple(weights.values())


def _generate_stream(profile, rng: random.Random, count: int):
    """Encode ``count`` random instructions; returns ``(code, records)``.

    Each record is ``(address, encoding, mnemonic, operands, osize)`` with
    ``_Rel`` placeholders already resolved against the final layout.
    """
    categories, weights = _profile_weights(profile)
    records = []
    address = BASE
    chunks = []
    for category in rng.choices(categories, weights=weights, k=count):
        encoding, mnemonic, operands, osize = _emit_one(category, rng, profile)
        end = address + len(encoding)
        operands = tuple(
            Imm(end + op.rel, 8) if isinstance(op, _Rel) else op for op in operands
        )
        records.append((address, encoding, mnemonic, operands, osize))
        chunks.append(encoding)
        address = end
    return b"".join(chunks), records


_PROFILES = [
    default_profile(compiler, opt_level)
    for compiler in CompilerFamily
    for opt_level in OptLevel
]


def _assert_matches_constructor(insn):
    """The decoder's derived slots equal what ``Instruction.__init__`` derives."""
    ref = Instruction(insn.mnemonic, insn.operands, insn.address, insn.data, insn.operand_size)
    for slot in ("end", "branch_target", "rip_target", "_flags", "memory_operand", "_consts"):
        assert getattr(insn, slot) == getattr(ref, slot), f"{slot} of {insn!r}"


@pytest.mark.parametrize(
    "profile", _PROFILES, ids=[f"{p.compiler.value}-{p.opt_level.value}" for p in _PROFILES]
)
def test_roundtrip_stream_is_field_identical(profile):
    rng = random.Random(f"{profile.compiler.value}:{profile.opt_level.value}")
    code, records = _generate_stream(profile, rng, count=300)

    decoded, failed = decode_block(code, 0, BASE, len(records))
    assert not failed, f"decode failed after {len(decoded)} of {len(records)} instructions"
    assert len(decoded) == len(records)

    for insn, (address, encoding, mnemonic, operands, osize) in zip(decoded, records):
        context = f"at {address:#x}: {encoding.hex()} (expected {mnemonic})"
        assert insn.address == address, context
        assert insn.data == encoding, context
        assert insn.end == address + len(encoding), context
        assert insn.mnemonic == mnemonic, context
        assert insn.operands == operands, context
        assert insn.operand_size == osize, context
        _assert_matches_constructor(insn)


#: Encodings the assembler never emits: movzx/movsx in both widths, endbr32,
#: ``ret imm16``, ``FF /n`` memory forms and ``0F``-map singles.
_RARE_ENCODINGS = bytes.fromhex(
    "0fb6c1" "480fb607" "0fb74c2408" "480fbec2" "0fbf05f0ffffff"
    "f30f1efb" "c21000" "ff2510000000" "ff5008" "ff742408" "48ff00" "ff4c8810"
    "0f0b" "f4" "0f05" "0f1f440000"
)


def test_corpus_decode_cache_matches_constructor():
    """Every instruction decodable at any offset of a CET binary's code (plus
    rare encodings) carries the same derived slots as the constructor."""
    profile = default_profile(CompilerFamily.GCC, OptLevel.O2)
    plan = plan_program("roundtrip-cet", profile, seed=7, scenario="cet", function_count=25)
    text = compile_program(plan).image.text
    code = text.data + _RARE_ENCODINGS
    cache: dict = {}
    for offset in range(len(code)):
        decode_block(code, offset, text.address + offset, 1, cache=cache)
    decoded = [insn for insn in cache.values() if insn is not None]
    mnemonics = {insn.mnemonic for insn in decoded}
    assert {"movzx", "movsx", "endbr64", "endbr32", "hlt", "ud2", "inc", "dec"} <= mnemonics
    assert any(insn.mnemonic == "ret" and insn.operands for insn in decoded)
    for insn in decoded:
        _assert_matches_constructor(insn)


@pytest.mark.parametrize(
    "profile",
    _PROFILES[:2],
    ids=[f"{p.compiler.value}-{p.opt_level.value}" for p in _PROFILES[:2]],
)
def test_decode_block_agrees_with_single_instruction_path(profile):
    """``decode_instruction`` is a one-instruction ``decode_block``: both
    entry points return the same instruction at every address."""
    rng = random.Random(f"single:{profile.compiler.value}:{profile.opt_level.value}")
    code, records = _generate_stream(profile, rng, count=200)

    batch, failed = decode_block(code, 0, BASE, len(records))
    assert not failed
    for insn in batch:
        single = decode_instruction(code, insn.address - BASE, insn.address)
        assert single.mnemonic == insn.mnemonic
        assert single.operands == insn.operands
        assert single.operand_size == insn.operand_size
        assert single.data == insn.data
        assert single.end == insn.end
        assert single._flags == insn._flags
