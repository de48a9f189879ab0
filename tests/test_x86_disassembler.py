"""Tests for the x86-64 decoder, including assembler/disassembler round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x86.assembler import Assembler
from repro.x86.disassembler import DecodeError, decode_instruction, decode_range
from repro.x86.operands import Imm, Mem
from repro.x86.registers import (
    GPR64,
    R9,
    R11,
    R13,
    RAX,
    RBP,
    RCX,
    RDI,
    RDX,
    RSI,
    RSP,
)

asm = Assembler()


def decode(data: bytes, address: int = 0x401000):
    return decode_instruction(data, 0, address)


# ----------------------------------------------------------------------
# Individual encodings
# ----------------------------------------------------------------------

def test_decode_push_pop():
    assert decode(asm.push(RBP)).mnemonic == "push"
    assert decode(asm.push(RBP)).operands == (RBP,)
    assert decode(asm.pop(R13)).operands == (R13,)


def test_decode_mov_forms():
    insn = decode(asm.mov_rr(RBP, RSP))
    assert insn.mnemonic == "mov" and insn.operands == (RBP, RSP)

    insn = decode(asm.mov_ri(RAX, -5))
    assert insn.operands[0] is RAX
    assert isinstance(insn.operands[1], Imm) and insn.operands[1].value == -5

    insn = decode(asm.mov_ri(R9, 0x11_2233_4455))
    assert insn.operands[1].value == 0x11_2233_4455

    insn = decode(asm.mov_load(RDX, Mem(base=RBP, disp=-16)))
    assert isinstance(insn.operands[1], Mem)
    assert insn.operands[1].base is RBP and insn.operands[1].disp == -16

    insn = decode(asm.mov_store(Mem(base=RSP, disp=8), RDI))
    assert insn.operands == (Mem(base=RSP, disp=8), RDI)


def test_decode_lea_rip_relative_target():
    insn = decode(asm.lea(RDI, Mem(rip_relative=True, disp=0x100)), address=0x400000)
    assert insn.mnemonic == "lea"
    assert insn.rip_target == 0x400000 + insn.size + 0x100


def test_decode_call_and_jump_targets_are_absolute():
    call = decode(asm.call_rel32(0x50), address=0x1000)
    assert call.is_call and call.branch_target == 0x1000 + 5 + 0x50

    jmp8 = decode(asm.jmp_rel8(-2), address=0x1000)
    assert jmp8.is_unconditional_jump and jmp8.branch_target == 0x1000

    jcc = decode(asm.jcc_rel32("ne", 0x20), address=0x2000)
    assert jcc.mnemonic == "jne" and jcc.branch_target == 0x2000 + 6 + 0x20


def test_decode_indirect_branches_have_no_static_target():
    insn = decode(asm.jmp_mem(Mem(base=RAX, index=RDI, scale=8)))
    assert insn.is_indirect_branch and insn.branch_target is None

    insn = decode(asm.call_reg(R11))
    assert insn.is_call and insn.is_indirect_branch


def test_decode_arithmetic_group1():
    insn = decode(asm.sub_ri(RSP, 0x28))
    assert insn.mnemonic == "sub" and insn.operands[0] is RSP
    assert insn.operands[1].value == 0x28

    insn = decode(asm.cmp_ri(RDI, 3))
    assert insn.mnemonic == "cmp"

    insn = decode(asm.and_ri(RSP, -16))
    assert insn.mnemonic == "and" and insn.operands[1].value == -16


#: 16-bit immediate forms, each followed by ``ret``; the lengths are
#: ``objdump -D -b binary -m i386:x86-64`` 2.40's (``cmpw $0x5b1b,(%rax)``,
#: ``movw $0x3f3f,0x55(%rsp)``, ``mov $0x1,%ax``)
_WORD_IMMEDIATE_FORMS = [
    (b"\x66\x81\x38\x1b\x5b", 5, "cmp", 0x5B1B),
    (b"\x66\xc7\x44\x24\x55\x3f\x3f", 7, "mov", 0x3F3F),
    (b"\x66\xb8\x01\x00", 4, "mov", 1),
]


@pytest.mark.parametrize("data, length, mnemonic, value", _WORD_IMMEDIATE_FORMS)
def test_decode_16_bit_immediates(data, length, mnemonic, value):
    insn = decode(data + asm.ret())
    assert (insn.size, insn.mnemonic, insn.operand_size) == (length, mnemonic, 2)
    assert insn.operands[1] == Imm(value, 2)
    assert insn._consts is None  # not a code-constant candidate
    # the walk stays on the instruction boundaries
    assert decode_instruction(data + asm.ret(), length, 0x401000 + length).is_ret


def test_decode_rex_w_overrides_the_16_bit_prefix():
    insn = decode(b"\x66\x48\x81\xc0\x00\x10\x40\x00")
    assert (insn.size, insn.operand_size, insn.operands[1]) == (8, 8, Imm(0x401000, 4))
    assert insn._consts == 0x401000


def test_decode_test_cmp_xor_register_forms():
    assert decode(asm.test_rr(RAX, RAX)).mnemonic == "test"
    assert decode(asm.cmp_rr(RDI, RSI)).mnemonic == "cmp"
    insn = decode(asm.xor_rr32(RCX, RCX))
    assert insn.mnemonic == "xor" and insn.operand_size == 4


def test_decode_misc_opcodes():
    assert decode(asm.ret()).is_ret
    assert decode(asm.leave()).mnemonic == "leave"
    assert decode(asm.endbr64()).mnemonic == "endbr64"
    assert decode(asm.syscall()).mnemonic == "syscall"
    assert decode(asm.ud2()).mnemonic == "ud2"
    assert decode(asm.hlt()).mnemonic == "hlt"
    assert decode(b"\xcc").mnemonic == "int3"


def test_decode_multibyte_nops():
    for length in range(1, 10):
        insns = list(decode_range(asm.nop(length), 0))
        assert all(i.is_nop for i in insns)
        assert sum(i.size for i in insns) == length


def test_decode_movzx_movsx():
    assert decode(b"\x48\x0f\xb6\xc7").mnemonic == "movzx"
    assert decode(b"\x48\x0f\xbe\xc7").mnemonic == "movsx"


def test_decode_rejects_unknown_opcode():
    with pytest.raises(DecodeError):
        decode(b"\x06")  # invalid in 64-bit mode
    with pytest.raises(DecodeError):
        decode(b"\x0f\xff\x00")


def test_decode_rejects_truncated_instruction():
    with pytest.raises(DecodeError):
        decode(b"\x48\xc7")
    with pytest.raises(DecodeError):
        decode(b"\xe8\x01\x02")


def test_decode_empty_input():
    with pytest.raises(DecodeError):
        decode(b"")


def test_decode_range_stops_or_skips_on_error():
    blob = asm.ret() + b"\x06" + asm.ret()
    stopped = list(decode_range(blob, 0x1000))
    assert len(stopped) == 1

    skipped = list(decode_range(blob, 0x1000, stop_on_error=False))
    assert [i.mnemonic for i in skipped] == ["ret", "(bad)", "ret"]
    assert skipped[1].size == 1


# ----------------------------------------------------------------------
# Round trips and robustness (property-based)
# ----------------------------------------------------------------------

_REGS = st.sampled_from(GPR64)
_SMALL = st.integers(min_value=-(2**31), max_value=2**31 - 1)


@given(reg=_REGS)
def test_roundtrip_push_pop(reg):
    assert decode(asm.push(reg)).operands == (reg,)
    assert decode(asm.pop(reg)).operands == (reg,)


@given(dst=_REGS, src=_REGS)
def test_roundtrip_mov_rr(dst, src):
    insn = decode(asm.mov_rr(dst, src))
    assert insn.mnemonic == "mov" and insn.operands == (dst, src)


@given(reg=_REGS, value=st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_roundtrip_mov_immediate(reg, value):
    insn = decode(asm.mov_ri(reg, value))
    assert insn.operands[0] is reg
    assert insn.operands[1].value == value


@given(reg=_REGS, value=_SMALL)
def test_roundtrip_group1_immediates(reg, value):
    for encode, mnemonic in ((asm.add_ri, "add"), (asm.sub_ri, "sub"), (asm.cmp_ri, "cmp")):
        insn = decode(encode(reg, value))
        assert insn.mnemonic == mnemonic
        assert insn.operands[0] is reg and insn.operands[1].value == value


@given(
    base=st.one_of(st.none(), _REGS),
    index=st.one_of(st.none(), st.sampled_from([r for r in GPR64 if r is not RSP])),
    scale=st.sampled_from([1, 2, 4, 8]),
    disp=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    dst=_REGS,
)
def test_roundtrip_memory_operands(base, index, scale, disp, dst):
    mem = Mem(base=base, index=index, scale=scale, disp=disp)
    insn = decode(asm.mov_load(dst, mem))
    assert insn.mnemonic == "mov"
    assert insn.operands[0] is dst
    decoded = insn.operands[1]
    assert isinstance(decoded, Mem)
    assert decoded.base == base
    assert decoded.disp == disp
    if index is not None:
        assert decoded.index == index and decoded.scale == scale


@given(rel=st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_roundtrip_call_target(rel):
    address = 0x401000
    insn = decode(asm.call_rel32(rel), address=address)
    assert insn.branch_target == (address + 5 + rel)


@given(data=st.binary(min_size=1, max_size=16))
@settings(max_examples=300)
def test_decoder_never_crashes_or_overruns(data):
    """Arbitrary bytes either decode within bounds or raise DecodeError."""
    try:
        insn = decode_instruction(data, 0, 0x1000)
    except DecodeError:
        return
    assert 1 <= insn.size <= min(len(data), 15)


@given(data=st.binary(min_size=0, max_size=64))
@settings(max_examples=200)
def test_decode_range_always_terminates_and_covers_bytes(data):
    insns = list(decode_range(data, 0, stop_on_error=False))
    assert sum(i.size for i in insns) == len(data)
    addresses = [i.address for i in insns]
    assert addresses == sorted(addresses)
