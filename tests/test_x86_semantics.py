"""Tests for instruction-level semantics (stack deltas, register effects)."""

from repro.x86.assembler import Assembler
from repro.x86.disassembler import decode_instruction
from repro.x86.operands import Mem
from repro.x86.registers import (
    CALLER_SAVED_REGISTERS,
    R10,
    RAX,
    RBP,
    RBX,
    RCX,
    RDI,
    RSI,
    RSP,
)
from repro.x86.semantics import (
    clobbers_register,
    entry_masks,
    moves_immediate_to,
    registers_read,
    registers_written,
    stack_delta,
)

asm = Assembler()


def decode(data: bytes):
    return decode_instruction(data, 0, 0x1000)


def test_stack_delta_push_pop():
    assert stack_delta(decode(asm.push(RBP))) == -8
    assert stack_delta(decode(asm.pop(RBX))) == 8


def test_stack_delta_sub_add_rsp():
    assert stack_delta(decode(asm.sub_ri(RSP, 0x40))) == -0x40
    assert stack_delta(decode(asm.add_ri(RSP, 0x40))) == 0x40


def test_stack_delta_other_arithmetic_is_zero():
    assert stack_delta(decode(asm.add_ri(RAX, 8))) == 0
    assert stack_delta(decode(asm.xor_rr32(RAX, RAX))) == 0


def test_stack_delta_unknown_for_leave_and_rsp_writes():
    assert stack_delta(decode(asm.leave())) is None
    assert stack_delta(decode(asm.mov_rr(RSP, RBP))) is None
    assert stack_delta(decode(asm.and_ri(RSP, -16))) is None


def test_stack_delta_call_and_ret():
    assert stack_delta(decode(asm.call_rel32(0))) == 0
    assert stack_delta(decode(asm.ret())) == 8


def test_registers_written_by_call_include_caller_saved():
    written = registers_written(decode(asm.call_rel32(0)))
    assert set(CALLER_SAVED_REGISTERS) <= written
    assert RSP in written
    assert RBX not in written


def test_registers_read_mov_and_lea():
    insn = decode(asm.mov_rr(RDI, RSI))
    assert registers_read(insn) == {RSI}
    assert registers_written(insn) == {RDI}

    lea = decode(asm.lea(RAX, Mem(base=RBP, index=RCX, scale=4, disp=8)))
    assert registers_read(lea) == {RBP, RCX}
    assert registers_written(lea) == {RAX}


def test_registers_read_memory_store_includes_address_and_value():
    insn = decode(asm.mov_store(Mem(base=RSP, disp=8), RDI))
    assert {RSP, RDI} <= registers_read(insn)
    assert registers_written(insn) == set()


def test_xor_zeroing_idiom_reads_nothing():
    insn = decode(asm.xor_rr32(RAX, RAX))
    assert registers_read(insn) == set()
    assert RAX in registers_written(insn)
    assert clobbers_register(insn, RAX)


def test_xor_with_distinct_registers_reads_both():
    insn = decode(asm.xor_rr(RAX, RCX))
    assert registers_read(insn) == {RAX, RCX}


def test_arithmetic_reads_both_operands():
    insn = decode(asm.add_rr(RAX, R10))
    assert registers_read(insn) == {RAX, R10}
    assert registers_written(insn) == {RAX}


def test_compare_writes_nothing():
    assert registers_written(decode(asm.cmp_rr(RDI, RSI))) == set()
    assert registers_written(decode(asm.test_rr(RAX, RAX))) == set()


def test_push_reads_its_operand_and_rsp():
    insn = decode(asm.push(RBX))
    assert registers_read(insn) == {RBX, RSP}


def test_indirect_call_reads_target_register():
    insn = decode(asm.call_reg(R10))
    assert R10 in registers_read(insn)


def test_moves_immediate_to_detects_mov_and_xor():
    assert moves_immediate_to(decode(asm.mov_ri32(RDI, 7)), RDI) == 7
    assert moves_immediate_to(decode(asm.xor_rr32(RAX, RAX)), RAX) == 0
    assert moves_immediate_to(decode(asm.mov_ri32(RDI, 7)), RSI) is None
    assert moves_immediate_to(decode(asm.mov_rr(RDI, RSI)), RDI) is None


def test_entry_masks_count_no_16_bit_register_write_as_a_definition():
    full = entry_masks(decode(asm.mov_ri(RDI, 1)))
    assert full & 0xFFFF == 1 << RDI.number
    # ``mov di, 1`` keeps the upper 48 bits of rdi: rdi is not defined
    word = decode(b"\x66\xbf\x01\x00")
    assert (word.operands[0], word.operand_size) == (RDI, 2)
    assert entry_masks(word) & 0xFFFF == 0
