"""Tests for the register model."""

import pytest

from repro.x86.registers import (
    ARGUMENT_REGISTERS,
    CALLEE_SAVED_REGISTERS,
    CALLER_SAVED_REGISTERS,
    GPR64,
    R8,
    R12,
    RAX,
    RBP,
    RDI,
    RSP,
    register_by_name,
    register_by_number,
)


def test_sixteen_general_purpose_registers():
    assert len(GPR64) == 16
    assert len({reg.number for reg in GPR64}) == 16
    assert len({reg.name for reg in GPR64}) == 16


def test_encoding_numbers_follow_hardware_order():
    assert RAX.number == 0
    assert RSP.number == 4
    assert RBP.number == 5
    assert RDI.number == 7
    assert R8.number == 8


def test_dwarf_numbers_follow_sysv_mapping():
    # The DWARF numbering differs from the hardware encoding (rdx=1, rcx=2...).
    assert RSP.dwarf_number == 7
    assert RBP.dwarf_number == 6
    assert RDI.dwarf_number == 5
    assert RAX.dwarf_number == 0


def test_lookup_by_name_accepts_32bit_aliases():
    assert register_by_name("rax") is RAX
    assert register_by_name("eax") is RAX
    assert register_by_name("r8d") is R8
    assert register_by_name("RDI") is RDI


def test_lookup_by_name_rejects_unknown():
    with pytest.raises(KeyError):
        register_by_name("xmm0")


def test_lookup_by_number_rejects_out_of_range():
    with pytest.raises(KeyError):
        register_by_number(16)


def test_rex_requirement():
    assert not RAX.needs_rex
    assert not RDI.needs_rex
    assert R8.needs_rex
    assert R12.needs_rex
    assert R12.low_bits == R12.number - 8


def test_argument_registers_are_sysv_order():
    assert [r.name for r in ARGUMENT_REGISTERS] == ["rdi", "rsi", "rdx", "rcx", "r8", "r9"]


def test_callee_and_caller_saved_partition():
    callee = set(CALLEE_SAVED_REGISTERS)
    caller = set(CALLER_SAVED_REGISTERS)
    assert not callee & caller
    assert RSP not in callee | caller


def test_name32_forms():
    assert RAX.name32() == "eax"
    assert R8.name32() == "r8d"
