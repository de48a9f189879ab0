"""Call Frame Instruction (CFI) model, encoder and decoder.

A CFI program is the list of instructions carried by a CIE (initial rules) or
an FDE (per-function rules).  Instructions are represented in *resolved* form:
``advance_loc`` deltas are in bytes and ``offset`` rules carry the actual
CFA-relative byte offset, with the code/data alignment factoring applied at
encode/decode time.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dwarf import constants as C
from repro.dwarf.leb128 import (
    decode_sleb128,
    decode_uleb128,
    encode_sleb128,
    encode_uleb128,
)


class CfiInstruction(NamedTuple):
    """A single call-frame instruction.

    ``name`` is one of: ``def_cfa``, ``def_cfa_register``, ``def_cfa_offset``,
    ``advance_loc``, ``offset``, ``restore``, ``undefined``, ``same_value``,
    ``register``, ``remember_state``, ``restore_state``, ``def_cfa_expression``,
    ``expression``, ``gnu_args_size`` or ``nop``; ``operands`` carries the
    resolved operand values for that instruction.
    """

    name: str
    operands: tuple = ()

    def __str__(self) -> str:  # pragma: no cover - display helper
        ops = ", ".join(str(op) for op in self.operands)
        return f"DW_CFA_{self.name}" + (f": {ops}" if ops else "")


# Convenience constructors --------------------------------------------------

def def_cfa(register: int, offset: int) -> CfiInstruction:
    return CfiInstruction("def_cfa", (register, offset))


def def_cfa_register(register: int) -> CfiInstruction:
    return CfiInstruction("def_cfa_register", (register,))


def def_cfa_offset(offset: int) -> CfiInstruction:
    return CfiInstruction("def_cfa_offset", (offset,))


def advance_loc(delta: int) -> CfiInstruction:
    return CfiInstruction("advance_loc", (delta,))


def offset(register: int, cfa_offset: int) -> CfiInstruction:
    """Register saved at ``CFA + cfa_offset`` (byte offset, usually negative)."""
    return CfiInstruction("offset", (register, cfa_offset))


def restore(register: int) -> CfiInstruction:
    return CfiInstruction("restore", (register,))


def def_cfa_expression(expression: bytes) -> CfiInstruction:
    return CfiInstruction("def_cfa_expression", (expression,))


def expression(register: int, expr: bytes) -> CfiInstruction:
    return CfiInstruction("expression", (register, expr))


def remember_state() -> CfiInstruction:
    return CfiInstruction("remember_state")


def restore_state() -> CfiInstruction:
    return CfiInstruction("restore_state")


def nop() -> CfiInstruction:
    return CfiInstruction("nop")


# Encoding -------------------------------------------------------------------

def encode_cfi_program(
    instructions: list[CfiInstruction],
    *,
    code_alignment: int = 1,
    data_alignment: int = -8,
) -> bytes:
    """Encode a CFI program to its binary form."""
    out = bytearray()
    for insn in instructions:
        out += _encode_one(insn, code_alignment, data_alignment)
    return bytes(out)


def _encode_one(insn: CfiInstruction, code_alignment: int, data_alignment: int) -> bytes:
    name = insn.name
    ops = insn.operands
    if name == "nop":
        return bytes([C.DW_CFA_nop])
    if name == "advance_loc":
        delta = ops[0]
        if delta % code_alignment:
            raise ValueError(f"advance_loc delta {delta} not a multiple of code alignment")
        factored = delta // code_alignment
        if factored < 0x40:
            return bytes([C.DW_CFA_advance_loc | factored])
        if factored < 0x100:
            return bytes([C.DW_CFA_advance_loc1, factored])
        if factored < 0x10000:
            return bytes([C.DW_CFA_advance_loc2, factored & 0xFF, factored >> 8])
        return bytes([C.DW_CFA_advance_loc4]) + factored.to_bytes(4, "little")
    if name == "def_cfa":
        return bytes([C.DW_CFA_def_cfa]) + encode_uleb128(ops[0]) + encode_uleb128(ops[1])
    if name == "def_cfa_register":
        return bytes([C.DW_CFA_def_cfa_register]) + encode_uleb128(ops[0])
    if name == "def_cfa_offset":
        return bytes([C.DW_CFA_def_cfa_offset]) + encode_uleb128(ops[0])
    if name == "offset":
        register, byte_offset = ops
        factored = byte_offset // data_alignment
        if factored < 0:
            return (
                bytes([C.DW_CFA_offset_extended_sf])
                + encode_uleb128(register)
                + encode_sleb128(factored)
            )
        if register < 0x40:
            return bytes([C.DW_CFA_offset | register]) + encode_uleb128(factored)
        return (
            bytes([C.DW_CFA_offset_extended])
            + encode_uleb128(register)
            + encode_uleb128(factored)
        )
    if name == "restore":
        register = ops[0]
        if register < 0x40:
            return bytes([C.DW_CFA_restore | register])
        return bytes([C.DW_CFA_restore_extended]) + encode_uleb128(register)
    if name == "undefined":
        return bytes([C.DW_CFA_undefined]) + encode_uleb128(ops[0])
    if name == "same_value":
        return bytes([C.DW_CFA_same_value]) + encode_uleb128(ops[0])
    if name == "register":
        return bytes([C.DW_CFA_register]) + encode_uleb128(ops[0]) + encode_uleb128(ops[1])
    if name == "remember_state":
        return bytes([C.DW_CFA_remember_state])
    if name == "restore_state":
        return bytes([C.DW_CFA_restore_state])
    if name == "def_cfa_expression":
        expr = ops[0]
        return bytes([C.DW_CFA_def_cfa_expression]) + encode_uleb128(len(expr)) + expr
    if name == "expression":
        register, expr = ops
        return (
            bytes([C.DW_CFA_expression])
            + encode_uleb128(register)
            + encode_uleb128(len(expr))
            + expr
        )
    if name == "gnu_args_size":
        return bytes([C.DW_CFA_GNU_args_size]) + encode_uleb128(ops[0])
    raise ValueError(f"cannot encode CFI instruction: {name}")


# Decoding -------------------------------------------------------------------

def decode_cfi_program(
    data: bytes,
    *,
    code_alignment: int = 1,
    data_alignment: int = -8,
) -> list[CfiInstruction]:
    """Decode a CFI program from its binary form into resolved instructions.

    Raises ``ValueError`` for an unknown opcode or a truncated LEB128
    operand and ``IndexError`` for a short ``advance_loc1`` read; the
    ``.eh_frame`` parser turns both into its parse error.

    Instructions are built with ``tuple.__new__`` rather than the
    convenience constructors: this decoder runs once per CIE/FDE at parse
    time, so it sits on every cold detection's path.
    """
    new = tuple.__new__
    cls = CfiInstruction
    out: list[CfiInstruction] = []
    append = out.append
    pos = 0
    while pos < len(data):
        opcode = data[pos]
        pos += 1
        primary = opcode & 0xC0
        low = opcode & 0x3F

        if primary == C.DW_CFA_advance_loc:
            append(new(cls, ("advance_loc", (low * code_alignment,))))
            continue
        if primary == C.DW_CFA_offset:
            factored, pos = decode_uleb128(data, pos)
            append(new(cls, ("offset", (low, factored * data_alignment))))
            continue
        if primary == C.DW_CFA_restore:
            append(new(cls, ("restore", (low,))))
            continue

        if opcode == C.DW_CFA_nop:
            append(new(cls, ("nop", ())))
        elif opcode == C.DW_CFA_advance_loc1:
            append(new(cls, ("advance_loc", (data[pos] * code_alignment,))))
            pos += 1
        elif opcode == C.DW_CFA_advance_loc2:
            value = int.from_bytes(data[pos : pos + 2], "little")
            append(new(cls, ("advance_loc", (value * code_alignment,))))
            pos += 2
        elif opcode == C.DW_CFA_advance_loc4:
            value = int.from_bytes(data[pos : pos + 4], "little")
            append(new(cls, ("advance_loc", (value * code_alignment,))))
            pos += 4
        elif opcode == C.DW_CFA_def_cfa:
            register, pos = decode_uleb128(data, pos)
            cfa_offset, pos = decode_uleb128(data, pos)
            append(new(cls, ("def_cfa", (register, cfa_offset))))
        elif opcode == C.DW_CFA_def_cfa_register:
            register, pos = decode_uleb128(data, pos)
            append(new(cls, ("def_cfa_register", (register,))))
        elif opcode == C.DW_CFA_def_cfa_offset:
            cfa_offset, pos = decode_uleb128(data, pos)
            append(new(cls, ("def_cfa_offset", (cfa_offset,))))
        elif opcode == C.DW_CFA_def_cfa_sf:
            register, pos = decode_uleb128(data, pos)
            factored, pos = decode_sleb128(data, pos)
            append(new(cls, ("def_cfa", (register, factored * data_alignment))))
        elif opcode == C.DW_CFA_def_cfa_offset_sf:
            factored, pos = decode_sleb128(data, pos)
            append(new(cls, ("def_cfa_offset", (factored * data_alignment,))))
        elif opcode == C.DW_CFA_offset_extended:
            register, pos = decode_uleb128(data, pos)
            factored, pos = decode_uleb128(data, pos)
            append(new(cls, ("offset", (register, factored * data_alignment))))
        elif opcode == C.DW_CFA_offset_extended_sf:
            register, pos = decode_uleb128(data, pos)
            factored, pos = decode_sleb128(data, pos)
            append(new(cls, ("offset", (register, factored * data_alignment))))
        elif opcode == C.DW_CFA_restore_extended:
            register, pos = decode_uleb128(data, pos)
            append(new(cls, ("restore", (register,))))
        elif opcode == C.DW_CFA_undefined:
            register, pos = decode_uleb128(data, pos)
            append(new(cls, ("undefined", (register,))))
        elif opcode == C.DW_CFA_same_value:
            register, pos = decode_uleb128(data, pos)
            append(new(cls, ("same_value", (register,))))
        elif opcode == C.DW_CFA_register:
            reg_a, pos = decode_uleb128(data, pos)
            reg_b, pos = decode_uleb128(data, pos)
            append(new(cls, ("register", (reg_a, reg_b))))
        elif opcode == C.DW_CFA_remember_state:
            append(new(cls, ("remember_state", ())))
        elif opcode == C.DW_CFA_restore_state:
            append(new(cls, ("restore_state", ())))
        elif opcode == C.DW_CFA_def_cfa_expression:
            length, pos = decode_uleb128(data, pos)
            append(new(cls, ("def_cfa_expression", (data[pos : pos + length],))))
            pos += length
        elif opcode == C.DW_CFA_expression:
            register, pos = decode_uleb128(data, pos)
            length, pos = decode_uleb128(data, pos)
            append(new(cls, ("expression", (register, data[pos : pos + length]))))
            pos += length
        elif opcode == C.DW_CFA_GNU_args_size:
            size, pos = decode_uleb128(data, pos)
            append(new(cls, ("gnu_args_size", (size,))))
        else:
            raise ValueError(f"unknown CFI opcode {opcode:#04x}")
    return out
