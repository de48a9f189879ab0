"""x86-64 instruction set substrate.

This package provides a self-contained assembler (:mod:`repro.x86.assembler`)
and disassembler (:mod:`repro.x86.disassembler`) for the subset of the x86-64
instruction set emitted by compilers for ordinary C/C++ code: stack
management, data movement, arithmetic, comparisons, direct/indirect control
transfers, and padding.  It exists so that the rest of the library can encode
synthetic binaries and decode arbitrary code bytes without any external
binary-analysis dependency.

The public surface is intentionally small:

* :class:`~repro.x86.registers.Register` and the ``RAX`` .. ``R15`` constants,
* :class:`~repro.x86.operands.Imm` / :class:`~repro.x86.operands.Mem` operands,
* :class:`~repro.x86.instruction.Instruction`,
* :class:`~repro.x86.assembler.Assembler` for encoding,
* :func:`~repro.x86.disassembler.decode_instruction` /
  :func:`~repro.x86.disassembler.decode_range` /
  :func:`~repro.x86.disassembler.decode_block` for decoding,
* :mod:`~repro.x86.semantics` helpers (stack deltas, register effects).
"""

from repro.x86.registers import (
    Register,
    RAX,
    RCX,
    RDX,
    RBX,
    RSP,
    RBP,
    RSI,
    RDI,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
    GPR64,
    ARGUMENT_REGISTERS,
    CALLEE_SAVED_REGISTERS,
    register_by_name,
)
from repro.x86.operands import Imm, Mem
from repro.x86.instruction import Instruction
from repro.x86.disassembler import (
    DecodeError,
    decode_block,
    decode_instruction,
    decode_range,
)

__all__ = [
    "Register",
    "RAX",
    "RCX",
    "RDX",
    "RBX",
    "RSP",
    "RBP",
    "RSI",
    "RDI",
    "R8",
    "R9",
    "R10",
    "R11",
    "R12",
    "R13",
    "R14",
    "R15",
    "GPR64",
    "ARGUMENT_REGISTERS",
    "CALLEE_SAVED_REGISTERS",
    "register_by_name",
    "Imm",
    "Mem",
    "Instruction",
    "DecodeError",
    "decode_block",
    "decode_instruction",
    "decode_range",
]
