"""Calling-convention validation.

The rule from §IV-E of the paper: at a legitimate function entry, every
register other than the System-V integer-argument registers (``rdi``,
``rsi``, ``rdx``, ``rcx``, ``r8``, ``r9``) must be initialised before it is
used.  Saving a callee-saved register with ``push`` does not count as a use.
The check walks at most ``_DEFAULT_LIMIT`` instructions of straight-line +
direct-jump flow from the candidate entry (conditional jumps follow their
fall-through edge) and reports a violation as soon as an uninitialised
register is read; undecodable bytes and non-code are also violations.  A
``ret``, a ``call`` (the callee re-establishes its own conventions), a
``ud2``/``hlt``, an indirect jump, a jump to an already-followed target or
an exhausted budget ends the walk cleanly.

The walk itself runs span at a time over the decoded-span cache, in
:meth:`repro.core.context.AnalysisContext.calling_convention_ok`, from the
per-span summaries built with :func:`adjusted_entry_masks`.
"""

from __future__ import annotations

from repro.x86.instruction import Instruction
from repro.x86.registers import (
    ARGUMENT_REGISTERS,
    RBP,
    RSP,
    Register,
)
from repro.x86.semantics import entry_masks, register_mask

_DEFAULT_LIMIT = 48

#: Registers a caller is allowed to leave live at a function entry, as the
#: bit mask the walk tracks (bit ``n`` = register encoding number ``n``).
_ENTRY_INITIALIZED_MASK = register_mask(ARGUMENT_REGISTERS) | register_mask((RSP, RBP))

#: Non-ret terminators that end the walk with a clean verdict.
_STOP_MNEMONICS = frozenset({"ud2", "hlt"})


def adjusted_entry_masks(insn: Instruction) -> int:
    """:func:`entry_masks` with the walk's push adjustment applied statically.

    Returns ``(reads << 16) | writes`` where the read of a ``push``'d
    register has been removed — saving a register is not a use of its value
    in the ABI sense — so span summaries precompute one mask per instruction.
    """
    masks = entry_masks(insn)
    if insn.mnemonic == "push" and insn.operands:
        for operand in insn.operands:
            if operand.__class__ is Register:
                masks &= ~(1 << (operand.number + 16))
    return masks

