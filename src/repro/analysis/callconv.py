"""Calling-convention validation.

The rule from §IV-E of the paper: at a legitimate function entry, every
register other than the System-V integer-argument registers (``rdi``,
``rsi``, ``rdx``, ``rcx``, ``r8``, ``r9``) must be initialised before it is
used.  Saving a callee-saved register with ``push`` does not count as a use,
and a ``call`` re-defines the caller-saved registers.  The check walks a
bounded number of instructions of straight-line + direct-jump flow from the
candidate entry and reports a violation as soon as an uninitialised register
is read; undecodable bytes are also violations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.elf.image import BinaryImage
from repro.x86.instruction import (
    _F_CALL,
    _F_RET,
    _F_TERMINATOR,
    _F_UNCOND_JUMP,
    Instruction,
)
from repro.x86.registers import (
    ARGUMENT_REGISTERS,
    RBP,
    RSP,
    Register,
)
from repro.x86.semantics import entry_masks, register_mask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext

_DEFAULT_LIMIT = 48

#: Registers a caller is allowed to leave live at a function entry, as the
#: bit mask the walk tracks (bit ``n`` = register encoding number ``n``).
_ENTRY_INITIALIZED_MASK = register_mask(ARGUMENT_REGISTERS) | register_mask((RSP, RBP))

#: Non-ret terminators that end the walk with a clean verdict.
_STOP_MNEMONICS = frozenset({"ud2", "hlt"})

#: decode-cache probe sentinel ("address not yet decoded")
_UNCACHED = object()


def satisfies_calling_convention(
    image: BinaryImage,
    address: int,
    *,
    max_instructions: int = _DEFAULT_LIMIT,
    context: "AnalysisContext",
) -> bool:
    """Whether code starting at ``address`` looks like a function entry.

    The verdict is memoized per address on ``context`` (the check is a pure
    function of the image bytes) and decoding goes through its spans.
    """
    return context.calling_convention_ok(address, max_instructions=max_instructions)


def adjusted_entry_masks(insn: Instruction) -> int:
    """:func:`entry_masks` with the walk's push adjustment applied statically.

    Returns ``(reads << 16) | writes`` where the read of a ``push``'d
    register has been removed — saving a register is not a use of its value.
    The walk only applies the adjustment after spotting a violation, but the
    outcome is the same either way (the adjusted set is a subset), which
    lets span summaries precompute one mask per instruction.
    """
    masks = entry_masks(insn)
    if insn.mnemonic == "push" and insn.operands:
        for operand in insn.operands:
            if operand.__class__ is Register:
                masks &= ~(1 << (operand.number + 16))
    return masks


def _convention_walk(
    decode: Callable[[int], Instruction | None],
    cache_get,
    address: int,
    initialized: int,
    max_instructions: int,
    jump_targets: set[int],
) -> bool:
    """The per-instruction convention walk from an arbitrary mid-walk state.

    This is the reference implementation of the §IV-E check;
    :meth:`repro.core.context.AnalysisContext.calling_convention_ok` runs an
    equivalent span-summary walk and falls back to this one (with the
    accumulated ``initialized``/budget/``jump_targets`` state) whenever a
    jump leaves the span-aligned fast path.
    """
    # ``initialized`` always contains RSP/RBP, so the violation test reduces
    # to a plain subset check over the read-set; both sets are tracked as bit
    # masks keyed by register encoding number.  Cycles require at least one
    # backward unconditional jump (fall-through addresses strictly increase),
    # so loop detection only has to remember jump targets — and a re-walked
    # instruction can never produce a new violation because ``initialized``
    # only grows, so detecting the cycle one lap late keeps the verdict.
    current = address

    for _ in range(max_instructions):
        insn = cache_get(current, _UNCACHED)
        if insn is _UNCACHED:
            insn = decode(current)
        if insn is None:
            return False

        flags = insn._flags
        if flags:
            if flags & (_F_RET | _F_CALL):
                # A ret ends the walk cleanly; reaching a call without a
                # violation is good enough — the callee re-establishes its
                # own conventions.
                return True
            if (
                flags & _F_TERMINATOR
                and not flags & _F_UNCOND_JUMP
                and insn.mnemonic in _STOP_MNEMONICS
            ):
                return True

        masks = entry_masks(insn)
        reads = masks >> 16
        if reads & ~initialized:
            if insn.mnemonic == "push" and insn.operands:
                # Saving a register is not a use of its value in the ABI sense.
                for operand in insn.operands:
                    if operand.__class__ is Register:
                        reads &= ~(1 << operand.number)
            if reads & ~initialized:
                return False
        initialized |= masks & 0xFFFF

        if flags & _F_UNCOND_JUMP:
            target = insn.branch_target
            if target is None or target in jump_targets:
                return True
            jump_targets.add(target)
            current = target
            continue
        # Conditional jumps follow the fall-through edge; one clean path is
        # sufficient for this conservative check.
        current = insn.end
    return True
