"""Instruction-level semantic helpers.

These helpers answer the three questions the analysis layers need:

* how an instruction changes the stack pointer (:func:`stack_delta`),
* which registers it reads before writing (:func:`registers_read`),
* which registers it writes (:func:`registers_written`).

The modelling is deliberately conservative: anything the model cannot express
precisely is reported as *unknown* (``None`` for stack deltas) rather than
guessed, which is what the "safe" analyses of the paper require.
"""

from __future__ import annotations

from repro.x86.instruction import Instruction
from repro.x86.operands import Imm, Mem
from repro.x86.registers import (
    CALLER_SAVED_REGISTERS,
    GPR64,
    RAX,
    RBP,
    RCX,
    RSP,
    R11,
    Register,
)

_WRITES_FIRST_OPERAND = frozenset(
    {"mov", "lea", "movsxd", "movzx", "movsx", "add", "sub", "and", "or", "xor", "adc", "sbb",
     "imul", "shl", "shr", "sar", "rol", "ror", "rcl", "rcr", "inc", "dec", "pop"}
)
_READS_FIRST_OPERAND = frozenset(
    {"add", "sub", "and", "or", "xor", "adc", "sbb", "imul", "shl", "shr", "sar", "rol", "ror",
     "rcl", "rcr", "cmp", "test", "inc", "dec", "push"}
)
_COMPARE_ONLY = frozenset({"cmp", "test"})

# ---------------------------------------------------------------------------
# Mask-based fast path.  Register read/write facts are computed as int bit
# masks (bit ``n`` = register encoding number ``n``); the frozenset API is
# derived from the masks through a tiny shared mask -> frozenset table (the
# distinct masks number in the dozens).  Almost every instruction on the cold
# path is examined exactly once, so the mask functions deliberately carry no
# per-instruction memo — a memo slot would pay its miss cost on every call —
# and masks avoid allocating and hashing register sets in that single pass.
# ---------------------------------------------------------------------------

#: Mnemonics that implicitly read/write the stack pointer.
_STACK_MNEMONICS = frozenset({"push", "pop", "call", "ret", "leave"})
#: Mnemonics whose first register operand is read (including read-modify-write).
_READS_POS0 = _READS_FIRST_OPERAND | _COMPARE_ONLY | frozenset({"call", "jmp"})

_RSP_BIT = 1 << RSP.number
_RBP_BIT = 1 << RBP.number
_CALLER_SAVED_MASK = 0
for _reg in CALLER_SAVED_REGISTERS:
    _CALLER_SAVED_MASK |= 1 << _reg.number
_SYSCALL_WRITES_MASK = (1 << RAX.number) | (1 << RCX.number) | (1 << R11.number)

_REGS_BY_MASK: dict[int, frozenset[Register]] = {}


def _registers_from_mask(mask: int) -> frozenset[Register]:
    try:
        return _REGS_BY_MASK[mask]
    except KeyError:
        regs = frozenset(reg for reg in GPR64 if (mask >> reg.number) & 1)
        _REGS_BY_MASK[mask] = regs
        return regs


def register_mask(registers: frozenset[Register] | set[Register] | tuple[Register, ...]) -> int:
    """Fold a register collection into a bit mask keyed by encoding number."""
    mask = 0
    for register in registers:
        mask |= 1 << register.number
    return mask


def read_mask(insn: Instruction) -> int:
    """:func:`registers_read` as a bit mask."""
    mnemonic = insn.mnemonic
    operands = insn.operands
    mask = 0
    if mnemonic in _STACK_MNEMONICS:
        mask = _RSP_BIT
        if mnemonic == "leave":
            mask |= _RBP_BIT
    if operands:
        if (
            mnemonic == "xor"
            and len(operands) == 2
            and operands[0].__class__ is Register
            and operands[0] == operands[1]
        ):
            # Register-zeroing idiom: defines the register, reads nothing.
            return mask
        position = 0
        for operand in operands:
            cls = operand.__class__
            if cls is Register:
                if position or mnemonic in _READS_POS0:
                    mask |= 1 << operand.number
            elif cls is Mem:
                base = operand.base
                if base is not None:
                    mask |= 1 << base.number
                index = operand.index
                if index is not None:
                    mask |= 1 << index.number
            position += 1
    return mask


def write_mask(insn: Instruction) -> int:
    """:func:`registers_written` as a bit mask."""
    mnemonic = insn.mnemonic
    operands = insn.operands
    mask = 0
    if mnemonic in _STACK_MNEMONICS:
        mask = _RSP_BIT
        if mnemonic == "call":
            mask |= _CALLER_SAVED_MASK
        elif mnemonic == "leave":
            mask |= _RBP_BIT
    elif mnemonic == "syscall":
        mask = _SYSCALL_WRITES_MASK
    if mnemonic in _WRITES_FIRST_OPERAND and operands:
        dst = operands[0]
        if dst.__class__ is Register:
            mask |= 1 << dst.number
    return mask


def entry_masks(insn: Instruction) -> int:
    """``(read_mask(insn) << 16) | write_mask(insn)`` in one operand pass.

    The calling-convention walk needs both masks for every instruction it
    steps over; fusing them halves the per-step call and operand-scan count.
    Register encoding numbers stay below 16, so both masks fit their halves.
    """
    mnemonic = insn.mnemonic
    operands = insn.operands
    reads = 0
    writes = 0
    if mnemonic in _STACK_MNEMONICS:
        reads = _RSP_BIT
        writes = _RSP_BIT
        if mnemonic == "call":
            writes |= _CALLER_SAVED_MASK
        elif mnemonic == "leave":
            reads |= _RBP_BIT
            writes |= _RBP_BIT
    elif mnemonic == "syscall":
        writes = _SYSCALL_WRITES_MASK
    if operands:
        if (
            mnemonic in _WRITES_FIRST_OPERAND
            and operands[0].__class__ is Register
            and insn.operand_size != 2
        ):
            # a 16-bit write leaves the upper bits live: not a definition
            writes |= 1 << operands[0].number
        if (
            mnemonic == "xor"
            and len(operands) == 2
            and operands[0].__class__ is Register
            and operands[0] == operands[1]
        ):
            # Register-zeroing idiom: defines the register, reads nothing.
            return (reads << 16) | writes
        position = 0
        for operand in operands:
            cls = operand.__class__
            if cls is Register:
                if position or mnemonic in _READS_POS0:
                    reads |= 1 << operand.number
            elif cls is Mem:
                base = operand.base
                if base is not None:
                    reads |= 1 << base.number
                index = operand.index
                if index is not None:
                    reads |= 1 << index.number
            position += 1
    return (reads << 16) | writes


def stack_delta(insn: Instruction) -> int | None:
    """The change applied to ``rsp`` by this instruction, in bytes.

    Returns ``None`` when the effect is unknown or data-dependent (``leave``,
    ``mov rsp, ...``, ``and rsp, ...`` and similar), which callers must treat
    as "stack height no longer tracked".
    """
    mnemonic = insn.mnemonic
    if mnemonic == "push":
        return -8
    if mnemonic == "pop":
        return 8
    if mnemonic == "ret":
        return 8
    if mnemonic == "call":
        return 0
    if mnemonic == "leave":
        return None
    if mnemonic in ("add", "sub") and insn.operands:
        dst = insn.operands[0]
        if isinstance(dst, Register) and dst == RSP:
            imm = insn.operands[1] if len(insn.operands) > 1 else None
            if isinstance(imm, Imm):
                return imm.value if mnemonic == "add" else -imm.value
            return None
        return 0
    # Any other instruction that writes rsp makes the height unknown.
    if RSP in registers_written(insn):
        return None
    return 0


def registers_written(insn: Instruction) -> frozenset[Register]:
    """Registers whose value is (potentially) overwritten by ``insn``.

    The result is a pure per-instruction fact, derived from
    :func:`write_mask` and memoized on the (shared, cached) instruction
    object itself.
    """
    try:
        return insn._regs_written
    except AttributeError:
        result = _registers_from_mask(write_mask(insn))
        insn._regs_written = result
        return result


def registers_read(insn: Instruction) -> frozenset[Register]:
    """Registers whose previous value influences the behaviour of ``insn``.

    The register-zeroing idiom ``xor reg, reg`` is treated as reading nothing,
    matching how calling-convention validation must see it (it *defines* the
    register).  Derived from :func:`read_mask` and memoized like
    :func:`registers_written`.
    """
    try:
        return insn._regs_read
    except AttributeError:
        result = _registers_from_mask(read_mask(insn))
        insn._regs_read = result
        return result


def clobbers_register(insn: Instruction, reg: Register) -> bool:
    """Whether ``insn`` overwrites ``reg`` without depending on its old value."""
    return reg in registers_written(insn) and reg not in registers_read(insn)


def moves_immediate_to(insn: Instruction, reg: Register) -> int | None:
    """If ``insn`` is ``mov reg, imm`` (or ``xor reg, reg``), the value loaded."""
    if insn.mnemonic == "mov" and len(insn.operands) == 2:
        dst, src = insn.operands
        if isinstance(dst, Register) and dst == reg and isinstance(src, Imm):
            return src.value
    if insn.mnemonic == "xor" and len(insn.operands) == 2:
        dst, src = insn.operands
        if dst == reg and src == reg:
            return 0
    return None
