"""Decoded / assembled instruction model.

An :class:`Instruction` is a plain value object: mnemonic, operands, the
address it was decoded at (or will be placed at) and its raw encoding.  The
classification helpers (``is_call``, ``is_conditional_jump`` ...) are the
vocabulary used throughout the analysis and detection layers, so they live
here rather than in the semantics module.

The class is ``__slots__``-backed and classification is a single bit test
against a per-mnemonic flag word computed once at import: the decoder
allocates an :class:`Instruction` for every decoded address, and the
per-instance ``cached_property`` dicts of the previous dataclass design were
one of the dominant costs of the cold decode path.  Derived facts that the
traversal layers query constantly (``end``, ``branch_target``,
``rip_target``) are precomputed in the constructor.
"""

from __future__ import annotations

from repro.x86.operands import Imm, Mem
from repro.x86.registers import Register

#: Conditional jump mnemonics, keyed by condition-code nibble.
CONDITION_CODES = {
    0x0: "jo",
    0x1: "jno",
    0x2: "jb",
    0x3: "jae",
    0x4: "je",
    0x5: "jne",
    0x6: "jbe",
    0x7: "ja",
    0x8: "js",
    0x9: "jns",
    0xA: "jp",
    0xB: "jnp",
    0xC: "jl",
    0xD: "jge",
    0xE: "jle",
    0xF: "jg",
}

CONDITIONAL_JUMPS = frozenset(CONDITION_CODES.values())

#: Mnemonics that never fall through to the next instruction.
_NO_FALLTHROUGH = frozenset({"jmp", "ret", "ud2", "hlt"})

#: Mnemonics treated as padding / alignment filler by compilers.
PADDING_MNEMONICS = frozenset({"nop", "int3"})

Operand = Register | Imm | Mem

# Classification flag bits (per mnemonic, composed once below).
_F_CALL = 0x001
_F_RET = 0x002
_F_UNCOND_JUMP = 0x004
_F_COND_JUMP = 0x008
_F_NOP = 0x010
_F_PADDING = 0x020
_F_TERMINATOR = 0x040
_F_INVALID = 0x080
#: per-instance bit: a call/jump through a register or memory operand
_F_INDIRECT = 0x100

_F_JUMP = _F_UNCOND_JUMP | _F_COND_JUMP
_F_BRANCH = _F_JUMP | _F_CALL | _F_RET
_F_CALL_OR_JUMP = _F_CALL | _F_JUMP
#: any instruction that can redirect or end control flow
_F_CONTROL = _F_BRANCH | _F_TERMINATOR

#: mnemonic -> classification flags, the lookup table behind every helper.
_MNEMONIC_FLAGS: dict[str, int] = {name: _F_COND_JUMP for name in CONDITIONAL_JUMPS}
_MNEMONIC_FLAGS["jmp"] = _F_UNCOND_JUMP | _F_TERMINATOR
_MNEMONIC_FLAGS["call"] = _F_CALL
_MNEMONIC_FLAGS["ret"] = _F_RET | _F_TERMINATOR
_MNEMONIC_FLAGS["ud2"] = _F_TERMINATOR
_MNEMONIC_FLAGS["hlt"] = _F_TERMINATOR
_MNEMONIC_FLAGS["nop"] = _F_NOP | _F_PADDING
_MNEMONIC_FLAGS["endbr64"] = _F_NOP
_MNEMONIC_FLAGS["int3"] = _F_PADDING
_MNEMONIC_FLAGS["(bad)"] = _F_INVALID


class Instruction:
    """A single decoded or assembled x86-64 instruction.

    Equality and hashing cover the value fields: mnemonic, operands,
    address, encoding and operand size.
    """

    __slots__ = (
        "mnemonic",
        "operands",
        "address",
        "data",
        "operand_size",
        "end",
        "branch_target",
        "rip_target",
        "_flags",
        "_memory_operand",
        # Precomputed code-constant contribution (``None`` | int | tuple):
        # the >=4-byte immediates of a non-branch instruction plus any
        # RIP-relative target, i.e. exactly what
        # ``DisassembledFunction.code_constants`` collects per instruction.
        "_consts",
        # Lazily-filled memo slots for repro.x86.semantics (left unset until
        # first use; the semantics helpers are pure per-instruction facts).
        "_regs_read",
        "_regs_written",
    )

    def __init__(
        self,
        mnemonic: str,
        operands: tuple[Operand, ...] = (),
        address: int = 0,
        data: bytes = b"",
        operand_size: int = 8,
    ):
        self.mnemonic = mnemonic
        self.operands = operands
        self.address = address
        self.data = data
        self.operand_size = operand_size
        #: Address of the byte following this instruction.
        end = address + len(data)
        self.end = end

        flags = _MNEMONIC_FLAGS.get(mnemonic, 0)
        target = None
        mem = None
        consts = None
        if operands:
            first = operands[0]
            if flags & _F_CALL_OR_JUMP:
                if first.__class__ is Imm:
                    target = first.value
                else:
                    flags |= _F_INDIRECT
            if flags & _F_BRANCH:
                if first.__class__ is Mem:
                    mem = first
                else:
                    for position in range(1, len(operands)):
                        operand = operands[position]
                        if operand.__class__ is Mem:
                            mem = operand
                            break
            else:
                # Same walk also harvests the address-sized immediates so no
                # analysis pass ever re-scans the operand tuple.
                for operand in operands:
                    cls = operand.__class__
                    if cls is Mem:
                        if mem is None:
                            mem = operand
                    elif cls is Imm and operand.size >= 4:
                        value = operand.value
                        if consts is None:
                            consts = value
                        elif consts.__class__ is tuple:
                            consts = consts + (value,)
                        else:
                            consts = (consts, value)
        self._flags = flags
        #: Absolute target of a direct call/jump, else ``None``.
        self.branch_target = target
        self._memory_operand = mem
        #: Absolute address referenced through a RIP-relative operand.
        if mem is not None and mem.rip_relative:
            rip = end + mem.disp
            self.rip_target = rip
            if consts is None:
                consts = rip
            elif consts.__class__ is tuple:
                consts = consts + (rip,)
            else:
                consts = (consts, rip)
        else:
            self.rip_target = None
        self._consts = consts

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Encoded length in bytes."""
        return len(self.data)

    @property
    def is_call(self) -> bool:
        return (self._flags & _F_CALL) != 0

    @property
    def is_ret(self) -> bool:
        return (self._flags & _F_RET) != 0

    @property
    def is_unconditional_jump(self) -> bool:
        return (self._flags & _F_UNCOND_JUMP) != 0

    @property
    def is_conditional_jump(self) -> bool:
        return (self._flags & _F_COND_JUMP) != 0

    @property
    def is_jump(self) -> bool:
        """Any jump (conditional or unconditional), excluding calls."""
        return (self._flags & _F_JUMP) != 0

    @property
    def is_branch(self) -> bool:
        """Any control transfer: jumps, calls and returns."""
        return (self._flags & _F_BRANCH) != 0

    @property
    def is_indirect_branch(self) -> bool:
        """A call/jump through a register or memory operand."""
        return (self._flags & _F_INDIRECT) != 0

    @property
    def is_nop(self) -> bool:
        return (self._flags & _F_NOP) != 0

    @property
    def is_padding(self) -> bool:
        """Whether compilers use this instruction as inter-function filler."""
        return (self._flags & _F_PADDING) != 0

    @property
    def memory_operand(self) -> Mem | None:
        """The memory operand of this instruction, if any."""
        return self._memory_operand

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Instruction:
            return NotImplemented
        return (
            self.mnemonic == other.mnemonic
            and self.operands == other.operands
            and self.address == other.address
            and self.data == other.data
            and self.operand_size == other.operand_size
        )

    def __hash__(self) -> int:
        return hash((self.mnemonic, self.operands, self.address, self.data, self.operand_size))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Instruction(mnemonic={self.mnemonic!r}, operands={self.operands!r}, "
            f"address={self.address!r}, data={self.data!r}, "
            f"operand_size={self.operand_size!r})"
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - display helper
        ops = ", ".join(str(op) for op in self.operands)
        text = f"{self.address:#x}: {self.mnemonic}"
        if ops:
            text += f" {ops}"
        return text
