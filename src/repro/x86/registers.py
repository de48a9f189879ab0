"""Register model for the x86-64 general purpose register file.

Only the 64-bit general purpose registers are modelled explicitly; 32-bit
forms are represented by the same :class:`Register` object with a different
operand size recorded on the instruction operand.  DWARF register numbers
follow the System-V x86-64 ABI mapping (``rax``=0 .. ``r15``=15, ``rip``=16),
which is the numbering used by call-frame information.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Register:
    """A general purpose register.

    Attributes:
        number: hardware encoding number (0-15), also used in ModRM/SIB.
        name: canonical 64-bit name (``"rax"``, ``"r8"`` ...).
        dwarf_number: the DWARF/CFI register number from the System-V ABI.
    """

    number: int
    name: str
    dwarf_number: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @property
    def needs_rex(self) -> bool:
        """Whether this register requires a REX extension bit (r8-r15)."""
        return self.number >= 8

    @property
    def low_bits(self) -> int:
        """The low three bits used in ModRM/SIB fields."""
        return self.number & 0b111

    def name32(self) -> str:
        """The 32-bit name of this register (``eax``, ``r8d``, ...)."""
        if self.number >= 8:
            return f"{self.name}d"
        return "e" + self.name[1:]


# System-V DWARF numbers: rax=0 rdx=1 rcx=2 rbx=3 rsi=4 rdi=5 rbp=6 rsp=7
# r8..r15 = 8..15, rip (return address column) = 16.
_DWARF_NUMBERS = {
    "rax": 0,
    "rdx": 1,
    "rcx": 2,
    "rbx": 3,
    "rsi": 4,
    "rdi": 5,
    "rbp": 6,
    "rsp": 7,
    "r8": 8,
    "r9": 9,
    "r10": 10,
    "r11": 11,
    "r12": 12,
    "r13": 13,
    "r14": 14,
    "r15": 15,
}

_NAMES_IN_ENCODING_ORDER = (
    "rax",
    "rcx",
    "rdx",
    "rbx",
    "rsp",
    "rbp",
    "rsi",
    "rdi",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)

GPR64: tuple[Register, ...] = tuple(
    Register(number=i, name=name, dwarf_number=_DWARF_NUMBERS[name])
    for i, name in enumerate(_NAMES_IN_ENCODING_ORDER)
)

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI, R8, R9, R10, R11, R12, R13, R14, R15 = GPR64

RIP_DWARF_NUMBER = 16

#: Integer-argument registers in System-V order.
ARGUMENT_REGISTERS: tuple[Register, ...] = (RDI, RSI, RDX, RCX, R8, R9)

#: Registers a callee must preserve under the System-V ABI.
CALLEE_SAVED_REGISTERS: tuple[Register, ...] = (RBX, RBP, R12, R13, R14, R15)

#: Caller-saved (scratch) registers, excluding the stack pointer.
CALLER_SAVED_REGISTERS: tuple[Register, ...] = (RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11)

_BY_NAME = {reg.name: reg for reg in GPR64}
_BY_NAME.update({reg.name32(): reg for reg in GPR64})
_BY_NUMBER = {reg.number: reg for reg in GPR64}


def register_by_name(name: str) -> Register:
    """Look up a register by its 64-bit or 32-bit name."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown register name: {name!r}") from exc


def register_by_number(number: int) -> Register:
    """Look up a register by its hardware encoding number (0-15)."""
    try:
        return _BY_NUMBER[number]
    except KeyError as exc:
        raise KeyError(f"register number out of range: {number}") from exc
