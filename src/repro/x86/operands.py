"""Operand model for x86-64 instructions.

Three operand kinds exist in the subset we model: registers (the
:class:`~repro.x86.registers.Register` objects themselves), immediates
(:class:`Imm`) and memory references (:class:`Mem`).  Memory references cover
the general ``[base + index*scale + disp]`` addressing form plus
RIP-relative addressing, which is enough for every pattern compilers emit for
data access, jump tables and PLT-style indirect transfers.

Both classes are ``__slots__`` value objects: the decoder allocates one per
operand on the cold path, so a dict-free layout and a hand-written
constructor are worth the few lines of boilerplate they cost over a frozen
dataclass.
"""

from __future__ import annotations

from repro.x86.registers import Register


class Imm:
    """An immediate operand.

    Attributes:
        value: the (signed) immediate value.
        size: encoded width in bytes (1, 4 or 8).
    """

    __slots__ = ("value", "size")

    def __init__(self, value: int, size: int = 4):
        self.value = value
        self.size = size

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Imm:
            return NotImplemented
        return self.value == other.value and self.size == other.size

    def __hash__(self) -> int:
        return hash((Imm, self.value, self.size))

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Imm(value={self.value!r}, size={self.size!r})"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return hex(self.value)


class Mem:
    """A memory operand: ``[base + index*scale + disp]`` or ``[rip + disp]``.

    Attributes:
        base: base register, or ``None`` for absolute / index-only forms.
        index: index register, or ``None``.
        scale: index scale factor (1, 2, 4 or 8).
        disp: signed displacement.
        rip_relative: whether the operand is RIP-relative (``[rip + disp]``).
        size: access size in bytes (used for display only).
    """

    __slots__ = ("base", "index", "scale", "disp", "rip_relative", "size")

    def __init__(
        self,
        base: Register | None = None,
        index: Register | None = None,
        scale: int = 1,
        disp: int = 0,
        rip_relative: bool = False,
        size: int = 8,
    ):
        if scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid SIB scale: {scale}")
        if rip_relative and (base is not None or index is not None):
            raise ValueError("RIP-relative operands cannot have base/index registers")
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp
        self.rip_relative = rip_relative
        self.size = size

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Mem:
            return NotImplemented
        return (
            self.base == other.base
            and self.index == other.index
            and self.scale == other.scale
            and self.disp == other.disp
            and self.rip_relative == other.rip_relative
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((Mem, self.base, self.index, self.scale, self.disp, self.rip_relative, self.size))

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"Mem(base={self.base!r}, index={self.index!r}, scale={self.scale!r}, "
            f"disp={self.disp!r}, rip_relative={self.rip_relative!r}, size={self.size!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - display helper
        parts: list[str] = []
        if self.rip_relative:
            parts.append("rip")
        if self.base is not None:
            parts.append(self.base.name)
        if self.index is not None:
            parts.append(f"{self.index.name}*{self.scale}")
        if self.disp or not parts:
            parts.append(hex(self.disp))
        return "[" + "+".join(parts) + "]"
