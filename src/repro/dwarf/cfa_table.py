"""Evaluation of CFI programs into per-PC unwind rows.

The FETCH tail-call detector (§V-B of the paper) deliberately reads stack
heights from call-frame information instead of running its own static
analysis.  This module materialises an FDE's CFI program into a row table
(one row per PC range) from which the stack height at any covered address can
be looked up, and implements the paper's "complete stack height information"
check: the CFA must always be expressed as ``rsp + offset`` with the canonical
initial offset of 8.

The CFI programs arrive decoded (the ``.eh_frame`` parser decodes each one
once).  Rows are still lazy: a :class:`CfaTable` evaluates its program into
rows only on the first query (or ``rows`` / ``uses_expression`` access).
Most functions in a binary are never unwound, so deferring row evaluation
keeps it off the cold detection path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.dwarf import constants as C
from repro.dwarf.structs import FdeRecord


@dataclass(slots=True)
class CfaRow:
    """Unwind rules valid for addresses in ``[start, end)``.

    ``cfa_register``/``cfa_offset`` are ``None`` when the CFA is defined by a
    DWARF expression (which the conservative consumers treat as unknown).
    """

    start: int
    end: int
    cfa_register: int | None
    cfa_offset: int | None
    register_offsets: dict[int, int] = field(default_factory=dict)

    @property
    def stack_height(self) -> int | None:
        """Bytes pushed since function entry, derived from the CFA rule.

        On x86-64 the CFA is the value of ``rsp`` just before the ``call``
        into this function, so when the CFA is ``rsp + offset`` the current
        stack height is ``offset - 8`` (the 8 accounts for the pushed return
        address).  Returns ``None`` for frame-pointer-based or
        expression-based CFA rules.
        """
        if self.cfa_register == C.DWARF_REG_RSP and self.cfa_offset is not None:
            return self.cfa_offset - 8
        return None


class CfaTable:
    """The evaluated row table of a single FDE.

    Row evaluation is deferred until the first access; the table rows are
    contiguous from ``fde.pc_begin`` to ``fde.pc_end``, so lookups run on a
    bisect over row start addresses.
    """

    __slots__ = ("fde", "_rows", "_starts", "_uses_expression", "_complete")

    def __init__(self, fde: FdeRecord):
        self.fde = fde
        self._rows: list[CfaRow] | None = None
        self._starts: list[int] | None = None
        self._uses_expression = False
        self._complete: bool | None = None

    def _materialize(self) -> list[CfaRow]:
        rows, uses_expression = _evaluate_fde(self.fde)
        self._rows = rows
        self._starts = [row.start for row in rows]
        self._uses_expression = uses_expression
        return rows

    @property
    def rows(self) -> list[CfaRow]:
        rows = self._rows
        return rows if rows is not None else self._materialize()

    @property
    def uses_expression(self) -> bool:
        if self._rows is None:
            self._materialize()
        return self._uses_expression

    def row_at(self, address: int) -> CfaRow | None:
        """The row covering ``address``, or ``None`` if outside the FDE."""
        if address >= self.fde.pc_end:
            # An ``advance_loc`` that overshoots ``pc_range`` leaves rows
            # ending (or starting) past the FDE; they cover nothing.
            return None
        rows = self._rows
        if rows is None:
            rows = self._materialize()
        position = bisect_right(self._starts, address) - 1
        if position < 0:
            return None
        row = rows[position]
        return row if address < row.end else None

    def stack_height_at(self, address: int) -> int | None:
        """Stack height at ``address`` (bytes pushed since entry), if known."""
        row = self.row_at(address)
        if row is None:
            return None
        return row.stack_height

    @property
    def has_complete_stack_height(self) -> bool:
        """The paper's conservativeness check (§V-B).

        True when (i) every row's CFA is ``rsp``-relative with a known offset
        and (ii) the first row starts from the canonical ``rsp + 8``.

        Answered by a walk over the decoded CFI program that tracks only the
        CFA rule, so the gate never builds rows (with their register-save
        dict copies) for FDEs that are never unwound.  The walk reproduces
        the row boundaries of :func:`_evaluate_fde`, so the verdict equals
        the row-based definition: rows exist, no expression is used,
        ``rows[0]`` is ``rsp + 8`` and every row is ``rsp``-relative with a
        known offset (pinned by ``tests/test_dwarf_cfa_table.py``).
        """
        complete = self._complete
        if complete is None:
            complete = self._complete = _scan_complete_stack_height(self.fde)
        return complete

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "unevaluated" if self._rows is None else f"{len(self._rows)} rows"
        return f"CfaTable(fde={self.fde!r}, {state})"


@dataclass
class _State:
    cfa_register: int | None = None
    cfa_offset: int | None = None
    register_offsets: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(self.cfa_register, self.cfa_offset, dict(self.register_offsets))


def _evaluate_fde(fde: FdeRecord) -> tuple[list[CfaRow], bool]:
    """Evaluate a FDE's CFI program into (rows, uses_expression)."""
    state = _State()
    uses_expression = False

    # CIE initial instructions establish the entry row.
    for insn in fde.cie.initial_instructions:
        uses_expression |= _apply(insn, state, [])

    rows: list[CfaRow] = []
    saved_states: list[_State] = []
    initial_state = state.copy()
    location = fde.pc_begin

    for insn in fde.instructions:
        if insn.name == "advance_loc":
            delta = insn.operands[0]
            rows.append(_snapshot(state, location, location + delta))
            location += delta
        elif insn.name == "restore":
            register = insn.operands[0]
            if register in initial_state.register_offsets:
                state.register_offsets[register] = initial_state.register_offsets[register]
            else:
                state.register_offsets.pop(register, None)
        elif insn.name == "restore_state":
            if saved_states:
                restored = saved_states.pop()
                state.cfa_register = restored.cfa_register
                state.cfa_offset = restored.cfa_offset
                state.register_offsets = dict(restored.register_offsets)
        elif insn.name == "remember_state":
            saved_states.append(state.copy())
        else:
            uses_expression |= _apply(insn, state, saved_states)

    rows.append(_snapshot(state, location, fde.pc_end))
    # Collapse empty ranges that can appear when advance_loc reaches pc_end.
    rows = [row for row in rows if row.end > row.start]
    return rows, uses_expression


def _scan_complete_stack_height(fde: FdeRecord) -> bool:
    """Row-free evaluation of :attr:`CfaTable.has_complete_stack_height`.

    Walks the decoded CIE prologue and FDE program tracking only the CFA
    rule (register, offset), snapshotting it at the same ``advance_loc``
    boundaries where :func:`_evaluate_fde` emits rows.  Instructions that
    only touch register save slots (``offset``/``restore``/``undefined``/
    ``same_value``) cannot change the verdict and are skipped; any
    expression opcode makes the full evaluation's ``uses_expression`` flag
    permanent, so it short-circuits to an incomplete verdict here.
    """
    cfa_register: int | None = None
    cfa_offset: int | None = None
    for insn in fde.cie.initial_instructions:
        name = insn.name
        if name == "def_cfa":
            cfa_register, cfa_offset = insn.operands
        elif name == "def_cfa_register":
            cfa_register = insn.operands[0]
        elif name == "def_cfa_offset":
            cfa_offset = insn.operands[0]
        elif name in ("def_cfa_expression", "expression"):
            return False

    rows: list[tuple[int, int, int | None, int | None]] = []
    saved: list[tuple[int | None, int | None]] = []
    location = fde.pc_begin
    for insn in fde.instructions:
        name = insn.name
        if name == "advance_loc":
            delta = insn.operands[0]
            rows.append((location, location + delta, cfa_register, cfa_offset))
            location += delta
        elif name == "def_cfa":
            cfa_register, cfa_offset = insn.operands
        elif name == "def_cfa_register":
            cfa_register = insn.operands[0]
        elif name == "def_cfa_offset":
            cfa_offset = insn.operands[0]
        elif name in ("def_cfa_expression", "expression"):
            return False
        elif name == "remember_state":
            saved.append((cfa_register, cfa_offset))
        elif name == "restore_state":
            if saved:
                cfa_register, cfa_offset = saved.pop()
    rows.append((location, fde.pc_end, cfa_register, cfa_offset))

    rows = [row for row in rows if row[1] > row[0]]
    if not rows:
        return False
    if rows[0][2] != C.DWARF_REG_RSP or rows[0][3] != 8:
        return False
    return all(
        register == C.DWARF_REG_RSP and offset is not None
        for _start, _end, register, offset in rows
    )


def _apply(insn, state: _State, saved_states: list[_State]) -> bool:
    """Apply a non-location CFI instruction to ``state``.

    Returns True when the instruction makes the CFA expression-based.
    """
    name = insn.name
    if name == "def_cfa":
        state.cfa_register, state.cfa_offset = insn.operands
    elif name == "def_cfa_register":
        state.cfa_register = insn.operands[0]
    elif name == "def_cfa_offset":
        state.cfa_offset = insn.operands[0]
    elif name == "def_cfa_expression":
        state.cfa_register = None
        state.cfa_offset = None
        return True
    elif name == "offset":
        register, cfa_offset = insn.operands
        state.register_offsets[register] = cfa_offset
    elif name == "expression":
        register = insn.operands[0]
        state.register_offsets.pop(register, None)
        return True
    elif name in ("undefined", "same_value"):
        state.register_offsets.pop(insn.operands[0], None)
    elif name in ("nop", "gnu_args_size", "register"):
        pass
    return False


def _snapshot(state: _State, start: int, end: int) -> CfaRow:
    return CfaRow(
        start=start,
        end=end,
        cfa_register=state.cfa_register,
        cfa_offset=state.cfa_offset,
        register_offsets=dict(state.register_offsets),
    )
