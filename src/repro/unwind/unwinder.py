"""``.eh_frame``-driven stack unwinding (the paper's T1/T2/T3 tasks).

Given a machine state (typically the state at which the
:class:`~repro.unwind.emulator.Emulator` trapped), the unwinder walks the
call stack the way ``_Unwind_RaiseException`` does:

* **T1** — find the FDE covering the current PC,
* **T2** — evaluate the FDE's CFI rows to compute the CFA and read the return
  address at ``CFA - 8``,
* **T3** — restore the callee-saved registers recorded by ``DW_CFA_offset``
  rules, then pop the frame and repeat with the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dwarf import constants as DC
from repro.dwarf.cfa_table import CfaTable
from repro.elf.image import BinaryImage
from repro.unwind.emulator import MachineState
from repro.x86.registers import RSP, register_by_dwarf_number


class UnwindError(Exception):
    """Raised when the stack cannot be unwound from the given state."""


@dataclass
class UnwindFrame:
    """One frame discovered while unwinding."""

    #: program counter inside this frame
    pc: int
    #: start of the function (the FDE's PC Begin) containing ``pc``
    function_start: int
    #: canonical frame address for this frame
    cfa: int
    #: return address stored at ``CFA - 8`` (None for the outermost frame)
    return_address: int | None


class StackUnwinder:
    """Walks a call stack using only exception-handling information."""

    def __init__(self, image: BinaryImage):
        self.image = image
        self._tables = {fde.pc_begin: CfaTable(fde) for fde in image.fdes}

    # ------------------------------------------------------------------
    def unwind(self, state: MachineState, *, max_frames: int = 128) -> list[UnwindFrame]:
        """Unwind from ``state`` until no covering FDE is found."""
        frames: list[UnwindFrame] = []
        registers = dict(state.registers)
        pc = state.rip

        for _ in range(max_frames):
            fde = self.image.fde_covering(pc)
            if fde is None:
                break
            table = self._tables[fde.pc_begin]
            row = table.row_at(pc)
            if row is None:
                raise UnwindError(f"no CFI row covers pc {pc:#x}")

            cfa = self._compute_cfa(row, registers, pc)
            return_address = state.read_memory(cfa - 8, 8)
            frames.append(
                UnwindFrame(
                    pc=pc,
                    function_start=fde.pc_begin,
                    cfa=cfa,
                    return_address=return_address or None,
                )
            )

            # T3: restore callee-saved registers from their recorded slots.
            for dwarf_number, offset in row.register_offsets.items():
                if dwarf_number == DC.DWARF_REG_RA:
                    continue
                try:
                    register = register_by_dwarf_number(dwarf_number)
                except KeyError:
                    continue
                registers[register] = state.read_memory(cfa + offset, 8)

            if not return_address:
                break
            # Pop the frame: the caller's stack pointer is the CFA.
            registers[RSP] = cfa
            pc = return_address

        return frames

    # ------------------------------------------------------------------
    def backtrace(self, state: MachineState) -> list[int]:
        """Function start addresses of every frame on the call stack."""
        return [frame.function_start for frame in self.unwind(state)]

    @staticmethod
    def _compute_cfa(row, registers, pc: int) -> int:
        if row.cfa_register is None or row.cfa_offset is None:
            raise UnwindError(f"expression-based CFA at pc {pc:#x} is not supported")
        try:
            register = register_by_dwarf_number(row.cfa_register)
        except KeyError as exc:
            raise UnwindError(f"unsupported CFA register {row.cfa_register}") from exc
        base = registers.get(register, 0)
        return base + row.cfa_offset
