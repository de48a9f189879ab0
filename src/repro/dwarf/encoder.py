"""``.eh_frame`` and ``.eh_frame_hdr`` section encoders.

The builder mirrors how GCC and Clang emit call-frame information: one CIE
(augmentation ``"zR"``, code alignment 1, data alignment -8, return-address
column 16, PC-relative sdata4 pointers) shared by many FDEs, each FDE covering
one contiguous code range, the whole section terminated by a zero length
entry.  The ``.eh_frame_hdr`` builder emits the binary-search table a
runtime unwinder uses to look up FDEs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.dwarf import constants as C
from repro.dwarf.cfi import CfiInstruction, def_cfa, encode_cfi_program, offset
from repro.dwarf.leb128 import encode_uleb128


def default_cie_instructions() -> list[CfiInstruction]:
    """The initial CFI program GCC emits: ``CFA = rsp + 8``, RA at ``CFA - 8``."""
    return [def_cfa(C.DWARF_REG_RSP, 8), offset(C.DWARF_REG_RA, -8)]




@dataclass
class FdeSpec:
    """Description of one FDE to be emitted.

    ``pc_begin`` is the absolute virtual address of the covered range and
    ``instructions`` the resolved CFI program (see :mod:`repro.dwarf.cfi`).
    """

    pc_begin: int
    pc_range: int
    instructions: list[CfiInstruction] = field(default_factory=list)


@dataclass
class _CieSpec:
    code_alignment: int
    data_alignment: int
    return_address_register: int
    fde_pointer_encoding: int
    initial_instructions: list[CfiInstruction]
    fdes: list[FdeSpec] = field(default_factory=list)


class EhFrameBuilder:
    """Accumulates CIEs/FDEs and renders the ``.eh_frame`` section bytes."""

    def __init__(self) -> None:
        self._cies: list[_CieSpec] = []

    def add_cie(
        self,
        *,
        code_alignment: int = 1,
        data_alignment: int = -8,
        return_address_register: int = C.DWARF_REG_RA,
        fde_pointer_encoding: int = C.DW_EH_PE_pcrel | C.DW_EH_PE_sdata4,
        initial_instructions: list[CfiInstruction] | None = None,
    ) -> int:
        """Register a CIE and return its handle (index)."""
        instructions = (
            list(initial_instructions)
            if initial_instructions is not None
            else default_cie_instructions()
        )
        self._cies.append(
            _CieSpec(
                code_alignment=code_alignment,
                data_alignment=data_alignment,
                return_address_register=return_address_register,
                fde_pointer_encoding=fde_pointer_encoding,
                initial_instructions=instructions,
            )
        )
        return len(self._cies) - 1

    def add_fde(
        self,
        cie_handle: int,
        pc_begin: int,
        pc_range: int,
        instructions: list[CfiInstruction] | None = None,
    ) -> None:
        """Register an FDE under the given CIE."""
        self._cies[cie_handle].fdes.append(
            FdeSpec(pc_begin=pc_begin, pc_range=pc_range, instructions=list(instructions or []))
        )

    @property
    def fde_count(self) -> int:
        return sum(len(cie.fdes) for cie in self._cies)

    # ------------------------------------------------------------------
    def build(self, section_address: int) -> bytes:
        """Render the section, assuming it will be loaded at ``section_address``."""
        out = bytearray()
        for cie in self._cies:
            cie_offset = len(out)
            out += self._encode_cie(cie)
            for fde in cie.fdes:
                out += self._encode_fde(cie, cie_offset, fde, section_address, len(out))
        # Terminator: a zero-length entry.
        out += struct.pack("<I", 0)
        return bytes(out)

    def build_header(self, hdr_address: int, eh_frame_address: int, eh_frame: bytes) -> bytes:
        """Render the ``.eh_frame_hdr`` section with its search table."""
        from repro.dwarf.parser import parse_eh_frame

        _, fdes = parse_eh_frame(eh_frame, eh_frame_address)
        entries = sorted((fde.pc_begin, eh_frame_address + fde.offset) for fde in fdes)

        out = bytearray()
        out.append(1)  # version
        out.append(C.DW_EH_PE_pcrel | C.DW_EH_PE_sdata4)  # eh_frame_ptr encoding
        out.append(C.DW_EH_PE_udata4)  # fde_count encoding
        out.append(C.DW_EH_PE_datarel | C.DW_EH_PE_sdata4)  # table encoding
        out += struct.pack("<i", eh_frame_address - (hdr_address + len(out)))
        out += struct.pack("<I", len(entries))
        for pc_begin, fde_address in entries:
            out += struct.pack("<i", pc_begin - hdr_address)
            out += struct.pack("<i", fde_address - hdr_address)
        return bytes(out)

    # ------------------------------------------------------------------
    def _encode_cie(self, cie: _CieSpec) -> bytes:
        body = bytearray()
        body += struct.pack("<I", 0)  # CIE id
        body.append(1)  # version
        body += b"zR\x00"  # augmentation
        body += encode_uleb128(cie.code_alignment)
        body += self._sleb(cie.data_alignment)
        body += encode_uleb128(cie.return_address_register)
        body += encode_uleb128(1)  # augmentation data length
        body.append(cie.fde_pointer_encoding)
        body += encode_cfi_program(
            cie.initial_instructions,
            code_alignment=cie.code_alignment,
            data_alignment=cie.data_alignment,
        )
        return self._finish_entry(body)

    def _encode_fde(
        self,
        cie: _CieSpec,
        cie_offset: int,
        fde: FdeSpec,
        section_address: int,
        entry_offset: int,
    ) -> bytes:
        body = bytearray()
        # CIE pointer: distance from this field back to the CIE start.
        cie_pointer_field_offset = entry_offset + 4
        body += struct.pack("<I", cie_pointer_field_offset - cie_offset)

        pc_begin_field_offset = entry_offset + 4 + len(body)
        encoding = cie.fde_pointer_encoding
        if encoding & 0x70 == C.DW_EH_PE_pcrel:
            pc_value = fde.pc_begin - (section_address + pc_begin_field_offset)
        else:
            pc_value = fde.pc_begin
        body += self._encode_with_format(pc_value, encoding)
        # The PC range is an unsigned length; encode it with the unsigned
        # counterpart of the CIE format so ranges >= 2**31 stay representable
        # (byte-identical to the signed encoding for smaller ranges).
        body += self._encode_with_format(fde.pc_range, C.unsigned_pointer_format(encoding))
        body += encode_uleb128(0)  # augmentation data length
        body += encode_cfi_program(
            fde.instructions,
            code_alignment=cie.code_alignment,
            data_alignment=cie.data_alignment,
        )
        return self._finish_entry(body)

    @staticmethod
    def _encode_with_format(value: int, encoding: int) -> bytes:
        fmt = encoding & 0x0F
        if fmt == C.DW_EH_PE_sdata4:
            return struct.pack("<i", value)
        if fmt == C.DW_EH_PE_udata4:
            return struct.pack("<I", value & 0xFFFFFFFF)
        if fmt == C.DW_EH_PE_sdata8:
            return struct.pack("<q", value)
        if fmt == C.DW_EH_PE_udata8 or fmt == C.DW_EH_PE_absptr:
            return struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF)
        raise ValueError(f"unsupported pointer encoding {encoding:#04x}")

    @staticmethod
    def _sleb(value: int) -> bytes:
        from repro.dwarf.leb128 import encode_sleb128

        return encode_sleb128(value)

    @staticmethod
    def _finish_entry(body: bytearray) -> bytes:
        """Pad the entry to 8-byte alignment and prepend the length field."""
        while (len(body) + 4) % 8:
            body.append(C.DW_CFA_nop)
        return struct.pack("<I", len(body)) + bytes(body)
