"""``.eh_frame`` section parser.

Parses CIE and FDE records, resolving PC-relative pointer encodings against
the section load address.  Each entry's CFI program is decoded once, here,
into :class:`~repro.dwarf.cfi.CfiInstruction` tuples, so a malformed program
fails as a parse error and every later consumer (row evaluation and the
stack-height completeness check) reads the decoded list.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.dwarf import constants as C
from repro.dwarf.cfi import decode_cfi_program
from repro.dwarf.leb128 import decode_sleb128, decode_uleb128
from repro.dwarf.structs import CieRecord, FdeRecord


class EhFrameParseError(ValueError):
    """Raised when the ``.eh_frame`` section is malformed."""


#: ``address -> pointer value`` memory accessor used to resolve
#: ``DW_EH_PE_indirect`` pointers; ``None`` means the address is unmapped.
Dereferencer = Callable[[int], "int | None"]


def _read_encoded(
    data: bytes,
    pos: int,
    encoding: int,
    field_address: int,
    deref: Dereferencer | None = None,
) -> tuple[int, int]:
    """Read one encoded pointer, returning ``(value, new_pos)``."""
    if encoding == C.DW_EH_PE_omit:
        return 0, pos
    fmt = encoding & 0x0F
    if fmt == C.DW_EH_PE_uleb128:
        value, pos = decode_uleb128(data, pos)
    elif fmt == C.DW_EH_PE_sleb128:
        value, pos = decode_sleb128(data, pos)
    elif fmt == C.DW_EH_PE_udata2:
        value = struct.unpack_from("<H", data, pos)[0]
        pos += 2
    elif fmt == C.DW_EH_PE_sdata2:
        value = struct.unpack_from("<h", data, pos)[0]
        pos += 2
    elif fmt == C.DW_EH_PE_udata4:
        value = struct.unpack_from("<I", data, pos)[0]
        pos += 4
    elif fmt == C.DW_EH_PE_sdata4:
        value = struct.unpack_from("<i", data, pos)[0]
        pos += 4
    elif fmt in (C.DW_EH_PE_udata8, C.DW_EH_PE_absptr):
        value = struct.unpack_from("<Q", data, pos)[0]
        pos += 8
    elif fmt == C.DW_EH_PE_sdata8:
        value = struct.unpack_from("<q", data, pos)[0]
        pos += 8
    else:
        raise EhFrameParseError(f"unsupported pointer format {fmt:#x}")

    application = encoding & 0x70
    if application == C.DW_EH_PE_pcrel:
        value += field_address
    elif application not in (C.DW_EH_PE_absptr,):
        raise EhFrameParseError(f"unsupported pointer application {application:#x}")

    if encoding & C.DW_EH_PE_indirect:
        # The computed value is the address of a slot holding the real
        # pointer (GCC uses this for personality routines in PIC code).
        # Without a memory accessor the slot cannot be dereferenced; treating
        # the slot address as the pointer would be silently wrong.
        if deref is None:
            raise EhFrameParseError(
                f"indirect pointer at {field_address:#x} requires memory access"
            )
        resolved = deref(value)
        if resolved is None:
            raise EhFrameParseError(
                f"indirect pointer slot {value:#x} is unmapped"
            )
        value = resolved
    return value, pos


def parse_eh_frame(
    data: bytes, section_address: int, *, deref: Dereferencer | None = None
) -> tuple[list[CieRecord], list[FdeRecord]]:
    """Parse an ``.eh_frame`` section.

    Args:
        data: raw section contents.
        section_address: virtual address the section is loaded at (needed to
            resolve PC-relative pointers).
        deref: optional memory accessor resolving ``DW_EH_PE_indirect``
            pointer slots (``address -> value``); without one, indirect
            encodings raise :class:`EhFrameParseError` instead of silently
            decoding to the slot address.

    Returns:
        ``(cies, fdes)`` in file order.
    """
    cies: dict[int, CieRecord] = {}
    fdes: list[FdeRecord] = []
    pos = 0

    while pos + 4 <= len(data):
        entry_offset = pos
        try:
            (length,) = struct.unpack_from("<I", data, pos)
            pos += 4
            if length == 0:
                break
            if length == 0xFFFFFFFF:
                raise EhFrameParseError("64-bit DWARF entries are not supported")
            entry_end = pos + length
            if entry_end > len(data):
                raise EhFrameParseError("entry length exceeds section size")

            (cie_id,) = struct.unpack_from("<I", data, pos)
            id_field_offset = pos
            pos += 4

            if cie_id == 0:
                cie = _parse_cie(data, pos, entry_end, entry_offset, section_address, deref)
                cies[entry_offset] = cie
            else:
                cie_offset = id_field_offset - cie_id
                cie = cies.get(cie_offset)
                if cie is None:
                    raise EhFrameParseError(
                        f"FDE at {entry_offset:#x} references unknown CIE at {cie_offset:#x}"
                    )
                fdes.append(
                    _parse_fde(data, pos, entry_end, entry_offset, cie, section_address, deref)
                )
            pos = entry_end
        except EhFrameParseError:
            raise
        # Corrupt sections must fail as *parse errors*, never as the raw
        # struct/index/decode faults malformed lengths and truncated
        # pointers bottom out in.  EhFrameParseError subclasses ValueError,
        # hence the re-raise clause above this one.
        except (struct.error, ValueError, IndexError, KeyError, OverflowError) as error:
            raise EhFrameParseError(
                f"malformed .eh_frame entry at {entry_offset:#x}: "
                f"{type(error).__name__}: {error}"
            ) from error

    return list(cies.values()), fdes


def _parse_cie(
    data: bytes,
    pos: int,
    entry_end: int,
    entry_offset: int,
    section_address: int = 0,
    deref: Dereferencer | None = None,
) -> CieRecord:
    version = data[pos]
    pos += 1
    if version not in (1, 3, 4):
        raise EhFrameParseError(f"unsupported CIE version {version}")

    end = data.index(b"\x00", pos)
    augmentation = data[pos:end].decode("ascii")
    pos = end + 1

    if version == 4:
        pos += 2  # address size + segment selector size

    code_alignment, pos = decode_uleb128(data, pos)
    data_alignment, pos = decode_sleb128(data, pos)
    if version == 1:
        return_address_register = data[pos]
        pos += 1
    else:
        return_address_register, pos = decode_uleb128(data, pos)

    fde_pointer_encoding = C.DW_EH_PE_absptr
    if augmentation.startswith("z"):
        aug_length, pos = decode_uleb128(data, pos)
        aug_end = pos + aug_length
        for char in augmentation[1:]:
            if char == "R":
                fde_pointer_encoding = data[pos]
                pos += 1
            elif char == "L":
                pos += 1  # LSDA encoding byte
            elif char == "P":
                personality_encoding = data[pos]
                pos += 1
                _, pos = _read_encoded(
                    data, pos, personality_encoding, section_address + pos, deref
                )
            elif char == "S":
                pass  # signal frame marker, no data
            else:
                break
        pos = aug_end

    instructions = decode_cfi_program(
        data[pos:entry_end],
        code_alignment=code_alignment,
        data_alignment=data_alignment,
    )
    return CieRecord(
        offset=entry_offset,
        version=version,
        augmentation=augmentation,
        code_alignment=code_alignment,
        data_alignment=data_alignment,
        return_address_register=return_address_register,
        fde_pointer_encoding=fde_pointer_encoding,
        initial_instructions=instructions,
    )


def _parse_fde(
    data: bytes,
    pos: int,
    entry_end: int,
    entry_offset: int,
    cie: CieRecord,
    section_address: int,
    deref: Dereferencer | None = None,
) -> FdeRecord:
    encoding = cie.fde_pointer_encoding
    pc_begin, pos = _read_encoded(data, pos, encoding, section_address + pos, deref)
    # The PC range is a length, not a pointer: it is read with the CIE
    # encoding's format but always as an unsigned quantity and with no
    # application (a signed read would make ranges >= 2**31 negative).
    pc_range, pos = _read_encoded(
        data, pos, C.unsigned_pointer_format(encoding), section_address + pos
    )
    if pc_begin < 0:
        # A signed pointer read of corrupt data can go negative; no real
        # function lives at a negative address.
        raise EhFrameParseError(f"FDE at {entry_offset:#x} has a negative PC begin")
    if pc_range < 0:
        raise EhFrameParseError(f"FDE at {entry_offset:#x} has a negative PC range")

    lsda = None
    if cie.augmentation.startswith("z"):
        aug_length, pos = decode_uleb128(data, pos)
        pos += aug_length

    instructions = decode_cfi_program(
        data[pos:entry_end],
        code_alignment=cie.code_alignment,
        data_alignment=cie.data_alignment,
    )
    return FdeRecord(
        offset=entry_offset,
        cie=cie,
        pc_begin=pc_begin,
        pc_range=pc_range,
        instructions=instructions,
        lsda=lsda,
    )
