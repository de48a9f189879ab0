"""Tests for the .eh_frame encoder and parser."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dwarf import cfi
from repro.dwarf import constants as C
from repro.dwarf.encoder import EhFrameBuilder, default_cie_instructions
from repro.dwarf.parser import EhFrameParseError, parse_eh_frame

SECTION_ADDRESS = 0x500000


def build_simple(fdes):
    builder = EhFrameBuilder()
    handle = builder.add_cie()
    for pc_begin, pc_range, instructions in fdes:
        builder.add_fde(handle, pc_begin, pc_range, instructions)
    return builder, builder.build(SECTION_ADDRESS)


def test_empty_section_has_only_terminator():
    builder = EhFrameBuilder()
    builder.add_cie()
    data = builder.build(SECTION_ADDRESS)
    cies, fdes = parse_eh_frame(data, SECTION_ADDRESS)
    assert len(cies) == 1 and fdes == []


def test_cie_fields_roundtrip():
    _, data = build_simple([(0x401000, 0x20, [])])
    cies, _ = parse_eh_frame(data, SECTION_ADDRESS)
    cie = cies[0]
    assert cie.version == 1
    assert cie.augmentation == "zR"
    assert cie.code_alignment == 1
    assert cie.data_alignment == -8
    assert cie.return_address_register == C.DWARF_REG_RA
    assert cie.fde_pointer_encoding == (C.DW_EH_PE_pcrel | C.DW_EH_PE_sdata4)
    meaningful = [insn for insn in cie.initial_instructions if insn.name != "nop"]
    assert meaningful == default_cie_instructions()


def test_fde_pc_begin_and_range_roundtrip():
    ranges = [(0x401000, 0x56, []), (0x4012f0, 0x10, []), (0x7fff0000, 0x1234, [])]
    _, data = build_simple(ranges)
    _, fdes = parse_eh_frame(data, SECTION_ADDRESS)
    assert [(f.pc_begin, f.pc_range) for f in fdes] == [(a, r) for a, r, _ in ranges]
    assert fdes[0].pc_end == 0x401056
    assert fdes[0].covers(0x401000) and fdes[0].covers(0x401055)
    assert not fdes[0].covers(0x401056)


def test_fde_instructions_roundtrip():
    program = [
        cfi.advance_loc(1),
        cfi.def_cfa_offset(16),
        cfi.offset(C.DWARF_REG_RBP, -16),
        cfi.advance_loc(4),
        cfi.def_cfa_register(C.DWARF_REG_RBP),
    ]
    _, data = build_simple([(0x401000, 0x40, program)])
    _, fdes = parse_eh_frame(data, SECTION_ADDRESS)
    parsed = [insn for insn in fdes[0].instructions if insn.name != "nop"]
    assert parsed == program


def test_multiple_cies_are_supported():
    builder = EhFrameBuilder()
    first = builder.add_cie()
    second = builder.add_cie(data_alignment=-4)
    builder.add_fde(first, 0x1000, 0x10, [])
    builder.add_fde(second, 0x2000, 0x10, [])
    data = builder.build(SECTION_ADDRESS)
    cies, fdes = parse_eh_frame(data, SECTION_ADDRESS)
    assert len(cies) == 2 and len(fdes) == 2
    assert fdes[0].cie is not fdes[1].cie
    assert fdes[1].cie.data_alignment == -4


def test_fde_count_property():
    builder, _ = build_simple([(0x1000, 1, []), (0x2000, 2, []), (0x3000, 3, [])])
    assert builder.fde_count == 3


def test_entries_are_eight_byte_aligned():
    _, data = build_simple([(0x401000, 0x56, [cfi.advance_loc(3), cfi.def_cfa_offset(16)])])
    # Every entry length field keeps the stream 4-byte aligned and the
    # contents padded to 8; total size must be a multiple of 4.
    assert len(data) % 4 == 0


def test_parser_rejects_fde_with_unknown_cie():
    # An FDE whose CIE pointer points nowhere sensible must be rejected.
    import struct

    bogus = struct.pack("<II", 8, 0xFFFF) + b"\x00" * 4 + struct.pack("<I", 0)
    with pytest.raises(EhFrameParseError):
        parse_eh_frame(bogus, SECTION_ADDRESS)


def test_parser_rejects_truncated_entry():
    import struct

    truncated = struct.pack("<I", 100) + b"\x00" * 8
    with pytest.raises(EhFrameParseError):
        parse_eh_frame(truncated, SECTION_ADDRESS)


def test_eh_frame_hdr_contains_sorted_search_table():
    builder, data = build_simple(
        [(0x403000, 0x10, []), (0x401000, 0x10, []), (0x402000, 0x10, [])]
    )
    hdr_address = 0x4f0000
    header = builder.build_header(hdr_address, SECTION_ADDRESS, data)
    assert header[0] == 1  # version
    count = int.from_bytes(header[8:12], "little")
    assert count == 3
    import struct

    entries = []
    for index in range(count):
        offset = 12 + index * 8
        pc_delta, fde_delta = struct.unpack_from("<ii", header, offset)
        entries.append((hdr_address + pc_delta, hdr_address + fde_delta))
    assert [pc for pc, _ in entries] == [0x401000, 0x402000, 0x403000]
    # Each table entry must point at an FDE within the section.
    for _, fde_address in entries:
        assert SECTION_ADDRESS <= fde_address < SECTION_ADDRESS + len(data)


@given(
    fdes=st.lists(
        st.tuples(
            st.integers(min_value=0x1000, max_value=0x7FFFFFFF),
            st.integers(min_value=1, max_value=0xFFFFF),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50)
def test_arbitrary_fde_sets_roundtrip(fdes):
    builder = EhFrameBuilder()
    handle = builder.add_cie()
    for pc_begin, pc_range in fdes:
        builder.add_fde(handle, pc_begin, pc_range, [cfi.advance_loc(1), cfi.def_cfa_offset(16)])
    data = builder.build(SECTION_ADDRESS)
    _, parsed = parse_eh_frame(data, SECTION_ADDRESS)
    assert [(f.pc_begin, f.pc_range) for f in parsed] == fdes


# ----------------------------------------------------------------------
# Pointer-encoding regressions: indirect application, signed range formats
# ----------------------------------------------------------------------

def build_with_encoding(encoding, fdes):
    builder = EhFrameBuilder()
    handle = builder.add_cie(fde_pointer_encoding=encoding)
    for pc_begin, pc_range in fdes:
        builder.add_fde(handle, pc_begin, pc_range, [])
    return builder.build(SECTION_ADDRESS)


def test_indirect_pointer_encoding_is_rejected_without_memory():
    # DW_EH_PE_indirect (0x80) used to be masked away by `& 0x70`, silently
    # decoding the slot *address* as the pointer.  Without a way to read the
    # slot the parser must refuse, not guess.
    encoding = C.DW_EH_PE_indirect | C.DW_EH_PE_absptr
    data = build_with_encoding(encoding, [(0x600000, 0x40)])
    with pytest.raises(EhFrameParseError, match="indirect"):
        parse_eh_frame(data, SECTION_ADDRESS)


def test_indirect_pointer_encoding_dereferences_with_memory():
    slot_address = 0x600000
    encoding = C.DW_EH_PE_indirect | C.DW_EH_PE_absptr
    data = build_with_encoding(encoding, [(slot_address, 0x40)])

    def deref(address):
        return 0x401000 if address == slot_address else None

    _, fdes = parse_eh_frame(data, SECTION_ADDRESS, deref=deref)
    assert [(f.pc_begin, f.pc_range) for f in fdes] == [(0x401000, 0x40)]


def test_indirect_pointer_to_unmapped_slot_is_rejected():
    encoding = C.DW_EH_PE_indirect | C.DW_EH_PE_absptr
    data = build_with_encoding(encoding, [(0x600000, 0x40)])
    with pytest.raises(EhFrameParseError, match="unmapped"):
        parse_eh_frame(data, SECTION_ADDRESS, deref=lambda address: None)


def test_image_resolves_indirect_personality_through_its_sections():
    # End to end: a BinaryImage hands the parser a dereferencer over its own
    # mapped sections.
    from repro.elf import constants as EC
    from repro.elf.image import BinaryImage
    from repro.elf.structs import ElfFile, Section

    slot_address = 0x600000
    encoding = C.DW_EH_PE_indirect | C.DW_EH_PE_absptr
    data = build_with_encoding(encoding, [(slot_address, 0x40)])
    sections = [
        Section(name=".text", data=b"\x90" * 0x80, address=0x401000,
                flags=EC.SHF_ALLOC | EC.SHF_EXECINSTR),
        Section(name=".data", data=(0x401000).to_bytes(8, "little"),
                address=slot_address, flags=EC.SHF_ALLOC | EC.SHF_WRITE),
        Section(name=".eh_frame", data=data, address=SECTION_ADDRESS,
                flags=EC.SHF_ALLOC),
    ]
    image = BinaryImage(elf=ElfFile(sections=sections, entry_point=0x401000))
    assert [f.pc_begin for f in image.fdes] == [0x401000]


def test_fde_range_of_two_gigabytes_parses_positive():
    # The range is a length: with the sdata4-encoded CIE a range >= 2**31
    # used to decode negative and abort; it must round-trip unsigned.
    big = 0x8000_0000
    data = build_with_encoding(C.DW_EH_PE_pcrel | C.DW_EH_PE_sdata4,
                               [(0x401000, big)])
    _, fdes = parse_eh_frame(data, SECTION_ADDRESS)
    assert fdes[0].pc_range == big
    assert fdes[0].pc_end == 0x401000 + big


def test_unsigned_range_read_keeps_small_ranges_byte_identical():
    signed = build_with_encoding(C.DW_EH_PE_pcrel | C.DW_EH_PE_sdata4,
                                 [(0x401000, 0x56)])
    _, fdes = parse_eh_frame(signed, SECTION_ADDRESS)
    assert fdes[0].pc_range == 0x56


# ----------------------------------------------------------------------
# Malformed-section smoke tests (run as a CI smoke job)
# ----------------------------------------------------------------------

class TestMalformedEhFrame:
    def test_entry_length_past_section_end(self):
        data = struct.pack("<I", 0x1000) + b"\x00" * 8
        with pytest.raises(EhFrameParseError, match="exceeds"):
            parse_eh_frame(data, SECTION_ADDRESS)

    def test_truncated_mid_fde_rejected(self):
        data = build_simple([(0x401000, 0x20, [])])[1]
        for cut in (len(data) - 3, len(data) // 2):
            with pytest.raises((EhFrameParseError, ValueError, IndexError)):
                parse_eh_frame(data[:cut] + b"\xff" * 3, SECTION_ADDRESS)

    def test_unsupported_pointer_format_rejected(self):
        builder = EhFrameBuilder()
        builder.add_cie()
        data = bytearray(builder.build(SECTION_ADDRESS))
        # Corrupt the CIE's 'R' augmentation byte to an undefined format 0x05.
        index = data.index(bytes([C.DW_EH_PE_pcrel | C.DW_EH_PE_sdata4]))
        data[index] = 0x05
        body = build_simple([(0x401000, 0x20, [])])[1]
        # Reuse the valid FDE bytes against the corrupted CIE.
        corrupted = bytes(data[:-4]) + body[len(data) - 4 : ]
        with pytest.raises(EhFrameParseError, match="format"):
            parse_eh_frame(corrupted, SECTION_ADDRESS)

    def test_unsupported_pointer_application_rejected(self):
        encoding = C.DW_EH_PE_textrel | C.DW_EH_PE_sdata4
        builder = EhFrameBuilder()
        handle = builder.add_cie(fde_pointer_encoding=encoding)
        builder.add_fde(handle, 0x401000, 0x20, [])
        data = builder.build(SECTION_ADDRESS)
        with pytest.raises(EhFrameParseError, match="application"):
            parse_eh_frame(data, SECTION_ADDRESS)

    def test_64_bit_dwarf_marker_rejected(self):
        data = struct.pack("<I", 0xFFFFFFFF) + b"\x00" * 16
        with pytest.raises(EhFrameParseError, match="64-bit"):
            parse_eh_frame(data, SECTION_ADDRESS)

    def test_unknown_cfi_opcode_in_fde_program_rejected(self):
        # def_cfa_offset(0x55) encodes as 0e 55; 0x3f is no DW_CFA opcode.
        _, data = build_simple([(0x401000, 0x20, [cfi.def_cfa_offset(0x55)])])
        cie_length = struct.unpack_from("<I", data, 0)[0] + 4
        index = data.index(b"\x0e\x55", cie_length)
        corrupted = data[:index] + b"\x3f" + data[index + 1 :]
        with pytest.raises(EhFrameParseError, match="unknown CFI opcode 0x3f"):
            parse_eh_frame(corrupted, SECTION_ADDRESS)

    def test_truncated_uleb_at_end_of_cie_program_rejected(self):
        # version 1, "zR", code 1, data -8, RA 16, R = pcrel|sdata4, then
        # def_cfa(rsp, 8) and a def_cfa_offset whose ULEB never terminates.
        body = (
            struct.pack("<I", 0)
            + b"\x01zR\x00\x01\x78\x10\x01\x1b"
            + b"\x0c\x07\x08"
            + b"\x0e\x80"
        )
        data = struct.pack("<I", len(body)) + body + struct.pack("<I", 0)
        with pytest.raises(EhFrameParseError, match="ULEB128"):
            parse_eh_frame(data, SECTION_ADDRESS)
