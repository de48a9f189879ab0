"""Tests for the ELF writer, reader and the BinaryImage facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elf import (
    BinaryImage,
    ElfFile,
    Section,
    Symbol,
    read_elf,
    read_elf_file,
)
from repro.elf.writer import write_elf, write_elf_file
from repro.elf import constants as C
from repro.elf.reader import ElfParseError


def make_elf(symbols=None, sections=None, entry=0x401000):
    text = Section(
        name=".text",
        data=b"\x55\x48\x89\xe5\xc3" + b"\x90" * 11,
        address=0x401000,
        flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
        align=16,
    )
    data = Section(
        name=".data", data=b"\xaa" * 32, address=0x403000, flags=C.SHF_ALLOC | C.SHF_WRITE
    )
    rodata = Section(name=".rodata", data=b"hello\x00", address=0x402000, flags=C.SHF_ALLOC)
    return ElfFile(
        sections=sections or [text, rodata, data],
        symbols=symbols if symbols is not None else [Symbol("main", 0x401000, 5)],
        entry_point=entry,
    )


def test_header_magic_and_machine():
    blob = write_elf(make_elf())
    assert blob[:4] == b"\x7fELF"
    assert blob[4] == C.ELFCLASS64
    parsed = read_elf(blob)
    assert parsed.elf_type == C.ET_EXEC
    assert parsed.entry_point == 0x401000


def test_sections_roundtrip_content_and_flags():
    parsed = read_elf(write_elf(make_elf()))
    text = parsed.section(".text")
    assert text is not None
    assert text.data.startswith(b"\x55\x48\x89\xe5\xc3")
    assert text.is_executable and text.is_allocated and not text.is_writable
    data = parsed.section(".data")
    assert data.is_writable and not data.is_executable
    assert parsed.section(".rodata").data == b"hello\x00"


def test_symbols_roundtrip_with_binding_and_type():
    symbols = [
        Symbol("main", 0x401000, 5, sym_type=C.STT_FUNC, binding=C.STB_GLOBAL),
        Symbol("helper.cold", 0x401005, 3, sym_type=C.STT_FUNC, binding=C.STB_LOCAL),
        Symbol("raw_asm", 0x401008, 2, sym_type=C.STT_NOTYPE, binding=C.STB_GLOBAL),
        Symbol("table", 0x403000, 8, sym_type=C.STT_OBJECT, section_name=".data"),
    ]
    parsed = read_elf(write_elf(make_elf(symbols=symbols)))
    by_name = {s.name: s for s in parsed.symbols}
    assert by_name["main"].sym_type == C.STT_FUNC
    assert by_name["main"].binding == C.STB_GLOBAL
    assert by_name["helper.cold"].binding == C.STB_LOCAL
    assert by_name["raw_asm"].sym_type == C.STT_NOTYPE
    assert by_name["table"].section_name == ".data"
    assert by_name["table"].address == 0x403000


def test_empty_symbol_table_roundtrip():
    parsed = read_elf(write_elf(make_elf(symbols=[])))
    assert parsed.symbols == []


def test_reader_rejects_non_elf_input():
    with pytest.raises(ElfParseError):
        read_elf(b"MZ not an elf file" + b"\x00" * 64)


def test_reader_rejects_wrong_machine():
    blob = bytearray(write_elf(make_elf()))
    blob[18] = 0x03  # EM_386
    with pytest.raises(ElfParseError):
        read_elf(bytes(blob))


def test_file_roundtrip(tmp_path):
    path = tmp_path / "demo.elf"
    write_elf_file(make_elf(), str(path))
    parsed = read_elf_file(str(path))
    assert parsed.section(".text").address == 0x401000


def test_section_read_by_virtual_address():
    section = make_elf().section(".text")
    assert section.read(0x401000, 5) == b"\x55\x48\x89\xe5\xc3"
    with pytest.raises(ValueError):
        section.read(0x400fff, 1)


def test_section_containing():
    elf = make_elf()
    assert elf.section_containing(0x401004).name == ".text"
    assert elf.section_containing(0x403010).name == ".data"
    assert elf.section_containing(0x500000) is None


# ----------------------------------------------------------------------
# BinaryImage facade
# ----------------------------------------------------------------------

def test_image_text_and_permissions():
    image = BinaryImage.from_bytes(write_elf(make_elf()), "demo")
    assert image.text.address == 0x401000
    assert image.is_executable_address(0x401002)
    assert not image.is_executable_address(0x403000)
    assert image.read(0x402000, 5) == b"hello"
    with pytest.raises(ValueError):
        image.read(0x900000, 1)


def test_image_function_symbols_are_sorted_and_typed():
    symbols = [
        Symbol("b", 0x401004, 1),
        Symbol("a", 0x401000, 4),
        Symbol("untyped", 0x401008, 1, sym_type=C.STT_NOTYPE),
    ]
    image = BinaryImage.from_bytes(write_elf(make_elf(symbols=symbols)), "demo")
    assert [s.name for s in image.function_symbols] == ["a", "b"]
    assert image.has_symbols


def test_image_without_eh_frame():
    image = BinaryImage.from_bytes(write_elf(make_elf()), "demo")
    assert not image.has_eh_frame
    assert image.fdes == []
    assert image.fde_covering(0x401000) is None


def test_image_data_sections_exclude_eh_frame(rich_binary):
    names = {s.name for s in rich_binary.image.data_sections}
    assert ".rodata" in names and ".data" in names
    assert ".eh_frame" not in names and ".text" not in names


def test_image_eh_frame_parsing_on_synthetic_binary(rich_binary):
    image = rich_binary.image
    assert image.has_eh_frame
    assert len(image.fdes) > 50
    start = min(f.pc_begin for f in image.fdes)
    assert image.fde_covering(start) is not None


def test_synthetic_elf_bytes_reload_identically(rich_binary):
    reloaded = BinaryImage.from_bytes(rich_binary.elf_bytes, "reloaded")
    assert reloaded.text.data == rich_binary.image.text.data
    assert len(reloaded.fdes) == len(rich_binary.image.fdes)
    assert {s.address for s in reloaded.function_symbols} == {
        s.address for s in rich_binary.image.function_symbols
    }


@given(
    symbols=st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh_", min_size=1, max_size=12),
            st.integers(min_value=0x401000, max_value=0x40100F),
            st.integers(min_value=0, max_value=64),
        ),
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50)
def test_symbol_table_roundtrip_property(symbols):
    elf = make_elf(symbols=[Symbol(n, a, s) for n, a, s in symbols])
    parsed = read_elf(write_elf(elf))
    assert {(s.name, s.address, s.size) for s in parsed.symbols} == set(symbols)
