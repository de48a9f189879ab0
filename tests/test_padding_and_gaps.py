"""Tests for the shared padding constants, gap computation at section
boundaries, and prologue matching at gap and section edges."""

from repro.analysis.gaps import compute_gaps
from repro.analysis.linearscan import linear_scan_gaps
from repro.analysis.padding import PADDING_BYTES, skip_padding_bytes
from repro.analysis.prologue import match_prologues
from repro.analysis.result import DisassemblyResult
from repro.core.context import AnalysisContext
from repro.elf import constants as C
from repro.elf.image import BinaryImage
from repro.elf.structs import ElfFile, Section
from repro.x86.instruction import Instruction

TEXT = 0x1000


def _image(sections):
    return BinaryImage(elf=ElfFile(sections=sections, entry_point=TEXT), name="t")


def _text_section(data, address=TEXT, name=".text"):
    return Section(
        name=name, data=data, address=address, flags=C.SHF_ALLOC | C.SHF_EXECINSTR
    )


def _result_with_instructions(instructions):
    result = DisassemblyResult()
    for insn in instructions:
        result.instructions[insn.address] = insn
    return result


# ----------------------------------------------------------------------
# Shared padding constants
# ----------------------------------------------------------------------

def test_padding_byte_set_is_shared_and_single_byte_only():
    # One constant for every consumer; multi-byte NOP components like 0x66 /
    # 0x0f / 0x1f must NOT be in it (skipping them byte-wise would jump into
    # the middle of real instructions).
    assert PADDING_BYTES == frozenset((0x90, 0xCC, 0x00))
    for byte in (0x66, 0x0F, 0x1F):
        assert byte not in PADDING_BYTES
    # The dead, wrongly-composed per-module copies are gone.
    import repro.analysis.linearscan as linearscan
    import repro.analysis.prologue as prologue

    assert not hasattr(prologue, "_PADDING_BYTES")
    assert not hasattr(linearscan, "_PADDING_BYTES")


def test_skip_padding_bytes_stops_at_multi_byte_nop():
    data = b"\x90\x90\xcc\x00" + b"\x66\x0f\x1f\x44\x00\x00"
    # Byte-wise skipping must stop at the 0x66 prefix, not run into it.
    assert skip_padding_bytes(data, TEXT, TEXT, TEXT + len(data)) == TEXT + 4


def test_linear_scan_ignores_multi_byte_nop_runs():
    # A gap consisting solely of 66 0f 1f NOP runs decodes fine but contains
    # no meaningful instructions, so it must produce no function starts.
    nop6 = b"\x66\x0f\x1f\x44\x00\x00"
    section = _text_section(nop6 * 8)
    image = _image([section])
    gaps = [(TEXT, TEXT + len(section.data))]
    assert linear_scan_gaps(image, gaps, context=AnalysisContext(image)) == set()
    # Real code after the NOP run is still found at its true start.
    code = b"\x55\x48\x89\xe5\x31\xc0\x5d\xc3"  # push rbp; mov; xor; pop; ret
    section = _text_section(nop6 * 4 + code)
    image = _image([section])
    gaps = [(TEXT, TEXT + len(section.data))]
    starts = linear_scan_gaps(image, gaps, context=AnalysisContext(image))
    assert starts == {TEXT + 4 * len(nop6)}


# ----------------------------------------------------------------------
# Gap computation across section boundaries
# ----------------------------------------------------------------------

def test_compute_gaps_with_covered_range_spanning_section_boundary():
    first = _text_section(b"\x90" * 0x10, address=TEXT, name=".text")
    second = _text_section(b"\x90" * 0x10, address=TEXT + 0x10, name=".text.hot")
    image = _image([first, second])
    # One merged covered range [0x100c, 0x1014) straddles the boundary.
    covered = _result_with_instructions(
        [
            Instruction(mnemonic="nop", address=TEXT + 0xC, data=b"\x0f\x1f\x40\x00"),
            Instruction(mnemonic="nop", address=TEXT + 0x10, data=b"\x0f\x1f\x40\x00"),
        ]
    )
    gaps = compute_gaps(image, covered)
    assert gaps == [(TEXT, TEXT + 0xC), (TEXT + 0x14, TEXT + 0x20)]
    # No gap byte is covered and every uncovered executable byte is in a gap.
    gap_bytes = {a for start, end in gaps for a in range(start, end)}
    covered_bytes = set(range(TEXT + 0xC, TEXT + 0x14))
    assert not (gap_bytes & covered_bytes)
    assert gap_bytes | covered_bytes == set(range(TEXT, TEXT + 0x20))


# ----------------------------------------------------------------------
# Prologue matching at gap edges, against a direct windowed search
# ----------------------------------------------------------------------

def _parity(image, gaps, patterns):
    windowed: set[int] = set()
    for gap_start, gap_end in gaps:
        section = image.section_containing(gap_start)
        begin = gap_start - section.address
        window = section.data[begin : min(gap_end, section.end_address) - section.address]
        for pattern in patterns:
            offset = window.find(pattern)
            while offset != -1:
                windowed.add(gap_start + offset)
                offset = window.find(pattern, offset + 1)
    matched = match_prologues(
        image, gaps, patterns=patterns, context=AnalysisContext(image)
    )
    assert matched == windowed
    return matched


def test_prologue_match_parity_when_pattern_straddles_gap_end():
    pattern = b"\x55\x48\x89\xe5"
    data = b"\x90" * 0x10 + pattern + b"\x90" * 0x0C
    image = _image([_text_section(data)])

    # Gap ends two bytes into the pattern: neither path may report it.
    assert _parity(image, [(TEXT, TEXT + 0x12)], (pattern,)) == set()
    # Gap ends exactly at the pattern end: both paths report it.
    assert _parity(image, [(TEXT, TEXT + 0x14)], (pattern,)) == {TEXT + 0x10}
    # Gap end past the section end clamps identically on both paths.
    assert _parity(image, [(TEXT, TEXT + 0x100)], (pattern,)) == {TEXT + 0x10}


def test_prologue_match_parity_when_pattern_straddles_section_end():
    pattern = b"\x55\x48\x89\xe5"
    # The section ends mid-pattern; the occurrence must not be reported by
    # either path even though the gap nominally extends further.
    data = b"\x90" * 0x0C + pattern[:2]
    image = _image([_text_section(data)])
    assert _parity(image, [(TEXT, TEXT + 0x20)], (pattern,)) == set()
