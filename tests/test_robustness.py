"""Robustness and failure-injection tests: malformed inputs must fail loudly
and cleanly, never silently mis-analyse."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FetchDetector, FetchOptions
from repro.dwarf.parser import EhFrameParseError, parse_eh_frame
from repro.elf import BinaryImage, ElfFile, Section
from repro.elf import constants as C
from repro.elf.reader import ElfParseError, read_elf


def _image_with(sections, entry=0x401000, name="injected"):
    return BinaryImage(elf=ElfFile(sections=sections, entry_point=entry), name=name)


# ----------------------------------------------------------------------
# Corrupted ELF containers
# ----------------------------------------------------------------------

@given(data=st.binary(min_size=0, max_size=128))
@settings(max_examples=100)
def test_arbitrary_bytes_never_parse_as_elf_silently(data):
    try:
        parsed = read_elf(data)
    except (ElfParseError, ValueError, struct.error, IndexError):
        return
    # If it parsed, it must at least have carried the ELF magic.
    assert data[:4] == b"\x7fELF"
    assert parsed is not None


def test_truncated_elf_is_rejected(rich_binary):
    blob = rich_binary.elf_bytes[:200]
    with pytest.raises((ElfParseError, ValueError, struct.error, IndexError)):
        read_elf(blob)


def test_flipping_section_offsets_does_not_crash_the_reader(rich_binary):
    blob = bytearray(rich_binary.elf_bytes)
    # Corrupt the section header offset field.
    struct.pack_into("<Q", blob, 40, len(blob) * 4)
    with pytest.raises((ElfParseError, ValueError, struct.error, IndexError)):
        read_elf(bytes(blob))


# ----------------------------------------------------------------------
# Corrupted .eh_frame contents
# ----------------------------------------------------------------------

def test_truncated_eh_frame_is_rejected(rich_binary):
    section = rich_binary.image.section(".eh_frame")
    truncated = section.data[: len(section.data) // 2 + 3]
    with pytest.raises((EhFrameParseError, ValueError, IndexError)):
        parse_eh_frame(truncated, section.address)


@given(position=st.integers(min_value=4, max_value=200), value=st.integers(0, 255))
@settings(max_examples=60)
def test_bitflipped_eh_frame_never_hangs(rich_binary, position, value):
    section = rich_binary.image.section(".eh_frame")
    corrupted = bytearray(section.data)
    position %= len(corrupted)
    corrupted[position] = value
    try:
        cies, fdes = parse_eh_frame(bytes(corrupted), section.address)
    except (EhFrameParseError, ValueError, IndexError, KeyError):
        return
    # Parsed output, if any, must stay structurally sane.
    for fde in fdes:
        assert fde.pc_range >= 0


# ----------------------------------------------------------------------
# Seeded malformed-.eh_frame fuzz corpus
#
# Builds well-formed sections with the repo's own encoder (varying pointer
# encodings and FDE counts), then applies one seeded structural mutation.
# The contract under test is the parser's error envelope: a corrupt section
# either raises EhFrameParseError — never a raw struct.error / IndexError /
# KeyError / UnicodeDecodeError — or parses into structurally sane records.
# ----------------------------------------------------------------------

def _build_fuzz_eh_frame(rng):
    """A small, valid .eh_frame with rng-chosen encodings and FDE layout."""
    from repro.dwarf import constants as D
    from repro.dwarf.encoder import EhFrameBuilder

    encodings = [
        D.DW_EH_PE_pcrel | D.DW_EH_PE_sdata4,
        D.DW_EH_PE_udata4,
        D.DW_EH_PE_absptr,
        D.DW_EH_PE_pcrel | D.DW_EH_PE_sdata8,
        D.DW_EH_PE_udata8,
    ]
    section_address = 0x500000
    builder = EhFrameBuilder()
    cie = builder.add_cie(fde_pointer_encoding=rng.choice(encodings))
    base = 0x401000
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(0x10, 0x400)
        builder.add_fde(cie, base, size)
        base += size + rng.randint(0, 0x40)
    return builder.build(section_address), section_address


def _mutate(data: bytearray, rng) -> None:
    """Apply one seeded structural corruption in place."""
    kind = rng.randrange(6)
    if kind == 0:  # single byte flip
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
    elif kind == 1:  # entry length field lies
        offset = rng.choice([0, 4]) if len(data) > 8 else 0
        struct.pack_into("<I", data, offset, rng.choice([3, 0xFFF0, 0x7FFFFFFF]))
    elif kind == 2:  # pointer-encoding byte becomes something exotic
        position = rng.randrange(min(len(data), 24))
        data[position] = rng.choice([0x5E, 0x80, 0xF0, 0x0D, 0x9B])
    elif kind == 3:  # unterminated LEB128 run
        position = rng.randrange(len(data))
        run = b"\x80" * rng.randint(2, 12)
        data[position : position + len(run)] = run
    elif kind == 4:  # truncation
        del data[rng.randrange(4, max(5, len(data))) :]
    else:  # corrupt the CIE augmentation region (around the "zR" string)
        position = 9 + rng.randrange(8)
        if position < len(data):
            data[position] = rng.randrange(256)


@pytest.mark.parametrize("seed", range(70))
def test_fuzzed_eh_frame_fails_only_with_parse_errors(seed):
    import random

    rng = random.Random(seed)
    data, section_address = _build_fuzz_eh_frame(rng)
    corrupted = bytearray(data)
    _mutate(corrupted, rng)
    try:
        _, fdes = parse_eh_frame(bytes(corrupted), section_address)
    except EhFrameParseError:
        return  # the typed envelope — exactly what callers are promised
    # Anything *else* escaping (struct.error, IndexError, KeyError, ...)
    # fails this test: pytest reports it as an error, which is the point.
    for fde in fdes:
        assert fde.pc_range >= 0
        assert fde.pc_begin >= 0
        assert fde.cie is not None


def test_fuzz_corpus_baseline_is_valid():
    """The un-mutated generator output must parse cleanly for every seed —
    otherwise the fuzz corpus exercises the builder, not the mutations."""
    import random

    for seed in range(70):
        rng = random.Random(seed)
        data, section_address = _build_fuzz_eh_frame(rng)
        cies, fdes = parse_eh_frame(data, section_address)
        assert cies and fdes


def test_detector_on_binary_without_eh_frame_falls_back_to_entry():
    text = Section(
        name=".text",
        data=b"\x55\x48\x89\xe5\x5d\xc3" + b"\x90" * 10,
        address=0x401000,
        flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
    )
    image = _image_with([text])
    # With no FDE seeds at all, FETCH degrades to recursive traversal from
    # the entry point (the stripped-without-eh_frame scenario).
    result = FetchDetector().detect(image)
    assert result.function_starts == {image.entry_point}


def test_detector_ignores_fdes_pointing_outside_executable_sections(rich_binary):
    # Re-point the eh_frame to a data-only image: every FDE start now falls
    # outside executable memory and must be discarded, not reported.
    eh_frame = rich_binary.image.section(".eh_frame")
    data_only = Section(
        name=".rodata", data=b"\x00" * 64, address=0x402000, flags=C.SHF_ALLOC
    )
    moved_eh = Section(
        name=".eh_frame", data=eh_frame.data, address=eh_frame.address, flags=C.SHF_ALLOC
    )
    image = _image_with([data_only, moved_eh], entry=0)
    options = FetchOptions(use_recursion=False, validate_fde_starts=False,
                           use_pointer_validation=False, use_tail_call_analysis=False)
    with pytest.raises(ValueError):
        # No executable section at all: the image itself is unusable and the
        # facade says so explicitly.
        _ = image.text
    result = FetchDetector(options).detect(image)
    assert result.function_starts == set()


def test_detector_survives_text_full_of_random_bytes():
    import random

    rng = random.Random(7)
    junk = bytes(rng.randrange(0, 256) for _ in range(4096))
    text = Section(
        name=".text", data=junk, address=0x401000, flags=C.SHF_ALLOC | C.SHF_EXECINSTR
    )
    image = _image_with([text])
    result = FetchDetector().detect(image)
    # Without call frames nothing should be claimed as a function.
    assert result.function_starts == set()


def test_detection_result_roundtrips_through_elf_with_modified_padding(rich_binary):
    """Padding bytes are irrelevant to detection: rewriting them changes nothing."""
    blob = bytearray(rich_binary.elf_bytes)
    original = FetchDetector().detect(BinaryImage.from_bytes(bytes(blob), "orig"))

    text = rich_binary.image.text
    parsed = read_elf(bytes(blob))
    raw_text = parsed.section(".text")
    covered = set()
    for info in rich_binary.ground_truth.functions:
        covered.update(range(info.address, info.address + info.size))
        for cold in info.cold_part_addresses:
            covered.update(range(cold, cold + 1))
    # Find the text section's file offset by searching for its contents.
    file_offset = bytes(blob).find(raw_text.data)
    assert file_offset > 0
    mutated = bytearray(blob)
    changed = 0
    for index, byte in enumerate(text.data):
        address = text.address + index
        if byte == 0xCC and address not in covered and changed < 64:
            mutated[file_offset + index] = 0x90
            changed += 1
    result = FetchDetector().detect(BinaryImage.from_bytes(bytes(mutated), "mutated"))
    assert result.function_starts == original.function_starts
