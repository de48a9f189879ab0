"""Tests for CFI evaluation into per-PC rows and stack heights."""

import pytest

from repro.dwarf import cfi
from repro.dwarf import constants as C
from repro.dwarf.cfa_table import CfaTable
from repro.dwarf.encoder import EhFrameBuilder, default_cie_instructions
from repro.dwarf.parser import parse_eh_frame
from repro.dwarf.structs import CieRecord, FdeRecord
from repro.synth import build_scenario_matrix_corpora, build_selfbuilt_corpus

SECTION = 0x500000
FUNC = 0x4010B0


def make_fde(instructions, pc_range=0x56, initial=None):
    builder = EhFrameBuilder()
    handle = builder.add_cie(initial_instructions=initial)
    builder.add_fde(handle, FUNC, pc_range, instructions)
    data = builder.build(SECTION)
    _, fdes = parse_eh_frame(data, SECTION)
    return fdes[0]


def figure4_fde():
    """The FDE of the paper's Figure 4 (push rbp / push rbx / sub rsp, 8)."""
    return make_fde(
        [
            cfi.advance_loc(1), cfi.def_cfa_offset(16), cfi.offset(6, -16),
            cfi.advance_loc(12), cfi.def_cfa_offset(24), cfi.offset(3, -24),
            cfi.advance_loc(11), cfi.def_cfa_offset(32),
            cfi.advance_loc(29), cfi.def_cfa_offset(24),
            cfi.advance_loc(1), cfi.def_cfa_offset(16),
            cfi.advance_loc(1), cfi.def_cfa_offset(8),
        ]
    )


def test_figure4_rows_and_heights():
    table = CfaTable(figure4_fde())
    # Entry: CFA = rsp + 8, stack height 0.
    assert table.stack_height_at(FUNC) == 0
    # After push rbp (offset 1): CFA = rsp + 16.
    assert table.stack_height_at(FUNC + 1) == 8
    # After push rbx (offset 13): CFA = rsp + 24.
    assert table.stack_height_at(FUNC + 0x0D) == 16
    # After sub rsp, 8 (offset 24): CFA = rsp + 32.
    assert table.stack_height_at(FUNC + 0x18) == 24
    # After the epilogue the height is back to 0 at the ret.
    assert table.stack_height_at(FUNC + 0x37) == 0
    assert table.has_complete_stack_height


def test_register_save_slots_follow_figure4():
    table = CfaTable(figure4_fde())
    saved = table.row_at(FUNC + 0x20).register_offsets
    assert saved[C.DWARF_REG_RA] == -8
    assert saved[6] == -16  # rbp at CFA-16
    assert saved[3] == -24  # rbx at CFA-24


def test_rows_are_contiguous_and_cover_the_range():
    table = CfaTable(figure4_fde())
    rows = table.rows
    assert rows[0].start == FUNC
    assert rows[-1].end == FUNC + 0x56
    for previous, current in zip(rows, rows[1:]):
        assert previous.end == current.start


def test_outside_addresses_have_no_row():
    table = CfaTable(figure4_fde())
    assert table.row_at(FUNC - 1) is None
    assert table.row_at(FUNC + 0x56) is None
    assert table.stack_height_at(FUNC - 1) is None


def overshoot_fde():
    """An ``advance_loc`` past ``pc_range`` leaves a row ending past pc_end."""
    return make_fde(
        [cfi.advance_loc(4), cfi.def_cfa_offset(16), cfi.advance_loc(0x200)],
        pc_range=0x20,
    )


def test_overshooting_advance_loc_answers_nothing_past_pc_end():
    table = CfaTable(overshoot_fde())
    assert table.stack_height_at(FUNC + 4) == 8
    assert table.stack_height_at(FUNC + 0x1F) == 8
    assert table.row_at(FUNC + 0x20) is None
    assert table.row_at(FUNC + 0x30) is None
    assert table.stack_height_at(FUNC + 0x30) is None


def test_frame_pointer_functions_are_incomplete():
    fde = make_fde(
        [
            cfi.advance_loc(1), cfi.def_cfa_offset(16), cfi.offset(6, -16),
            cfi.advance_loc(3), cfi.def_cfa_register(C.DWARF_REG_RBP),
        ]
    )
    table = CfaTable(fde)
    assert not table.has_complete_stack_height
    assert table.stack_height_at(FUNC) == 0
    assert table.stack_height_at(FUNC + 5) is None


def test_expression_based_cfa_is_incomplete():
    fde = make_fde([cfi.def_cfa_expression(b"\x77\x08")])
    table = CfaTable(fde)
    assert table.uses_expression
    assert not table.has_complete_stack_height


def test_cold_part_initial_offset_is_not_canonical():
    # A cold-part FDE starts at the parent's current stack depth, so its
    # first row is rsp+K with K != 8 and the completeness check fails.
    fde = make_fde([cfi.def_cfa_offset(40)])
    table = CfaTable(fde)
    assert table.stack_height_at(FUNC) == 32
    assert not table.has_complete_stack_height


def test_remember_restore_state():
    fde = make_fde(
        [
            cfi.advance_loc(4), cfi.def_cfa_offset(24),
            cfi.remember_state(),
            cfi.advance_loc(4), cfi.def_cfa_offset(48),
            cfi.advance_loc(4), cfi.restore_state(),
            cfi.advance_loc(4), cfi.def_cfa_offset(8),
        ]
    )
    table = CfaTable(fde)
    assert table.stack_height_at(FUNC + 5) == 16
    assert table.stack_height_at(FUNC + 9) == 40
    # restore_state brings back the remembered 24-byte CFA offset.
    assert table.stack_height_at(FUNC + 13) == 16


def test_restore_register_rule():
    fde = make_fde(
        [
            cfi.advance_loc(2), cfi.offset(3, -24),
            cfi.advance_loc(2), cfi.restore(3),
        ]
    )
    table = CfaTable(fde)
    assert 3 in table.row_at(FUNC + 2).register_offsets
    assert 3 not in table.row_at(FUNC + 5).register_offsets


def test_synthetic_binary_cfa_tables_match_generated_frames(rich_binary):
    """Every rsp-framed generated function has complete stack-height CFI and
    every rbp-framed one does not; every row keeps the return address at
    CFA-8, and every rbp-framed function saves rbp at CFA-16."""
    image = rich_binary.image
    checked = rbp_framed = 0
    for info in rich_binary.ground_truth.functions:
        if not info.has_fde or info.bad_fde_offset:
            continue
        fde = image.fde_covering(info.address)
        if fde is None or fde.pc_begin != info.address:
            continue
        table = CfaTable(fde)
        if info.kind in ("thunk", "terminate"):
            continue
        rows = table.rows
        assert all(row.register_offsets[C.DWARF_REG_RA] == -8 for row in rows), info.name
        if info.frame == "rsp":
            assert table.has_complete_stack_height, info.name
            assert table.stack_height_at(info.address) == 0
        else:
            assert not table.has_complete_stack_height, info.name
            assert any(row.register_offsets.get(C.DWARF_REG_RBP) == -16 for row in rows), info.name
            rbp_framed += 1
        checked += 1
    assert checked > 20
    assert rbp_framed > 0


def _row_based_complete(table: CfaTable) -> bool:
    """The completeness check's definition, computed from evaluated rows."""
    rows = table.rows
    if not rows or table.uses_expression:
        return False
    if rows[0].cfa_register != C.DWARF_REG_RSP or rows[0].cfa_offset != 8:
        return False
    return all(
        row.cfa_register == C.DWARF_REG_RSP and row.cfa_offset is not None
        for row in rows
    )


def _raw_fde(cie_program: bytes, fde_program: bytes, pc_range=0x40):
    """A record built straight from CFI bytes, for opcodes the encoder
    never emits (``def_cfa_sf``)."""
    cie = CieRecord(offset=0, initial_instructions=cfi.decode_cfi_program(cie_program))
    return FdeRecord(
        offset=0x18,
        cie=cie,
        pc_begin=FUNC,
        pc_range=pc_range,
        instructions=cfi.decode_cfi_program(fde_program),
    )


def _edge_case_fdes():
    rsp8 = default_cie_instructions()
    return [
        # zero-length advance_loc before and between real rows
        make_fde([cfi.advance_loc(0), cfi.def_cfa_offset(16), cfi.advance_loc(4)]),
        make_fde([cfi.advance_loc(4), cfi.advance_loc(0), cfi.def_cfa_offset(16)]),
        make_fde([cfi.def_cfa_offset(16), cfi.advance_loc(0), cfi.advance_loc(4)]),
        # restore_state with nothing remembered
        make_fde([cfi.advance_loc(2), cfi.restore_state(), cfi.advance_loc(2)]),
        make_fde(
            [cfi.def_cfa_offset(16), cfi.restore_state(), cfi.advance_loc(2)]
        ),
        make_fde(
            [
                cfi.advance_loc(2), cfi.def_cfa_register(C.DWARF_REG_RBP),
                cfi.restore_state(), cfi.advance_loc(2),
            ]
        ),
        # def_cfa_sf (register rsp = 7, factored offset -1 / -2 => 8 / 16)
        _raw_fde(b"\x12\x07\x7f\x90\x01", b"\x44\x0e\x10"),
        _raw_fde(b"\x12\x07\x7e\x90\x01", b"\x44\x0e\x08"),
        _raw_fde(b"\x0c\x07\x08\x90\x01", b"\x44\x12\x06\x7e"),
        # an expression in the CIE prologue (register rule and CFA rule)
        make_fde([cfi.advance_loc(4)], initial=rsp8 + [cfi.expression(3, b"\x77\x08")]),
        make_fde([cfi.advance_loc(4)], initial=[cfi.def_cfa_expression(b"\x77\x08")]),
        # advance_loc overshooting pc_range
        overshoot_fde(),
        make_fde([cfi.advance_loc(0x60), cfi.def_cfa_offset(16)], pc_range=0x20),
        # an empty range has no rows at all
        make_fde([], pc_range=0),
    ]


@pytest.fixture(scope="module")
def golden_corpus_fdes():
    matrix = build_scenario_matrix_corpora(scale=0.25, programs=2, seed=11)
    binaries = [binary for row in matrix.values() for binary in row]
    binaries += build_selfbuilt_corpus(scale=0.3, max_binaries=16, seed=7)
    return [fde for binary in binaries for fde in binary.image.fdes]


def test_completeness_probe_matches_its_row_based_definition(golden_corpus_fdes):
    """``has_complete_stack_height`` walks the CFA rule without building
    rows; on every FDE it must give the verdict the rows give."""
    edge_cases = _edge_case_fdes()
    verdicts = set()
    for fde in golden_corpus_fdes + edge_cases:
        probe = CfaTable(fde).has_complete_stack_height
        assert probe == _row_based_complete(CfaTable(fde)), fde
        verdicts.add(probe)
    assert verdicts == {True, False}
    assert len(golden_corpus_fdes) > 500
    # The edge cases cover both verdicts on their own.
    assert {CfaTable(fde).has_complete_stack_height for fde in edge_cases} == {
        True,
        False,
    }
