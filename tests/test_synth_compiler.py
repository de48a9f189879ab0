"""Tests for the synthetic compiler: layout, relocation, eh_frame, ground truth."""

import pytest

from repro.dwarf.cfa_table import CfaTable
from repro.synth import compile_program, plan_program
from repro.synth.plan import FunctionPlan, ProgramPlan
from repro.synth.workloads import WorkloadTraits
from repro.x86.disassembler import decode_range


def test_ground_truth_matches_symbol_table(rich_binary):
    truth = rich_binary.ground_truth
    symbols = {s.name: s.address for s in rich_binary.image.symbols}
    for info in truth.functions:
        if info.has_symbol:
            assert symbols.get(info.name) == info.address


def test_every_declared_fde_exists_and_matches_part_bounds(rich_binary):
    image = rich_binary.image
    fde_starts = {f.pc_begin for f in image.fdes}
    for info in rich_binary.ground_truth.functions:
        if info.has_fde and not info.bad_fde_offset:
            assert info.address in fde_starts, info.name
        if not info.has_fde:
            assert info.address not in fde_starts, info.name


def test_cold_parts_have_their_own_fdes(rich_binary):
    image = rich_binary.image
    truth = rich_binary.ground_truth
    assert truth.cold_part_starts, "fixture should contain cold splits"
    fde_starts = {f.pc_begin for f in image.fdes}
    assert truth.cold_part_starts <= fde_starts


def test_fde_ranges_do_not_overlap(rich_binary):
    ranges = sorted((f.pc_begin, f.pc_end) for f in rich_binary.image.fdes)
    for (start_a, end_a), (start_b, _) in zip(ranges, ranges[1:]):
        assert end_a <= start_b


def test_every_function_body_decodes_cleanly(plain_binary):
    image = plain_binary.image
    for info in plain_binary.ground_truth.functions:
        begin = info.address - image.text.address
        insns = list(decode_range(image.text.data, image.text.address, begin, begin + info.size))
        assert sum(i.size for i in insns) == info.size, info.name
        assert all(i.mnemonic != "(bad)" for i in insns)


def test_functions_end_with_terminator_or_tail_jump(plain_binary):
    image = plain_binary.image
    for info in plain_binary.ground_truth.functions:
        begin = info.address - image.text.address
        insns = list(decode_range(image.text.data, image.text.address, begin, begin + info.size))
        last = insns[-1]
        assert last.is_ret or last.is_unconditional_jump or last.is_call or last.mnemonic in (
            "ud2",
            "hlt",
        ), info.name


def test_entry_point_is_start_function(rich_binary):
    truth = rich_binary.ground_truth
    start = truth.by_name("_start")
    assert start is not None
    assert rich_binary.image.entry_point == start.address


def test_text_layout_respects_alignment(rich_binary):
    for info in rich_binary.ground_truth.functions:
        if info.kind in ("normal", "entry", "noreturn") and info.address:
            alignment = rich_binary.plan.function(info.name).alignment
            assert info.address % alignment == 0, info.name


def test_direct_call_targets_resolve_to_planned_callees(plain_binary):
    image = plain_binary.image
    truth = plain_binary.ground_truth
    address_of = {f.name: f.address for f in truth.functions}
    for plan in plain_binary.plan.functions:
        info = truth.by_name(plan.name)
        begin = info.address - image.text.address
        insns = list(decode_range(image.text.data, image.text.address, begin, begin + info.size))
        call_targets = {i.branch_target for i in insns if i.is_call and i.branch_target}
        for callee in plan.callees:
            assert address_of[callee] in call_targets, (plan.name, callee)


def test_jump_table_data_points_into_owning_function(rich_binary):
    image = rich_binary.image
    truth = rich_binary.ground_truth
    tables = [p for p in rich_binary.plan.functions if p.jump_table_cases]
    assert tables, "fixture should contain jump tables"
    rodata = image.section(".rodata")
    for plan in tables:
        info = truth.by_name(plan.name)
        # Every pointer in .rodata that lands inside this function must point
        # within its body (they are its jump-table entries).
        in_function = [
            int.from_bytes(rodata.data[offset : offset + 8], "little")
            for offset in range(0, len(rodata.data) - 7, 8)
            if info.address
            <= int.from_bytes(rodata.data[offset : offset + 8], "little")
            < info.address + info.size
        ]
        assert len(in_function) >= plan.jump_table_cases


def test_clang_profile_uses_int3_padding(clang_binary):
    text = clang_binary.image.text.data
    assert b"\xcc\xcc\xcc\xcc" in text


def test_stripped_plan_produces_no_symbols(stripped_binary):
    assert stripped_binary.image.symbols == []
    assert stripped_binary.image.has_eh_frame


def test_compilation_is_deterministic(gcc_o2_profile):
    traits = WorkloadTraits(mean_functions=30)
    first = compile_program(
        plan_program("determinism", gcc_o2_profile, seed=5, traits=traits)
    )
    second = compile_program(
        plan_program("determinism", gcc_o2_profile, seed=5, traits=traits)
    )
    assert first.elf_bytes == second.elf_bytes
    assert first.ground_truth.function_starts == second.ground_truth.function_starts


def test_different_seeds_produce_different_binaries(gcc_o2_profile):
    traits = WorkloadTraits(mean_functions=30)
    first = compile_program(plan_program("seeded", gcc_o2_profile, seed=1, traits=traits))
    second = compile_program(plan_program("seeded", gcc_o2_profile, seed=2, traits=traits))
    assert first.image.text.data != second.image.text.data


def test_unresolved_relocation_raises(gcc_o2_profile):
    plan = ProgramPlan(name="broken", profile=gcc_o2_profile)
    plan.functions = [FunctionPlan(name="lonely", callees=["missing_function"])]
    with pytest.raises(KeyError):
        compile_program(plan)


def test_bad_fde_offset_is_reflected_in_eh_frame(gcc_o2_profile):
    plan = ProgramPlan(name="badfde", profile=gcc_o2_profile)
    plan.functions = [
        FunctionPlan(name="_start", kind="entry", callees=["victim"], body_statements=2),
        FunctionPlan(name="victim", frame="rbp", bad_fde_offset=2, body_statements=3),
    ]
    binary = compile_program(plan)
    truth = binary.ground_truth.by_name("victim")
    fde_starts = {f.pc_begin for f in binary.image.fdes}
    assert truth.address not in fde_starts
    assert truth.address + 2 in fde_starts


def test_cold_part_cfa_starts_at_parent_stack_depth(rich_binary):
    image = rich_binary.image
    truth = rich_binary.ground_truth
    for info in truth.functions:
        if not info.cold_part_addresses or info.frame != "rsp":
            continue
        for cold in info.cold_part_addresses:
            fde = image.fde_covering(cold)
            assert fde is not None and fde.pc_begin == cold
            table = CfaTable(fde)
            height = table.stack_height_at(cold)
            assert height is not None and height > 0
