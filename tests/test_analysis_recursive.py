"""Tests for safe recursive disassembly, jump tables and noreturn analysis."""

from repro.analysis import NoreturnAnalysis, RecursiveDisassembler
from repro.core.context import AnalysisContext
from repro.core.fde_source import extract_fde_starts


def disassemble_from_fdes(binary):
    disassembler = RecursiveDisassembler(binary.image, context=AnalysisContext(binary.image))
    return disassembler, disassembler.disassemble(extract_fde_starts(binary.image))


def test_recursion_discovers_direct_call_targets(rich_binary):
    _, result = disassemble_from_fdes(rich_binary)
    truth = rich_binary.ground_truth
    reachable = {
        f.address for f in truth.functions if f.reachable_via in ("call", "entry")
    }
    assert reachable <= result.function_starts | result.call_targets


def test_recursion_does_not_invent_function_starts(rich_binary):
    _, result = disassemble_from_fdes(rich_binary)
    truth = rich_binary.ground_truth
    allowed = truth.function_starts | truth.cold_part_starts
    allowed |= {f.address + f.bad_fde_offset for f in truth.functions if f.bad_fde_offset}
    for target in result.call_targets:
        assert target in allowed, hex(target)


def test_every_decoded_instruction_is_inside_text(rich_binary):
    _, result = disassemble_from_fdes(rich_binary)
    text = rich_binary.image.text
    for address, insn in result.instructions.items():
        assert text.contains(address)
        assert insn.end <= text.end_address
        assert insn.mnemonic != "(bad)"


def test_instructions_do_not_overlap_within_a_function(plain_binary):
    _, result = disassemble_from_fdes(plain_binary)
    for function in result.functions.values():
        ordered = function.sorted_instructions
        for first, second in zip(ordered, ordered[1:]):
            assert first.end <= second.address or first.address == second.address


def test_jump_table_targets_are_followed(rich_binary):
    _, result = disassemble_from_fdes(rich_binary)
    truth = rich_binary.ground_truth
    table_functions = [p for p in rich_binary.plan.functions if p.jump_table_cases]
    assert table_functions, "fixture should contain jump tables"
    for plan in table_functions:
        info = truth.by_name(plan.name)
        function = result.functions.get(info.address)
        assert function is not None
        # The indirect jump must not be the end of exploration: the function
        # body after the switch (its ret) must have been reached.
        assert any(i.is_ret for i in function.instructions.values()), plan.name


def test_indirect_calls_are_skipped_not_followed(rich_binary):
    _, result = disassemble_from_fdes(rich_binary)
    truth = rich_binary.ground_truth
    indirect_only_asm = [
        f for f in truth.functions if f.reachable_via == "indirect" and not f.has_fde
    ]
    for info in indirect_only_asm:
        assert info.address not in result.function_starts
        assert info.address not in result.call_targets


def test_noreturn_classification_precise(rich_binary):
    disassembler, result = disassemble_from_fdes(rich_binary)
    truth = rich_binary.ground_truth
    noreturn = NoreturnAnalysis(
        rich_binary.image, mode="precise", context=disassembler.context
    ).compute(result, disassembler)
    for info in truth.functions:
        if info.kind == "noreturn":
            assert info.address in noreturn, info.name
        if info.kind == "normal" and not info.is_noreturn and info.address in result.functions:
            assert info.address not in noreturn or info.name == "_start", info.name


def test_noreturn_eager_overapproximates(rich_binary):
    disassembler, result = disassemble_from_fdes(rich_binary)
    context = disassembler.context
    precise = NoreturnAnalysis(rich_binary.image, mode="precise", context=context).compute(
        result, disassembler
    )
    eager = NoreturnAnalysis(rich_binary.image, mode="eager", context=context).compute(result)
    truth = rich_binary.ground_truth
    genuinely = {f.address for f in truth.functions if f.kind == "noreturn"}
    assert genuinely <= eager
    # Precise analysis never flags ordinary returning functions.
    ordinary = {
        info.address
        for plan in rich_binary.plan.functions
        for info in [truth.by_name(plan.name)]
        if plan.kind == "normal" and plan.noreturn_callee is None
    }
    assert not (precise & ordinary)


def test_fallthrough_stops_after_call_to_noreturn_function(rich_binary):
    disassembler, result = disassemble_from_fdes(rich_binary)
    truth = rich_binary.ground_truth
    start = truth.by_name("_start")
    function = result.functions[start.address]
    # _start ends with `call exit_impl`; the padding after it must not be
    # decoded as part of the function.
    last = max(function.instructions.values(), key=lambda i: i.address)
    assert last.is_call
    exit_info = truth.by_name("exit_impl")
    assert last.branch_target == exit_info.address


def test_disassembler_handles_non_executable_seeds(rich_binary):
    disassembler = RecursiveDisassembler(
        rich_binary.image, context=AnalysisContext(rich_binary.image)
    )
    rodata = rich_binary.image.section(".rodata")
    result = disassembler.disassemble({rodata.address})
    assert result.functions == {}


def test_code_constants_exclude_branch_targets(plain_binary):
    _, result = disassemble_from_fdes(plain_binary)
    truth = plain_binary.ground_truth
    call_reachable = {f.address for f in truth.functions if f.reachable_via == "call"}
    # Functions referenced purely by calls must not show up as "constants".
    immediate_refs = {
        f.address
        for plan in plain_binary.plan.functions
        for f in [truth.by_name(plan.name)]
        if plan.address_refs
    }
    assert not (result.code_constants & call_reachable - immediate_refs)
