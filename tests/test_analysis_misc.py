"""Tests for calling-convention validation, gaps, xrefs, prologue matching,
linear scan, stack-height analysis and gadget counting."""

from repro.analysis import (
    RecursiveDisassembler,
    collect_potential_pointers,
    compute_gaps,
    satisfies_calling_convention,
    validate_function_pointer,
)
from repro.analysis.gadgets import count_rop_gadgets
from repro.analysis.linearscan import linear_scan_gaps
from repro.analysis.prologue import match_prologues
from repro.analysis.stackheight import StackHeightAnalysis
from repro.core.context import AnalysisContext
from repro.core.fde_source import extract_fde_starts
from repro.dwarf.cfa_table import CfaTable


def disassemble(binary):
    disassembler = RecursiveDisassembler(binary.image, context=AnalysisContext(binary.image))
    return disassembler.disassemble(extract_fde_starts(binary.image))


# ----------------------------------------------------------------------
# Calling convention validation
# ----------------------------------------------------------------------

def test_true_function_entries_satisfy_calling_conventions(rich_binary):
    image = rich_binary.image
    context = AnalysisContext(image)
    for info in rich_binary.ground_truth.functions:
        if info.violates_callconv or info.kind == "terminate":
            continue
        assert satisfies_calling_convention(image, info.address, context=context), info.name


def test_callconv_violating_functions_are_rejected(gcc_o2_profile):
    from repro.synth import compile_program
    from repro.synth.plan import FunctionPlan, ProgramPlan

    plan = ProgramPlan(name="violators", profile=gcc_o2_profile)
    plan.functions = [
        FunctionPlan(name="_start", kind="entry", callees=["clean", "dirty"], body_statements=2),
        FunctionPlan(name="clean", arg_count=2, body_statements=4),
        FunctionPlan(name="dirty", arg_count=2, body_statements=4, violates_callconv=True),
    ]
    binary = compile_program(plan)
    clean = binary.ground_truth.by_name("clean")
    dirty = binary.ground_truth.by_name("dirty")
    context = AnalysisContext(binary.image)
    assert satisfies_calling_convention(binary.image, clean.address, context=context)
    assert not satisfies_calling_convention(binary.image, dirty.address, context=context)


def test_data_addresses_fail_validation(rich_binary):
    image = rich_binary.image
    rodata = image.section(".rodata")
    assert not satisfies_calling_convention(
        image, rodata.address, context=AnalysisContext(image)
    )


# ----------------------------------------------------------------------
# Gaps
# ----------------------------------------------------------------------

def test_gaps_do_not_overlap_disassembled_instructions(rich_binary):
    result = disassemble(rich_binary)
    gaps = compute_gaps(rich_binary.image, result)
    covered = {a for insn in result.instructions.values() for a in range(insn.address, insn.end)}
    for start, end in gaps:
        assert start < end
        assert not (covered & set(range(start, min(end, start + 64))))


def test_gaps_cover_data_in_text_blobs(rich_binary):
    result = disassemble(rich_binary)
    gaps = compute_gaps(rich_binary.image, result)
    total_gap_bytes = sum(end - start for start, end in gaps)
    blob_bytes = sum(len(blob) for blob in rich_binary.plan.data_in_text)
    assert total_gap_bytes >= blob_bytes


# ----------------------------------------------------------------------
# Pointer collection and validation (§IV-E)
# ----------------------------------------------------------------------

def test_pointer_collection_finds_data_slot_targets(rich_binary):
    result = disassemble(rich_binary)
    pointers = collect_potential_pointers(
        rich_binary.image, result, context=AnalysisContext(rich_binary.image)
    )
    for slot_target in rich_binary.plan.data_pointers.values():
        info = rich_binary.ground_truth.by_name(slot_target)
        assert info.address in pointers, slot_target


def test_pointer_validation_accepts_indirect_only_functions(rich_binary):
    image = rich_binary.image
    result = disassemble(rich_binary)
    detected = set(result.functions) | result.call_targets
    context = AnalysisContext(image)
    accepted = 0
    for info in rich_binary.ground_truth.functions:
        if info.reachable_via == "indirect" and not info.has_fde and not info.violates_callconv:
            assert validate_function_pointer(
                image, info.address, result, detected, context=context
            ), info.name
            accepted += 1
    assert accepted >= 0  # presence depends on the fixture's RNG draw


def test_pointer_validation_rejects_existing_and_mid_instruction_addresses(rich_binary):
    image = rich_binary.image
    result = disassemble(rich_binary)
    detected = set(result.functions) | result.call_targets
    context = AnalysisContext(image)
    some_start = next(iter(result.functions))
    assert not validate_function_pointer(image, some_start, result, detected, context=context)
    # One byte into an existing instruction stream is an overlap error.
    function = result.functions[some_start]
    insn = next(i for i in function.instructions.values() if i.size >= 2)
    assert not validate_function_pointer(
        image, insn.address + 1, result, detected, context=context
    )


def test_pointer_validation_rejects_data_blobs(rich_binary):
    image = rich_binary.image
    result = disassemble(rich_binary)
    detected = set(result.functions) | result.call_targets
    gaps = compute_gaps(image, result)
    context = AnalysisContext(image)
    # Candidate addresses inside gap blobs should overwhelmingly be rejected.
    rejected = accepted = 0
    for start, end in gaps:
        middle = start + (end - start) // 2
        if validate_function_pointer(image, middle, result, detected, context=context):
            accepted += 1
        else:
            rejected += 1
    assert rejected > accepted


# ----------------------------------------------------------------------
# Prologue matching and linear scan
# ----------------------------------------------------------------------

def test_prologue_matching_stays_inside_gaps(rich_binary):
    result = disassemble(rich_binary)
    gaps = compute_gaps(rich_binary.image, result)
    matches = match_prologues(
        rich_binary.image, gaps, context=AnalysisContext(rich_binary.image)
    )
    for address in matches:
        assert any(start <= address < end for start, end in gaps)


def test_linear_scan_reports_starts_inside_gaps_only(rich_binary):
    result = disassemble(rich_binary)
    gaps = compute_gaps(rich_binary.image, result)
    starts = linear_scan_gaps(
        rich_binary.image, gaps, context=AnalysisContext(rich_binary.image)
    )
    truth = rich_binary.ground_truth.function_starts
    for address in starts:
        assert any(start <= address < end for start, end in gaps)
    # Linear scanning of gaps must produce at least some spurious starts
    # (that is the entire point of §IV-D).
    assert starts - truth


# ----------------------------------------------------------------------
# Stack height analysis (Table IV machinery)
# ----------------------------------------------------------------------

def _reference_heights(binary, function, fde):
    table = CfaTable(fde)
    return {
        address: table.stack_height_at(address)
        for address in function.instructions
        if fde.covers(address)
    }


def test_stack_height_analysis_matches_cfi_on_simple_functions(plain_binary):
    image = plain_binary.image
    result = disassemble(plain_binary)
    fdes = {f.pc_begin: f for f in image.fdes}
    analysis = StackHeightAnalysis("dyninst")
    compared = 0
    for info in plain_binary.ground_truth.functions:
        if info.frame != "rsp" or not info.has_fde or info.kind != "normal":
            continue
        function = result.functions.get(info.address)
        fde = fdes.get(info.address)
        if function is None or fde is None:
            continue
        table = CfaTable(fde)
        if not table.has_complete_stack_height:
            continue
        heights = analysis.analyze(function)
        reference = _reference_heights(plain_binary, function, fde)
        for address, expected in reference.items():
            observed = heights.get(address)
            if observed is not None:
                assert observed == expected, (info.name, hex(address))
                compared += 1
    assert compared > 50


def test_angr_flavor_gives_up_on_indirect_jumps(rich_binary):
    result = disassemble(rich_binary)
    truth = rich_binary.ground_truth
    table_plans = [p for p in rich_binary.plan.functions if p.jump_table_cases]
    assert table_plans
    analysis = StackHeightAnalysis("angr")
    info = truth.by_name(table_plans[0].name)
    function = result.functions[info.address]
    heights = analysis.analyze(function)
    assert all(value is None for value in heights.values())


def test_stack_height_unknown_after_untracked_writes():
    from repro.analysis.result import DisassembledFunction
    from repro.x86.assembler import Assembler
    from repro.x86.disassembler import decode_instruction
    from repro.x86.registers import RBP, RSP

    asm = Assembler()
    blob = asm.push(RBP) + asm.mov_rr(RBP, RSP) + asm.sub_ri(RSP, 32) + asm.leave() + asm.ret()
    function = DisassembledFunction(start=0x1000)
    offset = 0
    while offset < len(blob):
        insn = decode_instruction(blob, offset, 0x1000 + offset)
        function.instructions[insn.address] = insn
        offset += insn.size
    heights = StackHeightAnalysis("dyninst").analyze(function)
    # Known before `leave`, unknown after (the frame-pointer epilogue is not
    # modelled by the static analysis — the imperfection Table IV quantifies).
    assert heights[0x1000] == 0
    assert heights[0x1000 + 1] == 8
    ret_address = max(function.instructions)
    assert heights[ret_address] is None


# ----------------------------------------------------------------------
# ROP gadget counting
# ----------------------------------------------------------------------

def test_gadget_counting_finds_ret_terminated_sequences(plain_binary):
    image = plain_binary.image
    counted = 0
    for info in plain_binary.ground_truth.functions:
        if info.kind == "normal":
            counted += count_rop_gadgets(image, info.address, window=256)
    assert counted > 0


def test_gadget_counting_zero_without_ret(plain_binary):
    image = plain_binary.image
    info = plain_binary.ground_truth.by_name("exit_impl")
    assert count_rop_gadgets(image, info.address, window=8) == 0
