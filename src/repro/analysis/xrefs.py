"""Function-pointer collection and validation (§IV-E of the paper).

The collection is deliberately a super-set: every consecutive 8 bytes of the
data sections and of the non-disassembled text regions is treated as a
candidate pointer, and every constant found in already-disassembled code is
added as well.  A candidate only becomes a function start after the
validation step re-disassembles from it and observes none of the four error
classes (invalid opcode, overlap with existing instructions, control transfer
into the middle of a previously-detected function, calling-convention
violation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.gaps import compute_gaps
from repro.analysis.result import DisassemblyResult
from repro.elf.image import BinaryImage
from repro.x86.instruction import (
    _F_CALL,
    _F_CALL_OR_JUMP,
    _F_COND_JUMP,
    _F_RET,
    _F_UNCOND_JUMP,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext

_VALIDATION_INSTRUCTION_LIMIT = 600


def collect_potential_pointers(
    image: BinaryImage,
    result: DisassemblyResult,
    *,
    context: "AnalysisContext",
) -> set[int]:
    """Collect the conservative super-set of potential function pointers.

    The data-section sliding-window scan depends only on the image, so it is
    computed once per binary on ``context``; the gap scan and the code
    constants depend on ``result`` and are memoized on the result itself
    (keyed by its monotonically-growing instruction/constant counts, so the
    pipeline's repeat calls over an unchanged disassembly reuse the scan).
    """
    state = (len(result.instructions), len(result.code_constants))
    cached = result._pointer_scan_cache
    if cached is not None and cached[0] == state:
        return set(cached[1])

    from repro.core.context import scan_pointer_windows

    candidates = set(context.data_pointer_candidates())

    for gap_start, gap_end in compute_gaps(image, result):
        section = image.section_containing(gap_start)
        if section is None:
            continue
        data = section.data
        begin = gap_start - section.address
        end = min(gap_end, section.end_address) - section.address
        scan_pointer_windows(data, begin, max(end - 7, begin), image, candidates)

    for constant in result.code_constants:
        if image.is_executable_address(constant):
            candidates.add(constant)
    result._pointer_scan_cache = (state, frozenset(candidates))
    return candidates


def validate_function_pointer(
    image: BinaryImage,
    address: int,
    result: DisassemblyResult,
    known_starts: set[int],
    *,
    context: "AnalysisContext",
) -> bool:
    """Validate a candidate function pointer by conservative re-disassembly.

    Implements the four error checks of §IV-E.  ``known_starts`` are the
    function starts detected before pointer validation.
    """
    if address in known_starts or address in result.instructions:
        return False
    if not image.is_executable_address(address):
        return False
    if result.is_inside_instruction(address):
        return False
    if not context.calling_convention_ok(address):
        return False

    decode = context.decode
    visited: set[int] = set()
    worklist = [address]
    budget = _VALIDATION_INSTRUCTION_LIMIT
    while worklist and budget > 0:
        current = worklist.pop()
        while current is not None and budget > 0:
            if current in visited or current in result.instructions:
                break
            budget -= 1
            insn = decode(current)
            if insn is None:
                return False
            if result.is_inside_instruction(current):
                return False
            visited.add(current)

            flags = insn._flags
            if flags & _F_RET or insn.mnemonic in ("ud2", "hlt"):
                break
            target = insn.branch_target
            if target is not None and flags & _F_CALL_OR_JUMP:
                if _lands_inside_function(target, known_starts, result):
                    return False
            if flags & _F_CALL:
                current = insn.end
                continue
            if flags & _F_UNCOND_JUMP:
                if target is None:
                    break
                current = target
                continue
            if flags & _F_COND_JUMP:
                if target is not None and target not in visited:
                    worklist.append(target)
                current = insn.end
                continue
            current = insn.end
    return True


def _lands_inside_function(
    target: int,
    known_starts: set[int],
    result: DisassemblyResult,
) -> bool:
    """Whether a transfer lands strictly inside a previously-detected function.

    Jumping to a detected function *start* is fine (an ordinary call or tail
    call); landing in the middle of an already-decoded instruction, or at an
    instruction that belongs to an existing function but is not a function
    start, indicates the candidate pointer is bogus.
    """
    if target in known_starts:
        return False
    if result.is_inside_instruction(target):
        return True
    return target in result.instructions
