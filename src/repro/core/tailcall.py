"""Algorithm 1: tail-call detection and function-part merging (§V-B).

Call frames give a false function start for every non-beginning part of a
non-contiguous function.  The fix exploits the observation that distant parts
of the same function are connected by a jump that *cannot* be a tail call.  A
jump is accepted as a tail call only under three restrictive criteria:

1. the stack pointer at the jump site sits right below the return address
   (stack height 0, taken from the CFI rows, never from static analysis);
2. the jump target satisfies the conservative calling-convention check;
3. the target is not referenced anywhere except by jumps inside the current
   function.

Jumps that fail the tail-call test but whose target has its own FDE and no
other reference are merges: the target part belongs to the current function.
Functions whose CFI does not give complete stack-height information are
skipped entirely (conservativeness), which is where the paper's residual
false positives come from.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.analysis.result import DisassemblyResult
from repro.analysis.xrefs import collect_potential_pointers
from repro.dwarf.cfa_table import CfaTable
from repro.dwarf.structs import FdeRecord
from repro.elf.image import BinaryImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext


@dataclass
class TailCallOutcome:
    """Result of running Algorithm 1 over a binary."""

    #: targets of detected tail calls (new or confirmed function starts)
    tail_call_targets: set[int] = field(default_factory=set)
    #: merged part start -> function start it was merged into
    merged: dict[int, int] = field(default_factory=dict)
    #: function starts skipped because their CFI lacks complete stack heights
    skipped_functions: set[int] = field(default_factory=set)

    @property
    def removed_starts(self) -> set[int]:
        return set(self.merged)

    @property
    def added_starts(self) -> set[int]:
        return set(self.tail_call_targets)


def detect_tail_calls_and_merge(
    image: BinaryImage,
    disassembly: DisassemblyResult,
    function_starts: set[int],
    *,
    extra_references: set[int] | None = None,
    require_zero_stack_height: bool = True,
    require_calling_convention: bool = True,
    require_unreferenced_target: bool = True,
    context: "AnalysisContext",
) -> TailCallOutcome:
    """Run Algorithm 1.

    Args:
        image: the binary under analysis.
        disassembly: recursive-disassembly state covering ``function_starts``.
        function_starts: the currently detected function starts.
        extra_references: additional referenced addresses (e.g. validated
            function pointers) to include in the reference map.
        require_zero_stack_height: criterion 1 of the tail-call test.  The
            remaining ``require_*`` flags toggle criteria 2 and 3; they exist
            for the ablation benchmarks and default to the paper's algorithm.
        context: the binary's shared analysis state (CFA rows, pointer scan,
            calling-convention verdicts).

    Returns:
        The tail-call targets found and the merges performed.
    """
    outcome = TailCallOutcome()
    fdes_by_start = {fde.pc_begin: fde for fde in image.fdes}
    references = _collect_references(
        image, disassembly, extra_references or set(), context=context
    )

    for start in sorted(function_starts):
        function = disassembly.functions.get(start)
        fde = fdes_by_start.get(start)
        if function is None or fde is None:
            continue
        table = context.cfa_table(fde)
        if not table.has_complete_stack_height:
            outcome.skipped_functions.add(start)
            continue

        for jump in function.jumps:
            target = jump.branch_target
            if target is None:
                continue
            if not fde.covers(jump.address):
                # Recursive disassembly follows tail calls into other
                # functions, so ``function.jumps`` can contain jumps that
                # belong to a different function's body; Algorithm 1 only
                # reasons about jumps inside this function's own FDE range.
                continue
            if fde.covers(target):
                continue  # a jump inside the function's own contiguous range
            if not image.is_executable_address(target):
                continue

            is_tail_call = False
            height = _height_at(table, jump.address, fde)
            if height == 0 or not require_zero_stack_height:
                only_local_jumps = (
                    _only_referenced_by_local_jumps(target, start, function, references)
                    or not require_unreferenced_target
                )
                convention_ok = (
                    context.calling_convention_ok(target)
                    or not require_calling_convention
                )
                if only_local_jumps and convention_ok:
                    outcome.tail_call_targets.add(target)
                    is_tail_call = True

            if is_tail_call:
                continue
            if target not in function_starts or target in outcome.merged:
                continue
            if target not in fdes_by_start:
                continue  # merging only applies to FDE-backed parts
            if _only_referenced_by_local_jumps(target, start, function, references):
                outcome.merged[target] = start

    return outcome


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _height_at(table: CfaTable, address: int, fde: FdeRecord) -> int | None:
    if fde.covers(address):
        return table.stack_height_at(address)
    # The jump may live in an already-merged distant part; be conservative.
    return None


def _collect_references(
    image: BinaryImage,
    disassembly: DisassemblyResult,
    extra: set[int],
    *,
    context: "AnalysisContext",
) -> dict[int, list[tuple[str, int]]]:
    """Map target address -> list of (kind, source) references.

    Call and jump references come from the per-function records the
    traversal keeps (``call_sites`` / ``jumps``) instead of a walk over
    every decoded instruction: each control-transfer instruction in a
    function's instruction set was processed by that function's walk, so
    the per-function lists cover exactly the referencing instructions.  An
    instruction shared by several functions contributes one entry per
    function; the duplicate ``(kind, source)`` entries cannot change any
    criterion-3 verdict, which quantifies over the entries of one target.
    """
    references: defaultdict[int, list[tuple[str, int]]] = defaultdict(list)

    for function in disassembly.functions.values():
        for target, source in function.call_sites:
            references[target].append(("call", source))
        for insn in function.jumps:
            target = insn.branch_target
            if target is not None:
                references[target].append(("jump", insn.address))

    for constant in disassembly.code_constants:
        if image.is_executable_address(constant):
            references[constant].append(("constant", -1))

    for pointer in collect_potential_pointers(image, disassembly, context=context):
        references[pointer].append(("data", -1))

    for address in extra:
        references[address].append(("extra", -1))
    return references


def _only_referenced_by_local_jumps(
    target: int,
    function_start: int,
    function,
    references: dict[int, list[tuple[str, int]]],
) -> bool:
    """Criterion 3: every reference to ``target`` is a jump inside ``function``."""
    for kind, source in references.get(target, []):
        if kind != "jump":
            return False
        if source not in function.instructions:
            return False
    return True
