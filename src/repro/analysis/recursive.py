"""Safe recursive disassembly.

This is the paper's notion of a *safe* approach (§IV-C): follow only control
flow whose targets are certain, resolve indirect jumps only when they match a
proven jump-table pattern, skip indirect calls, detect non-returning callees
with an accurate fix-point analysis, and never guess.  Running it from the
addresses carried by FDEs (plus symbols) is the strategy the paper shows to
reach near-full coverage without introducing false positives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.jumptable import resolve_jump_table
from repro.analysis.result import DisassembledFunction, DisassemblyResult
from repro.elf.image import BinaryImage
from repro.x86.disassembler import decode_block  # noqa: F401 - perfbench/layers.py traces this name
from repro.x86.instruction import (
    _F_CALL,
    _F_COND_JUMP,
    _F_CONTROL,
    _F_RET,
    _F_UNCOND_JUMP,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext

_MAX_FUNCTION_INSTRUCTIONS = 20_000

#: Jump-table resolution inspects at most the trailing 24 path entries
#: (``repro.analysis.jumptable._LOOKBACK``), so the per-path history kept by
#: the traversal can be truncated to this many instructions without changing
#: any resolution outcome.
_PATH_KEEP = 32


class RecursiveDisassembler:
    """Recursive-traversal disassembler with on-demand noreturn analysis.

    The :class:`~repro.core.context.AnalysisContext` shares two levels of
    work with every other consumer of the same image:

    * the decoded spans and the instruction-decode memo (the context's dicts
      are used directly, so the hot path stays at C speed), and
    * fully-explored functions and their noreturn facts.

    Function-level sharing is restricted to *canonical* computations: the
    exploration of a function is cached only when it never leaned on the
    "assume an in-progress callee returns" escape hatch of the noreturn
    fix-point (directly or through a callee's fact).  Such computations
    depend only on the image bytes — not on which seeds the current run
    started from — so a detector produces byte-identical results with a
    shared cache and with a fresh one.  Functions on call cycles stay
    per-instance, exactly as before.
    """

    def __init__(self, image: BinaryImage, *, context: "AnalysisContext"):
        self.image = image
        self.context = context
        self._shared_functions: dict[int, DisassembledFunction] = context.function_cache
        self._shared_noreturn: dict[int, bool] = context.noreturn_facts
        self._noreturn: dict[int, bool] = {}
        self._tainted: set[int] = set()
        self._in_progress: set[int] = set()
        #: precomputed executable ranges; target checks run hot in traversal
        self._exec_bounds = image._executable_bounds

    # ------------------------------------------------------------------
    def disassemble(self, seeds: set[int]) -> DisassemblyResult:
        """Disassemble starting from ``seeds`` (function start addresses).

        Targets of direct calls discovered along the way are added as new
        function starts, matching how GHIDRA/ANGR grow coverage on top of
        FDEs (§IV-C).
        """
        result = DisassemblyResult()
        worklist = sorted(address for address in seeds if self._is_code(address))
        queued = set(worklist)

        while worklist:
            start = worklist.pop()
            function = self._disassemble_function(start)
            result.functions[start] = function
            result.instructions.update(function.instructions)
            result.call_targets.update(function.call_targets)
            result.code_constants.update(function.code_constants)
            for target in function.call_targets:
                if target not in queued and self._is_code(target):
                    queued.add(target)
                    worklist.append(target)
        return result

    # ------------------------------------------------------------------
    def is_noreturn(self, address: int) -> bool:
        """Whether the function starting at ``address`` never returns."""
        if address not in self._noreturn:
            self._disassemble_function(address)
        return self._noreturn.get(address, False)

    # ------------------------------------------------------------------
    def _is_code(self, address: int) -> bool:
        for bounds in self._exec_bounds:
            if bounds[0] <= address < bounds[1]:
                return True
        return False

    def _disassemble_function(self, start: int) -> DisassembledFunction:
        """Explore intra-procedural control flow from ``start``."""
        shared = self._shared_functions
        if start in shared and start not in self._tainted:
            # Canonical (assumption-free) computation cached for this image;
            # recomputing it is guaranteed to give the same answer.
            self._noreturn[start] = self._shared_noreturn[start]
            return shared[start]

        function = DisassembledFunction(start=start)
        if start in self._in_progress:
            return function
        self._in_progress.add(start)

        saw_ret, saw_escape, tainted = self._explore_spans(function)
        self._in_progress.discard(start)
        # A function is non-returning when no reachable path ends in `ret` and
        # no unresolved construct could hide a return.
        tail_jumps_out = any(
            j.is_unconditional_jump
            and j.branch_target is not None
            and j.branch_target not in function.instructions
            for j in function.jumps
        )
        noreturn = not saw_ret and not saw_escape and not tail_jumps_out and bool(
            function.instructions
        )
        self._noreturn[start] = noreturn
        if tainted:
            self._tainted.add(start)
        elif start not in shared:
            shared[start] = function
            self._shared_noreturn[start] = noreturn
        return function

    def _explore_spans(self, function: DisassembledFunction) -> tuple[bool, bool, bool]:
        """Span-at-a-time traversal with per-instruction semantics.

        The semantics are those of a walk one instruction at a time: record
        it, stop at ``ret``/undecodable bytes/terminators, follow direct
        jumps, queue conditional-jump targets with a copy of the path, and
        fall through returning calls.

        Spans end at the first call or terminator, so interior instructions
        carry at most conditional jumps and a span can be consumed with one
        ``dict.update`` (its conditional-jump worklist entries and code
        constants come precomputed off the span).  Every code address has a
        span (:meth:`~repro.core.context.AnalysisContext.span_at` builds a
        suffix span for a jump into the middle of one), so each step of the
        walk consumes one span.  Within a function, the visited subset of a
        span is always an address *suffix* — every walk entering a span runs
        to its end unless it hits an already-visited instruction, which ends
        a suffix — so a partly visited span is consumed as the prefix before
        its first visited instruction, after which the walk stops.

        Queueing a conditional-jump target after the bulk update instead of
        mid-walk is observationally equivalent: the only extra addresses in
        ``instructions`` at queue time are later instructions of the same
        span, and a per-instruction walk queues such forward targets only to
        pop them into an immediate already-visited break.

        Code constants are fused into the traversal (``function.
        _code_constants``) so the lazy property never re-walks instructions.

        Path snapshots for queued conditional-jump targets are captured
        lazily as ``(base_path, span_insns, position)`` and materialized
        only when the target is popped still-unvisited — most queued targets
        are consumed by fall-through first, and their snapshot lists were
        pure allocation churn.  Path lists are never mutated in place (each
        step *rebinds* ``path``), so a captured base list stays valid.
        """
        span_at = self.context.span_at
        image = self.image
        is_code = self._is_code
        instructions = function.instructions
        jumps_append = function.jumps.append
        call_targets_add = function.call_targets.add
        call_sites_append = function.call_sites.append
        constants: set[int] = set()
        start = function.start
        worklist = [start]
        path_cache: dict[int, object] = {start: []}
        saw_ret = False
        saw_escape = False
        tainted = False

        while worklist and len(instructions) < _MAX_FUNCTION_INSTRUCTIONS:
            address = worklist.pop()
            snapshot = path_cache.pop(address, None)
            if address in instructions:
                # A per-instruction walk would pop, then break immediately;
                # skipping the snapshot materialization changes nothing
                # observable.
                continue
            if snapshot is None:
                path = []
            elif snapshot.__class__ is tuple:
                base, base_insns, j = snapshot
                path = (base + base_insns[: j + 1])[-_PATH_KEEP:]
            else:
                path = snapshot
            while address not in instructions:
                span = span_at(address)
                if span is None:
                    # Non-code or undecodable first byte.
                    function.had_decode_error = True
                    break
                insns = span.insns
                if span.last_addr in instructions:
                    # Partly visited: walk the fresh prefix, which ends just
                    # before the visited suffix and so ends this path.
                    k = 1
                    while insns[k].address not in instructions:
                        k += 1
                    span = span.prefix(k)
                    insns = span.insns
                instructions.update(span.map)
                constants |= span.constants
                for j, insn in span.cond_jumps:
                    jumps_append(insn)
                    target = insn.branch_target
                    if target is not None and is_code(target):
                        if target not in instructions and target not in path_cache:
                            worklist.append(target)
                            path_cache[target] = (path, insns, j)
                last = insns[-1]
                flags = last._flags
                if flags & _F_CONTROL:
                    if flags & _F_RET:
                        saw_ret = True
                        break
                    if flags & _F_CALL:
                        target = last.branch_target
                        if target is not None:
                            call_targets_add(target)
                            call_sites_append((target, last.address))
                            returns, assumption = self._call_returns_tracked(target)
                            tainted |= assumption
                            if not returns:
                                break
                        # Direct returning call or skipped indirect call:
                        # fall through.
                        path = (path + insns)[-_PATH_KEEP:]
                        address = last.end
                        continue
                    if flags & _F_COND_JUMP:
                        # Already queued above (span truncated or cut before
                        # its visited suffix); fall through.
                        path = (path + insns)[-_PATH_KEEP:]
                        address = last.end
                        continue
                    if flags & _F_UNCOND_JUMP:
                        jumps_append(last)
                        target = last.branch_target
                        path = (path + insns)[-_PATH_KEEP:]
                        if target is not None:
                            if is_code(target):
                                address = target
                                continue
                            break
                        targets = resolve_jump_table(image, path[:-1], last)
                        if targets:
                            for table_target in targets:
                                if (
                                    table_target not in instructions
                                    and table_target not in path_cache
                                ):
                                    worklist.append(table_target)
                                    path_cache[table_target] = []
                        else:
                            saw_escape = True
                        break
                    # Remaining terminators (ud2 / hlt) end the path.
                    break
                if span.failed:
                    # Span ended on undecodable bytes right after ``last``.
                    function.had_decode_error = True
                    break
                # Span truncated by the decode budget, or cut before its
                # visited suffix: continue into the next span.
                path = (path + insns)[-_PATH_KEEP:]
                address = last.end

        function._code_constants = constants
        return saw_ret, saw_escape, tainted

    def _call_returns_tracked(self, target: int) -> tuple[bool, bool]:
        """(can the call fall through, did the answer rely on an assumption).

        The assumption flag is set when the answer leaned — directly or via a
        callee's fact — on "an in-progress function is presumed returning",
        the escape hatch that makes the fix-point's outcome depend on
        traversal order.  Callers propagate it to keep such results out of
        the shared context cache.
        """
        shared = self._shared_noreturn
        if target in shared and target not in self._tainted:
            return not shared[target], False
        if target in self._noreturn:
            return not self._noreturn[target], target in self._tainted
        if target in self._in_progress:
            return True, True
        if not self._is_code(target):
            return True, False
        self._disassemble_function(target)
        return not self._noreturn.get(target, False), target in self._tainted
