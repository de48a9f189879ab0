"""The FETCH detection pipeline.

FETCH (§VI) composes four stages, every one of them switchable so the
coverage/accuracy ladders of the paper (Figure 5) can be reproduced:

1. **FDE extraction** — take every FDE ``PC Begin`` as a candidate start, and
   optionally drop candidates whose entry violates calling conventions (the
   hand-written-CFI errors of §V-A).
2. **Safe recursive disassembly** — grow the set with targets of direct calls
   (§IV-C), using conservative jump-table and noreturn handling.
3. **Function-pointer validation** — collect the conservative pointer
   super-set and accept only candidates that survive re-disassembly without
   errors (§IV-E).
4. **Algorithm 1** — detect tail calls and merge non-contiguous parts (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.recursive import RecursiveDisassembler
from repro.analysis.xrefs import collect_potential_pointers, validate_function_pointer
from repro.core.context import AnalysisContext, context_for
from repro.core.fde_source import extract_fde_starts
from repro.core.registry import register_detector
from repro.core.results import DetectionResult
from repro.core.tailcall import detect_tail_calls_and_merge
from repro.elf.image import BinaryImage


@dataclass(frozen=True)
class FetchOptions:
    """Stage toggles for the FETCH pipeline."""

    #: also seed from function symbols (the paper's tool studies do; plain
    #: FETCH does not need symbols)
    use_symbols: bool = False
    #: drop FDE starts whose entry violates calling conventions (§V-B end)
    validate_fde_starts: bool = True
    #: run safe recursive disassembly (stage 2)
    use_recursion: bool = True
    #: run function-pointer collection + validation (stage 3)
    use_pointer_validation: bool = True
    #: run Algorithm 1 tail-call detection / merging (stage 4)
    use_tail_call_analysis: bool = True


@register_detector(
    "fetch",
    options=FetchOptions,
    order=100,
    needs_eh_frame=True,
    description="FDE seeds, safe recursion, pointer validation, Algorithm 1",
)
class FetchDetector:
    """Function-start detection with exception-handling information."""

    def __init__(self, options: FetchOptions | None = None):
        self.options = options or FetchOptions()

    # ------------------------------------------------------------------
    def detect(
        self, image: BinaryImage, context: AnalysisContext | None = None
    ) -> DetectionResult:
        """Run the configured pipeline stages on ``image``.

        ``context`` shares decoded instructions, CFA tables and image scans
        with other detector runs over the same image; omitting it gives the
        run a private context with identical results.
        """
        options = self.options
        context = context_for(image, context)
        result = DetectionResult(binary_name=image.name)

        # Stage 1: FDE starts (plus symbols when requested).
        seeds = extract_fde_starts(image)
        if options.use_symbols:
            seeds |= {s.address for s in image.function_symbols}
        # No usable ``.eh_frame`` (the stripped-and-stripped-of-eh
        # scenario): seed from the entry point so recursive disassembly
        # still recovers the call-reachable functions.  Never fires when
        # FDEs are present, so EH-carrying binaries are unaffected.
        if not seeds and image.entry_point:
            seeds = {image.entry_point}
        seeds = {address for address in seeds if image.is_executable_address(address)}

        invalid_fde_starts: set[int] = set()
        if options.validate_fde_starts:
            invalid_fde_starts = context.filter_invalid_entries(seeds)
        result.record_stage("fde", seeds - invalid_fde_starts, set())
        if invalid_fde_starts:
            result.removed_by_stage["fde_validation"] = invalid_fde_starts

        if not options.use_recursion:
            return result

        # Stage 2: safe recursive disassembly.
        disassembler = RecursiveDisassembler(image, context=context)
        disassembly = disassembler.disassemble(result.function_starts)
        result.disassembly = disassembly
        recursion_added = {
            target
            for target in disassembly.call_targets
            if image.is_executable_address(target) and target not in result.function_starts
        }
        result.record_stage("recursion", recursion_added, set())

        # Stage 3: function-pointer collection and validation.
        validated_pointers: set[int] = set()
        if options.use_pointer_validation:
            candidates = collect_potential_pointers(image, disassembly, context=context)
            for candidate in sorted(candidates):
                if candidate in result.function_starts:
                    continue
                if validate_function_pointer(
                    image, candidate, disassembly, result.function_starts, context=context
                ):
                    validated_pointers.add(candidate)
            if validated_pointers:
                extension = disassembler.disassemble(validated_pointers)
                disassembly.functions.update(extension.functions)
                disassembly.instructions.update(extension.instructions)
                disassembly.call_targets.update(extension.call_targets)
                disassembly.code_constants.update(extension.code_constants)
            result.record_stage("xref", validated_pointers, set())

        # Stage 4: Algorithm 1 — tail calls and non-contiguous merging.
        if options.use_tail_call_analysis:
            outcome = detect_tail_calls_and_merge(
                image,
                disassembly,
                result.function_starts,
                extra_references=validated_pointers,
                context=context,
            )
            new_tail_targets = outcome.added_starts - result.function_starts
            if new_tail_targets:
                extension = disassembler.disassemble(new_tail_targets)
                disassembly.functions.update(extension.functions)
                disassembly.instructions.update(extension.instructions)
            result.tail_call_targets = outcome.tail_call_targets
            result.merged_parts = outcome.merged
            result.record_stage("tailcall", new_tail_targets, outcome.removed_starts)

        return result
