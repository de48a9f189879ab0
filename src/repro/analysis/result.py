"""Result structures shared by the disassembly-based analyses."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.x86.instruction import Instruction


@dataclass
class DisassembledFunction:
    """The instructions discovered for one detected function.

    ``instructions`` maps instruction address to the decoded instruction for
    every address reached by intra-procedural control flow from ``start``.
    """

    start: int
    instructions: dict[int, Instruction] = field(default_factory=dict)
    #: addresses of direct call targets found inside this function
    call_targets: set[int] = field(default_factory=set)
    #: jump instructions (conditional or unconditional) inside this function
    jumps: list[Instruction] = field(default_factory=list)
    #: ``(target, call-site address)`` for every direct call, recorded by the
    #: traversal so reference collection never re-walks all instructions
    call_sites: list[tuple[int, int]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: whether exploration hit a decoding error
    had_decode_error: bool = False
    #: lazily-computed constants, see :attr:`code_constants`
    _code_constants: set[int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def code_constants(self) -> set[int]:
        """Address-sized constants in this function's decoded instructions.

        Branch-target immediates are control-flow references, not
        address-taking constants; they are accounted for separately.  The set
        is computed once per function — the instruction set is fixed after
        exploration — and shared by every consumer (do not mutate it).
        """
        constants = self._code_constants
        if constants is None:
            constants = set()
            add = constants.add
            update = constants.update
            for insn in self.instructions.values():
                c = insn._consts
                if c is not None:
                    if c.__class__ is int:
                        add(c)
                    else:
                        update(c)
            self._code_constants = constants
        return constants

    @property
    def addresses(self) -> set[int]:
        return set(self.instructions)

    @property
    def end(self) -> int:
        """One past the highest byte claimed by this function's instructions."""
        if not self.instructions:
            return self.start
        return max(insn.end for insn in self.instructions.values())

    def contains(self, address: int) -> bool:
        return address in self.instructions

    def covers_address(self, address: int) -> bool:
        """Whether ``address`` falls inside any instruction of this function."""
        return self.start <= address < self.end

    @property
    def sorted_instructions(self) -> list[Instruction]:
        return [self.instructions[a] for a in sorted(self.instructions)]


@dataclass
class DisassemblyResult:
    """Aggregate result of (recursive) disassembly over a binary."""

    functions: dict[int, DisassembledFunction] = field(default_factory=dict)
    #: every decoded instruction, keyed by address (across all functions)
    instructions: dict[int, Instruction] = field(default_factory=dict)
    #: all direct call targets observed
    call_targets: set[int] = field(default_factory=set)
    #: constants (immediates / RIP-relative targets) seen in decoded code
    code_constants: set[int] = field(default_factory=set)
    #: memo for :meth:`covered_ranges`, valid while no instruction is added
    _coverage_cache: tuple[int, list[tuple[int, int]]] | None = field(
        default=None, repr=False, compare=False
    )
    #: memo for :func:`repro.analysis.xrefs.collect_potential_pointers`,
    #: keyed by the (instruction count, constant count) state of this result
    #: — both only ever grow, so equal counts mean identical content
    _pointer_scan_cache: tuple[tuple[int, int], frozenset[int]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def function_starts(self) -> set[int]:
        return set(self.functions)

    def covered_ranges(self) -> list[tuple[int, int]]:
        """Sorted, merged ``[start, end)`` byte ranges of all instructions.

        Instructions are only ever *added* to a result, so the memo is keyed
        by the instruction count; gap computation between pipeline stages
        then reuses the merge instead of rescanning every instruction.
        """
        cached = self._coverage_cache
        if cached is not None and cached[0] == len(self.instructions):
            return cached[1]
        # Sort plain int keys (address order is near-sorted after traversal,
        # which Timsort exploits) and merge in one pass; building and sorting
        # (address, end) tuples instead measurably dominates gap computation.
        instructions = self.instructions
        merged: list[tuple[int, int]] = []
        append = merged.append
        run_start = run_end = None
        for address in sorted(instructions):
            if run_end is None or address > run_end:
                if run_end is not None:
                    append((run_start, run_end))
                run_start = address
                run_end = instructions[address].end
            else:
                end = instructions[address].end
                if end > run_end:
                    run_end = end
        if run_end is not None:
            append((run_start, run_end))
        self._coverage_cache = (len(self.instructions), merged)
        return merged

    def is_instruction_start(self, address: int) -> bool:
        return address in self.instructions

    def is_inside_instruction(self, address: int) -> bool:
        """True when ``address`` falls strictly inside a decoded instruction."""
        if address in self.instructions:
            return False
        for delta in range(1, 15):
            insn = self.instructions.get(address - delta)
            if insn is not None and insn.end > address:
                return True
        return False
