"""Shared per-binary analysis state: decode-once caching across detectors.

Running the paper's evaluation means pointing many detectors — the FETCH
pipeline plus nine baseline tool models, each at several strategy-ladder
rungs — at the *same* binary.  Every one of those runs decodes largely the
same instructions, evaluates the same CFI programs and rescans the same data
sections.  :class:`AnalysisContext` is the per-:class:`BinaryImage` object
that owns all of that derived state, in the spirit of angr's knowledge base
or Ghidra's program database:

* a memoized instruction-decode cache keyed by virtual address (the decode of
  an address is a pure function of the image bytes, so the cache is safe to
  share between arbitrary consumers);
* memoized calling-convention verdicts (§IV-E entry checks);
* evaluated CFA row tables per FDE (§V-B stack heights);
* standalone noreturn facts per function start;
* the image-wide scan products the gap probers reuse: the §IV-E sliding
  window pointer super-set over data sections, the aligned pointer sweep, and
  per-pattern prologue match positions over the executable sections;
* memoized ROP-gadget counts and stack-height analyses.

Only state that is *order-independent* — a pure function of the image — is
cached here, which is what guarantees that a detector produces byte-identical
results with a shared context and with a fresh one (enforced by
``tests/test_analysis_context.py``).  Per-run state such as recursive
traversal worklists stays inside the consumers.

A context is not thread-safe; the parallel corpus evaluation in
:mod:`repro.eval.runner` keeps one context per binary and never shares one
binary between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.dwarf.cfa_table import CfaTable
from repro.dwarf.structs import FdeRecord
from repro.elf.image import BinaryImage
from repro.x86.disassembler import decode_block
from repro.x86.instruction import (
    _F_CALL,
    _F_COND_JUMP,
    _F_RET,
    _F_TERMINATOR,
    _F_UNCOND_JUMP,
    Instruction,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.recursive import RecursiveDisassembler

#: Span decode stops wherever the recursive traversal can break a
#: fall-through run: terminators end a span, and so do calls (a noreturn
#: callee stops the walk mid-stream).  Bounding spans this way is what lets
#: the traversal consume a span in bulk with per-instruction semantics:
#: within a span, only conditional jumps need individual attention.
_SPAN_STOP = _F_TERMINATOR | _F_CALL

#: Default decode budget per span build; bounds the decode overshoot when a
#: consumer abandons a span early (the calling-convention walk additionally
#: caps builds by its remaining instruction budget).
_SPAN_COUNT = 64

#: Shared singletons for spans without conditional jumps / without constants
#: (a large fraction of all spans) — read-only to every consumer.
_NO_COND_JUMPS: tuple = ()
_NO_CONSTANTS: frozenset[int] = frozenset()


class DecodedSpan:
    """One decoded fall-through run: a ``decode_block`` result plus the
    per-instruction facts the analysis walks would otherwise recompute.

    A span covers consecutive instructions up to (and including) the first
    call or terminator, or up to the decode budget / first undecodable byte.
    All bulk-consumption facts are produced by one indexing pass at
    construction — ``map`` feeds ``dict.update`` during bulk traversal,
    ``cond_jumps`` lists the interior conditional jumps (the only control
    flow a span can contain) as ``(position, instruction)``, and
    ``constants`` applies exactly the rule of
    :attr:`repro.analysis.result.DisassembledFunction.code_constants` to the
    span's instructions.  Only :meth:`cc_summary` stays lazy: callconv facts
    are needed for the fraction of spans that sit at checked entry points.
    """

    __slots__ = ("insns", "map", "cond_jumps", "constants", "last_addr", "failed", "cc")

    def __init__(self, insns: list[Instruction], failed: bool):
        self.insns = insns
        self.failed = failed
        self.last_addr = insns[-1].address
        self.cc: tuple[list[int], int, int, int] | None = None
        # One pass produces every bulk-consumption fact at once; a second
        # walk per fact was a measurable share of span-build time.  The
        # per-instruction constant contribution comes precomputed off
        # ``Instruction._consts``, and the shared empty singletons avoid
        # allocating a list and a set for the many spans that carry neither
        # conditional jumps nor constants.
        self.map = span_map = {}
        self.cond_jumps = cond_jumps = _NO_COND_JUMPS
        self.constants = constants = _NO_CONSTANTS
        for i, insn in enumerate(insns):
            span_map[insn.address] = insn
            if insn._flags & _F_COND_JUMP:
                if cond_jumps is _NO_COND_JUMPS:
                    self.cond_jumps = cond_jumps = []
                cond_jumps.append((i, insn))
            c = insn._consts
            if c is not None:
                if constants is _NO_CONSTANTS:
                    self.constants = constants = set()
                if c.__class__ is int:
                    constants.add(c)
                else:
                    constants.update(c)

    def prefix(self, k: int) -> "DecodedSpan":
        """The first ``k`` instructions as a new, unindexed span (it ends
        before a stop instruction, so it never counts as failed)."""
        return DecodedSpan(self.insns[:k], False)

    def cc_summary(self) -> tuple[list[int], int, int, int]:
        """``(masked, need_total, writes_total, kind)`` for the §IV-E walk.

        ``masked[k]`` is the k-th checked instruction's read-set minus
        everything written earlier in the span (and minus ``push``'d
        registers); an entry violates iff ``masked[k] & ~initialized``.
        ``kind`` 0: the span terminal accepts the walk (ret/call/ud2/hlt —
        its own reads are never checked), 1: ends in an unconditional jump
        (checked, then followed), 2: plain truncation (walk continues at the
        span end).
        """
        cc = self.cc
        if cc is None:
            from repro.analysis.callconv import _STOP_MNEMONICS, adjusted_entry_masks

            insns = self.insns
            last = insns[-1]
            lflags = last._flags
            if lflags & (_F_RET | _F_CALL) or (
                lflags & _F_TERMINATOR
                and not lflags & _F_UNCOND_JUMP
                and last.mnemonic in _STOP_MNEMONICS
            ):
                kind = 0
                checked = insns[:-1]
            elif lflags & _F_UNCOND_JUMP:
                kind = 1
                checked = insns
            else:
                kind = 2
                checked = insns
            masked: list[int] = []
            append = masked.append
            written = 0
            need_total = 0
            for insn in checked:
                masks = adjusted_entry_masks(insn)
                need = (masks >> 16) & ~written
                append(need)
                need_total |= need
                written |= masks & 0xFFFF
            cc = self.cc = (masked, need_total, written, kind)
        return cc


class DecodeCache(dict):
    """``address -> Instruction | None`` map with hit/miss counters.

    ``None`` records a remembered decode failure.  All dict operations stay
    at C speed — the counters are maintained explicitly by
    :meth:`AnalysisContext.decode`, the bookkeeping access path; bulk
    consumers (recursive traversal, linear sweeps) share the dict directly
    and show up in :attr:`AnalysisContext.stats` via the cache size instead.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0


@dataclass
class ContextStats:
    """Aggregate cache statistics, for benchmark records and tests."""

    decode_hits: int = 0
    decode_misses: int = 0
    cached_instructions: int = 0
    cached_functions: int = 0
    cached_cfa_tables: int = 0
    cached_callconv_checks: int = 0
    cached_noreturn_facts: int = 0
    cached_spans: int = 0

    @property
    def decode_hit_ratio(self) -> float:
        total = self.decode_hits + self.decode_misses
        return self.decode_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "decode_hits": self.decode_hits,
            "decode_misses": self.decode_misses,
            "decode_hit_ratio": round(self.decode_hit_ratio, 4),
            "cached_instructions": self.cached_instructions,
            "cached_functions": self.cached_functions,
            "cached_cfa_tables": self.cached_cfa_tables,
            "cached_callconv_checks": self.cached_callconv_checks,
            "cached_noreturn_facts": self.cached_noreturn_facts,
            "cached_spans": self.cached_spans,
        }


class AnalysisContext:
    """Memoized analysis state for one :class:`BinaryImage`."""

    def __init__(self, image: BinaryImage):
        self.image = image
        #: the shared decode memo; safe to hand to ``decode_instruction(cache=...)``
        self.decode_cache = DecodeCache()
        #: canonical fully-explored functions, keyed by start address.  Only
        #: assumption-free (order-independent) explorations are stored here —
        #: see :class:`repro.analysis.recursive.RecursiveDisassembler`.
        self.function_cache: dict[int, object] = {}
        #: noreturn facts for every entry of :attr:`function_cache`
        self.noreturn_facts: dict[int, bool] = {}
        self._callconv: dict[int, bool] = {}
        self._cfa_tables: dict[tuple[int, int], CfaTable] = {}
        self._noreturn: dict[int, bool] = {}
        self._data_pointers: set[int] | None = None
        self._aligned_pointers: set[int] | None = None
        self._text_matches: dict[tuple[bytes, ...], dict[bytes, list[int]]] = {}
        self._gadget_counts: dict[int, int] = {}
        self._stack_heights: dict[tuple[str, int, frozenset[int]], dict[int, int | None]] = {}
        self._last_exec_section = None
        self._last_exec_lo = 0
        self._last_exec_hi = 0
        #: decoded-span index, keyed by each span's first instruction.  Any
        #: decodable code address can start a span: an address inside an
        #: already-built span gets its own suffix span on first request
        #: (built from decode-cache hits alone), so interior addresses are
        #: indexed only once a walk actually enters there.
        self._span_index: dict[int, DecodedSpan] = {}
        self._span_builds = 0

    # ------------------------------------------------------------------
    # Instruction decoding
    # ------------------------------------------------------------------
    def decode(self, address: int) -> Instruction | None:
        """Decode the instruction at ``address``, memoized.

        Returns ``None`` both for undecodable bytes and for addresses outside
        executable sections — the distinction never matters to consumers, all
        of which treat either case as "not code".
        """
        cache = self.decode_cache
        try:
            hit = cache[address]
        except KeyError:
            pass
        else:
            cache.hits += 1
            return hit
        cache.misses += 1
        span = self._build_span(address)
        if span is None:
            # A decode failure was stored as ``None`` by decode_block;
            # non-executable addresses were recorded by _build_span.
            return cache.get(address)
        return span.insns[0]

    def _build_span(self, address: int, count: int = _SPAN_COUNT) -> DecodedSpan | None:
        """Decode a new span starting at ``address`` and index it.

        ``address`` may lie inside an existing span; the new span then
        re-reads that span's tail from :attr:`decode_cache`.  Returns
        ``None`` when ``address`` is outside executable code (a ``None``
        decode verdict is then cached) or undecodable at the first
        instruction (decode_block cached or replayed the failure).
        """
        cache = self.decode_cache
        # Code queries cluster heavily within one section, so remember the
        # last executable section before falling back to the binary search.
        section = self._last_exec_section
        if section is None or not (self._last_exec_lo <= address < self._last_exec_hi):
            section = self.image.section_containing(address)
            if section is None or not section.is_executable:
                cache.setdefault(address, None)
                return None
            self._last_exec_section = section
            self._last_exec_lo = section.address
            self._last_exec_hi = section.end_address
        insns, failed = decode_block(
            section.data,
            address - section.address,
            address,
            count,
            cache=cache,
            stop_flags=_SPAN_STOP,
        )
        if not insns:
            return None
        span = DecodedSpan(insns, failed)
        self._span_index[address] = span
        self._span_builds += 1
        return span

    def span_at(self, address: int, count: int = _SPAN_COUNT) -> DecodedSpan | None:
        """The span starting exactly at ``address``, building one on a miss.

        Every decodable code address has a span: an already-decoded address
        that no span starts at (a jump into the middle of a span, or an
        instruction a linear sweep decoded) gets a suffix span whose
        instructions are all decode-cache hits.  Returns ``None`` only when
        ``address`` lies outside executable code or its bytes do not decode.
        """
        cache = self.decode_cache
        span = self._span_index.get(address)
        if span is not None:
            cache.hits += 1
            return span
        if address in cache:
            cache.hits += 1
        else:
            cache.misses += 1
        return self._build_span(address, count)

    # ------------------------------------------------------------------
    # Pure per-address facts
    # ------------------------------------------------------------------
    def calling_convention_ok(self, address: int) -> bool:
        """Memoized §IV-E calling-convention check at ``address``."""
        verdict = self._callconv.get(address)
        if verdict is None:
            verdict = self._callconv[address] = self._convention_via_spans(address)
        return verdict

    def _convention_via_spans(self, address: int) -> bool:
        """The §IV-E walk (:mod:`repro.analysis.callconv`), one span at a time.

        Each span is judged from its memoized ``cc_summary`` — O(1) when no
        prefix-masked read can violate.  The walk follows fall-through and
        direct unconditional jumps for at most ``_DEFAULT_LIMIT``
        instructions; a jump into the middle of a span simply enters that
        address's suffix span.  Reaching non-code or undecodable bytes is a
        violation.
        """
        from repro.analysis.callconv import _DEFAULT_LIMIT, _ENTRY_INITIALIZED_MASK

        # ``initialized`` always contains RSP/RBP, so the violation test
        # reduces to a plain subset check over the read-set.  Cycles need a
        # backward unconditional jump (fall-through addresses strictly
        # increase), so loop detection only remembers jump targets; a
        # re-walked instruction cannot add a violation because
        # ``initialized`` only grows.
        initialized = _ENTRY_INITIALIZED_MASK
        budget = _DEFAULT_LIMIT
        jump_targets: set[int] | None = None
        span_at = self.span_at
        current = address
        while True:
            if budget <= 0:
                return True
            # Span builds are capped by the remaining budget so
            # callconv-initiated decodes never overshoot the instructions the
            # walk can check.
            span = span_at(current, budget)
            if span is None:
                return False
            masked, need_total, writes_total, kind = span.cc_summary()
            checked = len(masked)
            if need_total & ~initialized:
                limit = budget if budget < checked else checked
                for k in range(limit):
                    if masked[k] & ~initialized:
                        return False
            if budget <= checked:
                return True
            initialized |= writes_total
            budget -= checked
            if kind == 0:
                return True
            last = span.insns[-1]
            if kind == 1:
                target = last.branch_target
                if target is None:
                    return True
                if jump_targets is None:
                    jump_targets = set()
                if target in jump_targets:
                    return True
                jump_targets.add(target)
                current = target
                continue
            current = last.end

    def filter_invalid_entries(self, seeds: Iterable[int]) -> set[int]:
        """Seed addresses that *fail* the §IV-E calling-convention check.

        The pipeline's stage-1 filter; verdicts share the per-address memo
        with every other consumer.
        """
        convention_ok = self.calling_convention_ok
        return {address for address in seeds if not convention_ok(address)}

    def cfa_table(self, fde: FdeRecord) -> CfaTable:
        """The evaluated CFI row table of ``fde``, memoized per PC range."""
        key = (fde.pc_begin, fde.pc_end)
        table = self._cfa_tables.get(key)
        if table is None:
            table = CfaTable(fde)
            self._cfa_tables[key] = table
        return table

    def is_noreturn(self, start: int) -> bool:
        """Standalone noreturn fact for the function starting at ``start``.

        Each query runs on a fresh disassembler (decoding and canonical
        functions still come from this context), so the answer never depends
        on what was queried before.  Only assumption-free facts — functions
        off call cycles — are memoized; a cycle member's verdict depends on
        where its exploration entered the cycle, so it is recomputed from
        the same fresh state every time instead of being frozen.
        """
        fact = self.noreturn_facts.get(start)
        if fact is not None:
            return fact
        fact = self._noreturn.get(start)
        if fact is not None:
            return fact
        from repro.analysis.recursive import RecursiveDisassembler

        disassembler = RecursiveDisassembler(self.image, context=self)
        fact = disassembler.is_noreturn(start)
        if start not in disassembler._tainted:
            self._noreturn[start] = fact
        return fact

    def gadget_count(self, address: int) -> int:
        """Memoized ROP-gadget count at ``address`` (§V-A measurement)."""
        from repro.analysis.gadgets import count_rop_gadgets

        count = self._gadget_counts.get(address)
        if count is None:
            count = count_rop_gadgets(self.image, address, cache=self.decode_cache)
            self._gadget_counts[address] = count
        return count

    def stack_heights(self, flavor: str, function) -> dict[int, int | None]:
        """Memoized stack-height analysis of a disassembled function.

        The key includes the exact instruction address set: instructions at
        given addresses are a pure function of the image bytes, so two
        functions with the same start and address set analyse identically.
        """
        from repro.analysis.stackheight import StackHeightAnalysis

        key = (flavor, function.start, frozenset(function.instructions))
        heights = self._stack_heights.get(key)
        if heights is None:
            heights = StackHeightAnalysis(flavor).analyze(function)
            self._stack_heights[key] = heights
        return heights

    # ------------------------------------------------------------------
    # Image-wide scan products
    # ------------------------------------------------------------------
    def data_pointer_candidates(self) -> set[int]:
        """The §IV-E sliding-window pointer super-set over data sections.

        Every consecutive 8 bytes of every data section, kept when the value
        lands in executable code.  This is the image-only part of
        :func:`repro.analysis.xrefs.collect_potential_pointers`.
        """
        if self._data_pointers is None:
            image = self.image
            candidates: set[int] = set()
            for section in image.data_sections:
                data = section.data
                scan_pointer_windows(data, 0, max(len(data) - 7, 0), image, candidates)
            self._data_pointers = candidates
        return self._data_pointers

    def aligned_data_pointers(self) -> set[int]:
        """Executable targets of 8-byte-aligned data-section slots.

        The conservative pointer sweep the IDA- and Binary-Ninja-style
        baselines run, before their per-run filtering.
        """
        if self._aligned_pointers is None:
            is_executable = self.image.is_executable_address
            pointers: set[int] = set()
            for section in self.image.data_sections:
                data = section.data
                for offset in range(0, len(data) - 7, 8):
                    value = int.from_bytes(data[offset : offset + 8], "little")
                    if is_executable(value):
                        pointers.add(value)
            self._aligned_pointers = pointers
        return self._aligned_pointers

    def text_pattern_matches(
        self, patterns: Iterable[bytes]
    ) -> dict[bytes, list[int]]:
        """All occurrences of byte ``patterns`` in the executable sections.

        Returns ``{pattern: sorted addresses}`` where each occurrence lies
        fully inside one section.  Shared by whole-text signature scanners
        (BAP/ByteWeight models) and, filtered down to gaps, by
        :func:`repro.analysis.prologue.match_prologues`.
        """
        key = tuple(patterns)
        matches = self._text_matches.get(key)
        if matches is None:
            matches = {pattern: [] for pattern in key}
            for section in self.image.executable_sections:
                data = section.data
                for pattern in key:
                    offset = data.find(pattern)
                    while offset != -1:
                        matches[pattern].append(section.address + offset)
                        offset = data.find(pattern, offset + 1)
            for positions in matches.values():
                positions.sort()
            self._text_matches[key] = matches
        return matches

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> ContextStats:
        return ContextStats(
            decode_hits=self.decode_cache.hits,
            decode_misses=self.decode_cache.misses,
            cached_instructions=len(self.decode_cache),
            cached_functions=len(self.function_cache),
            cached_cfa_tables=len(self._cfa_tables),
            cached_callconv_checks=len(self._callconv),
            cached_noreturn_facts=len(self.noreturn_facts) + len(self._noreturn),
            cached_spans=self._span_builds,
        )


def scan_pointer_windows(
    data: bytes, begin: int, end: int, image: BinaryImage, candidates: set[int]
) -> None:
    """Add every 8-byte-window value of ``data[begin:end+7]`` that is an
    executable address to ``candidates``.

    Window start offsets run over ``[begin, end)``; semantically this is the
    plain per-offset ``int.from_bytes`` + bounds-check loop.  Every address
    in the hull ``[lo, hi)`` of the executable ranges (one ``.text`` span
    for a synthetic binary; ``.init``, ``.plt``, ``.text`` and ``.fini``
    for a real one) shares the same high bytes — the bytes above the hull's
    varying part — so a qualifying window must contain that exact byte
    suffix.  The scan then jumps between suffix occurrences with
    ``bytes.find`` at C speed and only decodes the handful of offsets that
    can possibly land in code, checking a window against each executable
    range only when there are several; because the suffix is anchored on a
    non-zero byte for any non-PIE load address, zero-filled padding is
    skipped outright rather than matched.
    """
    add = candidates.add
    bounds = image._executable_bounds
    if not bounds:
        return
    single = len(bounds) == 1
    lo = min(start for start, _ in bounds)
    hi = max(stop for _, stop in bounds)
    if hi <= lo:
        return
    is_executable = image.is_executable_address
    # Number of low bytes in which [lo, hi) addresses can differ; all
    # higher bytes are fixed and become the search pattern.
    nvar = ((lo ^ (hi - 1)).bit_length() + 7) // 8
    if nvar <= 5:
        pattern = (lo >> (8 * nvar)).to_bytes(8 - nvar, "little")
        find = data.find
        last = end - 1 + nvar
        p = find(pattern, begin + nvar)
        while -1 < p <= last:
            offset = p - nvar
            value = int.from_bytes(data[offset : offset + 8], "little")
            if lo <= value < hi and (single or is_executable(value)):
                add(value)
            p = find(pattern, p + 1)
        return
    for offset in range(begin, end):
        value = int.from_bytes(data[offset : offset + 8], "little")
        if is_executable(value):
            add(value)


def context_for(image: BinaryImage, context: AnalysisContext | None) -> AnalysisContext:
    """Return ``context`` when given, else a fresh context for ``image``.

    The helper every ``detect(image, context=None)`` entry point uses, with a
    guard against accidentally mixing state across binaries.
    """
    if context is None:
        return AnalysisContext(image)
    if context.image is not image:
        raise ValueError(
            f"context was built for {context.image.name!r}, not {image.name!r}"
        )
    return context
