"""Linear scanning of code gaps (the angr-style unsafe approach).

After recursive disassembly, angr linearly sweeps the remaining gaps and
treats the beginning of each successfully-decoded piece of code as a new
function start (§II-B item 3).  The paper shows this eliminates full-accuracy
binaries entirely; we reproduce the behaviour: skip leading padding, decode
linearly, and report the address where decoding succeeded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.padding import skip_padding_bytes
from repro.elf.image import BinaryImage
from repro.x86.disassembler import decode_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import AnalysisContext

#: Minimum decodable instructions for a gap piece to count as code.
_MIN_INSTRUCTIONS = 2
#: Maximum function-start candidates reported per gap.
_MAX_PIECES_PER_GAP = 4

_ENDBR64 = b"\xf3\x0f\x1e\xfa"


def linear_scan_gaps(
    image: BinaryImage,
    gaps: list[tuple[int, int]],
    *,
    context: "AnalysisContext",
    require_endbr: bool = False,
) -> set[int]:
    """Return the starts of decodable code pieces found inside ``gaps``.

    ``require_endbr`` is the CET-aware mode: with indirect-branch tracking a
    function entry must be an ``endbr64`` landing pad, so pieces that do not
    start with one are rejected (scan-based detectors on CET binaries use
    this to suppress mid-function false starts).
    """
    cache = context.decode_cache
    starts: set[int] = set()
    for gap_start, gap_end in gaps:
        section = image.section_containing(gap_start)
        if section is None:
            continue
        data = section.data
        cursor = gap_start
        end = min(gap_end, section.end_address)
        pieces = 0
        while cursor < end and pieces < _MAX_PIECES_PER_GAP:
            cursor = skip_padding_bytes(data, section.address, cursor, end)
            if cursor >= end:
                break
            decoded = list(
                decode_range(
                    data,
                    section.address,
                    cursor - section.address,
                    end - section.address,
                    stop_on_error=True,
                    cache=cache,
                )
            )
            meaningful = [i for i in decoded if not i.is_padding]
            if len(meaningful) >= _MIN_INSTRUCTIONS:
                pieces += 1
                # Report the first non-padding instruction: multi-byte NOP
                # runs (66 0f 1f ...) decode fine but are filler, exactly
                # like the single-byte padding skipped above.
                piece_start = meaningful[0].address
                offset = piece_start - section.address
                if not require_endbr or data[offset : offset + 4] == _ENDBR64:
                    starts.add(piece_start)
            if decoded:
                cursor = decoded[-1].end + 1
            else:
                cursor += 1
    return starts
