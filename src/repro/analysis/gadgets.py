"""ROP gadget counting.

§V-A of the paper measures the security impact of FDE-introduced false
function starts by counting the ROP gadgets contained in the basic blocks at
those starts (using ROPgadget).  This module provides the equivalent
measurement: for a given start address, every suffix of the byte window up to
the first ``ret`` that decodes cleanly and ends exactly at that ``ret`` with
a bounded number of instructions counts as one gadget.
"""

from __future__ import annotations

from repro.elf.image import BinaryImage
from repro.x86.disassembler import DecodeError, decode_instruction

_MAX_WINDOW = 64
_MAX_GADGET_INSTRUCTIONS = 5


def count_rop_gadgets(
    image: BinaryImage,
    address: int,
    *,
    window: int = _MAX_WINDOW,
    cache: "dict[int, object] | None" = None,
) -> int:
    """Count ROP gadgets in the code window starting at ``address``.

    ``cache`` is a shared decode memo (``address -> Instruction | None``);
    gadget scans probe many misaligned suffixes, and the decode of any
    address is a pure function of the image bytes, so sharing the context's
    cache is safe and lets overlapping windows reuse each other's decodes.
    :meth:`repro.core.context.AnalysisContext.gadget_count` memoizes the
    count per address.
    """
    section = image.section_containing(address)
    if section is None or not section.is_executable:
        return 0
    begin = address - section.address
    end = min(begin + window, len(section.data))
    data = section.data

    ret_offset = data.find(b"\xc3", begin, end)
    if ret_offset == -1:
        return 0

    gadgets = 0
    for start in range(begin, ret_offset + 1):
        if _decodes_to_ret(data, start, ret_offset, section.address, cache):
            gadgets += 1
    return gadgets


def _decodes_to_ret(
    data: bytes, start: int, ret_offset: int, base: int, cache=None
) -> bool:
    offset = start
    for _ in range(_MAX_GADGET_INSTRUCTIONS):
        if offset == ret_offset:
            return True
        if offset > ret_offset:
            return False
        try:
            insn = decode_instruction(data, offset, base + offset, cache)
        except DecodeError:
            return False
        if insn.is_ret or insn.is_branch:
            return False
        offset += insn.size
    return False
