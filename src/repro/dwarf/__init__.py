"""DWARF call-frame information (``.eh_frame``) substrate.

This package implements the parts of the DWARF / Linux Standard Base
exception-handling format that matter for function detection:

* LEB128 primitives (:mod:`repro.dwarf.leb128`),
* the CFI instruction set (:mod:`repro.dwarf.cfi`),
* CIE/FDE record structures (:mod:`repro.dwarf.structs`),
* an ``.eh_frame`` / ``.eh_frame_hdr`` encoder (:mod:`repro.dwarf.encoder`),
* an ``.eh_frame`` parser (:mod:`repro.dwarf.parser`),
* a CFI evaluator that materialises CFA rows and per-PC stack heights
  (:mod:`repro.dwarf.cfa_table`).
"""

from repro.dwarf.cfi import CfiInstruction
from repro.dwarf.structs import CieRecord, FdeRecord
from repro.dwarf.parser import EhFrameParseError, parse_eh_frame
from repro.dwarf.cfa_table import CfaRow, CfaTable

__all__ = [
    "CfiInstruction",
    "CieRecord",
    "FdeRecord",
    "EhFrameParseError",
    "parse_eh_frame",
    "CfaRow",
    "CfaTable",
]
