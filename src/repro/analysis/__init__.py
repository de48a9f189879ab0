"""Binary-analysis substrate shared by FETCH and the baseline detectors.

The modules in this package implement the building blocks the paper composes
into detection strategies:

* :mod:`repro.analysis.recursive` — *safe* recursive disassembly,
* :mod:`repro.analysis.jumptable` — conservative jump-table resolution,
* :mod:`repro.analysis.noreturn` — non-returning function analysis,
* :mod:`repro.analysis.callconv` — calling-convention validation,
* :mod:`repro.analysis.xrefs` — function-pointer collection and validation,
* :mod:`repro.analysis.stackheight` — static stack-height analysis
  (the angr/DYNINST-style analysis compared in Table IV),
* :mod:`repro.analysis.prologue` — prologue / signature matching,
* :mod:`repro.analysis.linearscan` — linear sweep of code gaps,
* :mod:`repro.analysis.gadgets` — ROP gadget counting (§V-A),
* :mod:`repro.analysis.gaps` — non-disassembled region computation.
"""

from repro.analysis.result import DisassembledFunction, DisassemblyResult
from repro.analysis.recursive import RecursiveDisassembler
from repro.analysis.jumptable import resolve_jump_table
from repro.analysis.xrefs import collect_potential_pointers, validate_function_pointer
from repro.analysis.gaps import compute_gaps

__all__ = [
    "DisassembledFunction",
    "DisassemblyResult",
    "RecursiveDisassembler",
    "resolve_jump_table",
    "collect_potential_pointers",
    "validate_function_pointer",
    "compute_gaps",
]
