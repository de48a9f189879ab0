"""Ground-truth records produced alongside every synthetic binary.

The paper obtains ground truth by intercepting the compiler; our synthetic
compiler simply records what it generated.  The ground truth distinguishes
*true function starts* (one per source-level function) from FDE/symbol starts
of non-contiguous cold parts, which are exactly the false positives §V of the
paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FunctionInfo:
    """Everything known about one generated function."""

    name: str
    address: int
    size: int
    kind: str = "normal"
    #: "call" | "indirect" | "tailcall" | "entry" | "unreachable"
    reachable_via: str = "call"
    has_fde: bool = True
    has_symbol: bool = True
    frame: str = "rsp"
    is_noreturn: bool = False
    #: addresses of this function's non-contiguous cold parts
    cold_part_addresses: list[int] = field(default_factory=list)
    #: whether the function's entry violates the conservative calling
    #: convention check (deliberately, to model hand-written assembly)
    violates_callconv: bool = False
    #: when non-zero, the hand-written FDE's PC begin is shifted by this many
    #: bytes from the true start (the paper's Figure 6b case)
    bad_fde_offset: int = 0
    #: bytes of patchable-function-entry NOP padding at the entry point
    entry_padding: int = 0
    #: symbol names folded onto this body by identical-code folding
    folded_aliases: list[str] = field(default_factory=list)


@dataclass
class GroundTruth:
    """Ground truth for one synthetic binary."""

    #: program name, e.g. "coreutils-like-3:gcc:O2"
    name: str
    functions: list[FunctionInfo] = field(default_factory=list)
    #: the binary scenario the program was built for ("vanilla", "pie", ...)
    scenario: str = "vanilla"

    # ------------------------------------------------------------------
    @property
    def function_starts(self) -> set[int]:
        """True function start addresses (one per source-level function)."""
        return {f.address for f in self.functions}

    @property
    def cold_part_starts(self) -> set[int]:
        """Start addresses of non-contiguous cold parts (NOT function starts)."""
        return {addr for f in self.functions for addr in f.cold_part_addresses}

    @property
    def function_count(self) -> int:
        return len(self.functions)

    def by_address(self, address: int) -> FunctionInfo | None:
        for info in self.functions:
            if info.address == address:
                return info
        return None

    def by_name(self, name: str) -> FunctionInfo | None:
        for info in self.functions:
            if info.name == name:
                return info
        return None

    # ------------------------------------------------------------------
    @property
    def functions_without_fde(self) -> list[FunctionInfo]:
        return [f for f in self.functions if not f.has_fde]
