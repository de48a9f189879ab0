"""Detection result model with per-stage attribution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.result import DisassemblyResult


@dataclass
class DetectionResult:
    """The output of a detection pipeline run on one binary.

    ``stages`` records, in pipeline order, which function starts each stage
    added (positive attribution) and which it removed, so the coverage /
    accuracy studies of §IV and §V can report per-strategy deltas.
    """

    binary_name: str
    function_starts: set[int] = field(default_factory=set)
    #: stage name -> starts added by that stage
    added_by_stage: dict[str, set[int]] = field(default_factory=dict)
    #: stage name -> starts removed by that stage
    removed_by_stage: dict[str, set[int]] = field(default_factory=dict)
    #: cold-part start -> parent function start, for merged parts
    merged_parts: dict[int, int] = field(default_factory=dict)
    #: tail-call targets promoted to function starts by Algorithm 1
    tail_call_targets: set[int] = field(default_factory=set)
    #: the final recursive-disassembly state (when the pipeline ran one)
    disassembly: DisassemblyResult | None = None

    def record_stage(self, name: str, added: set[int], removed: set[int] | None = None) -> None:
        """Apply and record one stage's effect on the detected set."""
        removed = removed or set()
        self.added_by_stage[name] = set(added)
        self.removed_by_stage[name] = set(removed)
        self.function_starts |= added
        self.function_starts -= removed

    def to_record(self) -> dict[str, Any]:
        """The plain-JSON record every front-end caches (sorted lists; JSON
        object keys are strings, so ``merged_parts`` keys are too)."""
        return {
            "function_starts": sorted(self.function_starts),
            "stages": {name: sorted(added) for name, added in self.added_by_stage.items()},
            "removed_by_stage": {
                name: sorted(gone) for name, gone in self.removed_by_stage.items()
            },
            "merged_parts": {str(part): parent for part, parent in self.merged_parts.items()},
        }

    @classmethod
    def from_record(cls, record: dict[str, Any] | None) -> "DetectionResult | None":
        """Decode :meth:`to_record`, keeping the record's stage order;
        ``None`` for a missing or incomplete record (a cache miss)."""
        try:
            return cls(
                binary_name="",
                function_starts=set(record["function_starts"]),
                added_by_stage={name: set(added) for name, added in record["stages"].items()},
                removed_by_stage={
                    name: set(gone) for name, gone in record["removed_by_stage"].items()
                },
                merged_parts={int(part): parent for part, parent in record["merged_parts"].items()},
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
