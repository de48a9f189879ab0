"""Detection metrics.

The paper reports two granularities: per-binary (is a binary fully covered /
fully accurate?) and corpus totals (how many false positives / negatives in
total).  ``BinaryMetrics`` captures one binary, ``CorpusMetrics`` aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.synth.groundtruth import GroundTruth


@dataclass
class BinaryMetrics:
    """Detection quality for one binary."""

    binary_name: str
    true_count: int
    detected_count: int
    false_positives: set[int] = field(default_factory=set)
    false_negatives: set[int] = field(default_factory=set)
    #: false positives that are cold-part starts of non-contiguous functions
    cold_part_false_positives: set[int] = field(default_factory=set)

    @property
    def fp_count(self) -> int:
        return len(self.false_positives)

    @property
    def fn_count(self) -> int:
        return len(self.false_negatives)

    @property
    def true_positive_count(self) -> int:
        return self.true_count - self.fn_count

    @property
    def full_coverage(self) -> bool:
        """Every true function start was detected."""
        return self.fn_count == 0

    @property
    def full_accuracy(self) -> bool:
        """No false function start was reported."""
        return self.fp_count == 0

    @property
    def precision(self) -> float:
        if self.detected_count == 0:
            return 1.0
        return self.true_positive_count / self.detected_count

    @property
    def recall(self) -> float:
        if self.true_count == 0:
            return 1.0
        return self.true_positive_count / self.true_count


def compute_metrics(
    ground_truth: GroundTruth, detected: set[int], *, binary_name: str | None = None
) -> BinaryMetrics:
    """Compare detected starts against the ground truth of one binary."""
    true_starts = ground_truth.function_starts
    cold_starts = ground_truth.cold_part_starts
    false_positives = detected - true_starts
    false_negatives = true_starts - detected
    return BinaryMetrics(
        binary_name=binary_name or ground_truth.name,
        true_count=len(true_starts),
        detected_count=len(detected),
        false_positives=false_positives,
        false_negatives=false_negatives,
        cold_part_false_positives=false_positives & cold_starts,
    )


@dataclass
class CorpusMetrics:
    """Aggregate metrics over a corpus of binaries."""

    per_binary: list[BinaryMetrics] = field(default_factory=list)

    def add(self, metrics: BinaryMetrics) -> None:
        self.per_binary.append(metrics)

    @property
    def binary_count(self) -> int:
        return len(self.per_binary)

    @property
    def total_functions(self) -> int:
        return sum(m.true_count for m in self.per_binary)

    @property
    def total_detected(self) -> int:
        return sum(m.detected_count for m in self.per_binary)

    @property
    def total_false_positives(self) -> int:
        return sum(m.fp_count for m in self.per_binary)

    @property
    def total_false_negatives(self) -> int:
        return sum(m.fn_count for m in self.per_binary)

    @property
    def total_cold_part_false_positives(self) -> int:
        return sum(len(m.cold_part_false_positives) for m in self.per_binary)

    @property
    def binaries_with_full_coverage(self) -> int:
        return sum(1 for m in self.per_binary if m.full_coverage)

    @property
    def binaries_with_full_accuracy(self) -> int:
        return sum(1 for m in self.per_binary if m.full_accuracy)

    @property
    def binaries_with_false_positives(self) -> int:
        return sum(1 for m in self.per_binary if not m.full_accuracy)

    @property
    def coverage_ratio(self) -> float:
        total = self.total_functions
        if total == 0:
            return 1.0
        return (total - self.total_false_negatives) / total

    def summary(self) -> dict[str, float | int]:
        """A dictionary summary convenient for printing and testing."""
        return {
            "binaries": self.binary_count,
            "functions": self.total_functions,
            "false_positives": self.total_false_positives,
            "false_negatives": self.total_false_negatives,
            "full_coverage_binaries": self.binaries_with_full_coverage,
            "full_accuracy_binaries": self.binaries_with_full_accuracy,
            "coverage": round(100.0 * self.coverage_ratio, 3),
        }
