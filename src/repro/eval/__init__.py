"""Evaluation framework: metrics, experiment runners and table renderers.

Every table and figure of the paper's evaluation has a corresponding runner
in :mod:`repro.eval.runner` and a renderer in :mod:`repro.eval.tables`; the
``benchmarks/`` directory wires them to pytest-benchmark targets.
"""

from repro.eval.executor import parallel_map
from repro.eval.metrics import BinaryMetrics, CorpusMetrics, compute_metrics
from repro.eval.runner import (
    MATRIX_DETECTORS,
    CorpusEvaluator,
    ScenarioMatrix,
    StrategyOutcome,
    run_strategy_ladder,
    run_figure5a,
    run_figure5b,
    run_figure5c,
    run_fde_coverage_study,
    run_fde_error_study,
    run_algorithm1_study,
    run_tool_comparison,
    run_stack_height_study,
    run_timing_study,
    run_wild_study,
    run_selfbuilt_fde_study,
)
from repro.eval.tables import (
    render_figure5,
    render_scenario_matrix,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_strategy_outcomes,
)

__all__ = [
    "BinaryMetrics",
    "CorpusEvaluator",
    "CorpusMetrics",
    "MATRIX_DETECTORS",
    "ScenarioMatrix",
    "parallel_map",
    "compute_metrics",
    "StrategyOutcome",
    "run_strategy_ladder",
    "run_figure5a",
    "run_figure5b",
    "run_figure5c",
    "run_fde_coverage_study",
    "run_fde_error_study",
    "run_algorithm1_study",
    "run_tool_comparison",
    "run_stack_height_study",
    "run_timing_study",
    "run_wild_study",
    "run_selfbuilt_fde_study",
    "render_figure5",
    "render_scenario_matrix",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_strategy_outcomes",
]
