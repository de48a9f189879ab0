"""Evaluation framework: metrics, experiment runners and table renderers.

Every table and figure of the paper's evaluation has a corresponding runner
in :mod:`repro.eval.runner` and a renderer in :mod:`repro.eval.tables`; the
``benchmarks/`` directory wires them to pytest-benchmark targets.

The names below are loaded from their defining module on first access, so
importing one submodule (the CLI and the service use :mod:`~repro.eval.unit`
and :mod:`~repro.eval.executor`) does not load the runners, every baseline
model and the corpus synthesizer with it.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "repro.eval.executor": ("parallel_map",),
    "repro.eval.metrics": ("BinaryMetrics", "CorpusMetrics", "compute_metrics"),
    "repro.eval.runner": (
        "MATRIX_DETECTORS",
        "CorpusEvaluator",
        "ScenarioMatrix",
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
    ),
    "repro.eval.tables": (
        "render_figure5",
        "render_scenario_matrix",
        "render_table1",
        "render_table2",
        "render_table3",
        "render_table4",
        "render_table5",
        "render_strategy_outcomes",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
