"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The corpus
size is controlled by the ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_MAX_BINARIES``
environment variables so the full harness can be dialled between "smoke test"
and "paper scale", and ``REPRO_BENCH_WORKERS`` (or ``--repro-workers``) sets
how many worker processes the :class:`~repro.eval.runner.CorpusEvaluator`
fans binaries out over (``1`` or unset: serial).  Rendered tables are
printed to stdout and written to ``benchmarks/reports/`` for inclusion in
EXPERIMENTS.md; machine-readable timing records land in
``BENCH_<name>.json`` at the repository root.

All benchmarks share one content-addressed artifact store
(``benchmarks/.store`` by default, ``REPRO_BENCH_STORE`` overrides, value
``off`` disables): corpora are built once and reloaded by every later
benchmark or run, and detector results persist across runs, so a warm
re-run of the harness skips the expensive work.  Delete the store directory
for a guaranteed-cold run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval import CorpusEvaluator
from repro.store import ArtifactStore
from repro.synth import (
    build_scenario_matrix_corpora,
    build_selfbuilt_corpus,
    build_wild_corpus,
)

REPORT_DIRECTORY = Path(__file__).resolve().parent / "reports"
BENCH_DIRECTORY = Path(__file__).resolve().parent.parent
STORE_DIRECTORY = Path(__file__).resolve().parent / ".store"


def pytest_addoption(parser):
    parser.addoption(
        "--repro-workers",
        type=int,
        default=None,
        help="worker processes evaluating binaries (overrides REPRO_BENCH_WORKERS)",
    )


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))


def _max_binaries() -> int | None:
    value = os.environ.get("REPRO_BENCH_MAX_BINARIES", "")
    return int(value) if value else None


def _workers(config) -> int:
    option = config.getoption("--repro-workers")
    if option is not None:
        return max(1, option)
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


@pytest.fixture(scope="session")
def artifact_store():
    """The shared artifact store, or ``None`` when disabled."""
    value = os.environ.get("REPRO_BENCH_STORE", "")
    if value.lower() in ("0", "off", "none", "no"):
        yield None
        return
    yield ArtifactStore(value or STORE_DIRECTORY)


@pytest.fixture(scope="session")
def selfbuilt_corpus(artifact_store):
    """The Dataset-2 analogue used by most benchmarks."""
    return build_selfbuilt_corpus(
        scale=_scale(), max_binaries=_max_binaries(), seed=2021, store=artifact_store
    )


@pytest.fixture(scope="session")
def selfbuilt_corpus_small(selfbuilt_corpus):
    """A subsample for the slowest benchmarks (timing, stack heights)."""
    return selfbuilt_corpus[: max(8, len(selfbuilt_corpus) // 4)]


@pytest.fixture(scope="session")
def scenario_corpora(artifact_store):
    """The scenario matrix corpora: PIE, CET, ICF, padded, stripped-noeh."""
    return build_scenario_matrix_corpora(
        scale=_scale(), programs=3, seed=2021, store=artifact_store
    )


@pytest.fixture(scope="session")
def wild_corpus(artifact_store):
    """The Dataset-1 (wild binaries) analogue."""
    return build_wild_corpus(scale=0.4, seed=2021, store=artifact_store)


@pytest.fixture(scope="session")
def bench_workers(pytestconfig) -> int:
    """The ``workers`` knob of the parallel corpus evaluation."""
    return _workers(pytestconfig)


@pytest.fixture()
def make_evaluator(bench_workers, artifact_store):
    """Build a shared-context CorpusEvaluator emitting BENCH_*.json records."""
    made: list[CorpusEvaluator] = []

    def make(corpus, *, workers: int | None = None) -> CorpusEvaluator:
        evaluator = CorpusEvaluator(
            corpus,
            workers=bench_workers if workers is None else workers,
            bench_dir=BENCH_DIRECTORY,
            store=artifact_store,
        )
        made.append(evaluator)
        return evaluator

    yield make
    for evaluator in made:
        evaluator.close()


@pytest.fixture(scope="session")
def report_writer():
    """Write a rendered table to benchmarks/reports/<name>.txt and stdout."""
    REPORT_DIRECTORY.mkdir(exist_ok=True)

    def write(name: str, content: str) -> str:
        path = REPORT_DIRECTORY / f"{name}.txt"
        path.write_text(content + "\n")
        print("\n" + content)
        return content

    return write
