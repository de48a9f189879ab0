"""One request path: the detection record codec, the shared detection unit
behind ``fetch-detect FILE``, and cache warmth across the CLI, the
detection service and the corpus evaluator."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import FetchDetector
from repro.core.results import DetectionResult
from repro.eval import CorpusEvaluator
from repro.resilience import faults
from repro.service import DetectionService
from repro.store import ArtifactStore, blob_digest, options_digest


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """``--faults`` installs its plan process-wide; drop it after each test."""
    yield
    faults.uninstall()


@pytest.fixture()
def elf_path(tmp_path, rich_binary):
    path = tmp_path / "input.elf"
    path.write_bytes(rich_binary.elf_bytes)
    return str(path)


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv: str) -> dict:
    """The single binary record of a ``--json`` run, minus its timings."""
    code, out, _err = _run(capsys, *argv, "--json")
    assert code == 0
    [record] = json.loads(out)["binaries"]
    record.pop("timings_seconds")
    return record


# ----------------------------------------------------------------------
# The detection record codec
# ----------------------------------------------------------------------

def test_record_round_trips_a_detection(rich_binary):
    result = FetchDetector().detect(rich_binary.image)
    assert result.merged_parts, "the fixture must exercise merged parts"
    record = json.loads(json.dumps(result.to_record()))

    decoded = DetectionResult.from_record(record)
    assert decoded.function_starts == result.function_starts
    assert decoded.added_by_stage == result.added_by_stage
    assert decoded.removed_by_stage == result.removed_by_stage
    assert decoded.merged_parts == result.merged_parts
    assert decoded.to_record() == record


@pytest.mark.parametrize(
    "record",
    [
        None,
        {},
        {"function_starts": [0x401000]},
        {"function_starts": [1], "stages": {}, "removed_by_stage": {}},
        {"function_starts": 7, "stages": {}, "removed_by_stage": {}, "merged_parts": {}},
        {"function_starts": [1], "stages": [], "removed_by_stage": {}, "merged_parts": {}},
        {"function_starts": [1], "stages": {}, "removed_by_stage": {},
         "merged_parts": {"cold": 1}},
    ],
)
def test_incomplete_records_decode_as_misses(record):
    assert DetectionResult.from_record(record) is None


# ----------------------------------------------------------------------
# fetch-detect FILE through the shared unit
# ----------------------------------------------------------------------

def test_cli_treats_an_incomplete_store_record_as_a_miss(elf_path, tmp_path, capsys):
    """Regression: a ``detections/`` record holding only its starts made
    ``fetch-detect FILE --store DIR`` raise ``KeyError: 'stages'``."""
    plain = _run_json(capsys, elf_path)
    store_dir = tmp_path / "store"
    store = ArtifactStore(store_dir)
    key = store.detection_key(
        blob_digest(Path(elf_path).read_bytes()), "fetch", options_digest(FetchDetector())
    )
    store.save_detection(key, {"function_starts": [0x401000]})

    assert _run_json(capsys, elf_path, "--store", str(store_dir)) == plain
    # the detection replaced the incomplete record, so the next run is warm
    warm = _run_json(capsys, elf_path, "--store", str(store_dir))
    assert warm["cached"] is True
    assert warm["function_starts"] == plain["function_starts"]


def test_cli_retries_a_torn_store_write(elf_path, tmp_path, capsys):
    _code, plain, _err = _run(capsys, elf_path)
    store_dir = str(tmp_path / "store")
    code, out, err = _run(
        capsys, elf_path, "--store", store_dir, "--faults", "store.write:torn:max=1"
    )
    assert (code, out, err) == (0, plain, "")
    assert faults.active().injection_counts() == {"store.write:torn": 1}
    faults.uninstall()
    assert _run_json(capsys, elf_path, "--store", store_dir)["cached"] is True


def test_cli_degrades_a_failing_store_write_to_one_warning(elf_path, tmp_path, capsys):
    _code, plain, _err = _run(capsys, elf_path)
    store_dir = str(tmp_path / "store")
    code, out, err = _run(
        capsys, elf_path, "--store", store_dir, "--faults", "store.write:torn"
    )
    assert (code, out) == (0, plain)
    [warning] = err.splitlines()
    assert warning.startswith(f"warning: {elf_path}: store.save degraded: FaultInjected")
    faults.uninstall()
    assert _run_json(capsys, elf_path, "--store", store_dir)["cached"] is False


def test_cli_retries_an_injected_detector_fault(elf_path, capsys):
    _code, plain, _err = _run(capsys, elf_path)
    assert _run(capsys, elf_path, "--faults", "detect:raise:max=1") == (0, plain, "")
    assert faults.active().injection_counts() == {"detect:raise": 1}


def test_cli_reports_a_detector_that_keeps_failing(elf_path, capsys):
    code, out, err = _run(capsys, elf_path, "--faults", "detect:raise")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot analyse {elf_path}: FaultInjected")


# ----------------------------------------------------------------------
# One detection record, warm for every front-end
# ----------------------------------------------------------------------

def test_warmth_carries_across_front_ends(elf_path, tmp_path, capsys, small_corpus):
    _code, plain_stages, _err = _run(capsys, elf_path, "--stages")

    # CLI first, then `fetch-detect submit`: no detector runs
    store_dir = str(tmp_path / "cli-first")
    assert _run(capsys, elf_path, "--store", store_dir)[0] == 0
    code, out, _err = _run(capsys, "submit", elf_path, "--store", store_dir, "--json")
    submitted = json.loads(out)
    assert code == 0
    assert submitted["stats"]["detector_runs"] == 0
    assert submitted["results"][0]["cached"] is True

    # submit first, then the CLI: served from the store, rendered identically
    store_dir = str(tmp_path / "submit-first")
    assert _run(capsys, "submit", elf_path, "--store", store_dir)[0] == 0
    assert _run_json(capsys, elf_path, "--store", store_dir)["cached"] is True
    assert _run(capsys, elf_path, "--stages", "--store", store_dir) == (0, plain_stages, "")

    # the evaluator first, then the service: no detector runs, equal metrics
    corpus = small_corpus[:3]
    evaluator = CorpusEvaluator(corpus, store=ArtifactStore(tmp_path / "eval-first"))
    evaluated = evaluator.run_detector(FetchDetector)
    assert evaluator.detector_runs == len(corpus)
    with DetectionService(store=ArtifactStore(tmp_path / "eval-first")) as service:
        results = list(service.submit(corpus).results())
    assert service.detector_runs == 0
    assert all(result.cached for result in results)
    by_name = {result.name: dataclasses.asdict(result.metrics) for result in results}
    assert by_name == {
        metrics.binary_name: dataclasses.asdict(metrics) for metrics in evaluated.per_binary
    }
