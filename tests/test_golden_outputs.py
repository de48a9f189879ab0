"""Golden detector outputs and per-detection property checks.

Every registered detector runs over a fixed corpus — the scenario matrix at
small scale plus a slice of the self-built corpus — and each detection is
reduced to digests: a sha256 of the sorted function starts, plus the
recovered instructions and code constants of every detector that keeps its
disassembly (FETCH and the recursive baselines).  The digests must match the
committed ``tests/golden/detector_outputs.json`` exactly, which pins
detector behaviour across refactors of the traversal and decode layers.

After an intended behaviour change, regenerate the file with::

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden/detector_outputs.json

The same corpus carries the property checks every FETCH detection must
satisfy: each start is decodable executable code, and each merged cold part
maps to a detected start without being one itself.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import AnalysisContext
from repro.core.registry import detectors
from repro.elf.image import BinaryImage
from repro.synth import build_scenario_matrix_corpora, build_selfbuilt_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "detector_outputs.json"


def _corpus():
    matrix = build_scenario_matrix_corpora(scale=0.25, programs=2, seed=11)
    binaries = [binary for row in matrix.values() for binary in row]
    binaries += build_selfbuilt_corpus(scale=0.3, max_binaries=16, seed=7)
    return binaries


def _sha(items) -> str:
    return hashlib.sha256(";".join(map(str, items)).encode()).hexdigest()


def _digest(result) -> dict[str, object]:
    row: dict[str, object] = {
        "count": len(result.function_starts),
        "starts": _sha(sorted(result.function_starts)),
    }
    disassembly = getattr(result, "disassembly", None)
    if disassembly is not None:
        h = hashlib.sha256()
        for address in sorted(disassembly.instructions):
            insn = disassembly.instructions[address]
            h.update(f"{address}:{insn.mnemonic}:{insn.data.hex()};".encode())
        row["instructions"] = h.hexdigest()
        row["code_constants"] = _sha(sorted(disassembly.code_constants))
    return row


def _run():
    """``(golden rows, [(binary name, FETCH result, context)])``."""
    # the package's own detectors only: test modules register stubs
    infos = [info for info in detectors() if info.cls.__module__.startswith("repro.")]
    rows: dict[str, dict[str, object]] = {}
    fetch_runs = []
    for binary in _corpus():
        image = BinaryImage(elf=binary.image.elf, name=binary.name)
        context = AnalysisContext(image)
        for info in infos:
            result = info.create().detect(image, context)
            rows[f"{binary.name}/{info.name}"] = _digest(result)
            if info.name == "fetch":
                fetch_runs.append((binary.name, result, context))
    return rows, fetch_runs


@pytest.fixture(scope="module")
def golden_run():
    return _run()


def test_detector_outputs_match_golden(golden_run):
    rows, _ = golden_run
    expected = json.loads(GOLDEN.read_text())
    assert rows.keys() == expected.keys()
    diverged = sorted(key for key in rows if rows[key] != expected[key])
    assert not diverged, f"{len(diverged)} detections diverge from golden: {diverged[:5]}"


def test_fetch_starts_are_decodable_code(golden_run):
    _, fetch_runs = golden_run
    violations = [
        (name, hex(start))
        for name, result, context in fetch_runs
        for start in sorted(result.function_starts)
        if not context.image.is_executable_address(start) or context.decode(start) is None
    ]
    assert violations == []


def test_fetch_merged_parts_map_to_detected_starts(golden_run):
    _, fetch_runs = golden_run
    checked = 0
    for name, result, _ in fetch_runs:
        for part, parent in result.merged_parts.items():
            assert part not in result.function_starts, (name, hex(part))
            assert parent in result.function_starts, (name, hex(part), hex(parent))
            checked += 1
    assert checked > 0, "corpus exercises no Algorithm 1 merge"


if __name__ == "__main__":
    json.dump(_run()[0], sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
