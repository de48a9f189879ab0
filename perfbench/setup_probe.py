"""Time an in-process workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py detect-cold|compare-tools FILE.elf OPT_LEVEL

Set-up is what a new caller pays before its first result: importing the
program and making one warm-up request (which also builds the decoder's
lazy tables).  Prints the seconds, then the mean compute-kernel pass in ms
over a window just before and one just after (:func:`refkernel.compute_ms`),
as one line.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import corpus
import refkernel
import workloads


def main(workload: str, path: str, opt_level: str) -> int:
    data = Path(path).read_bytes()
    before_ms = refkernel.compute_ms()
    start = time.perf_counter()
    sys.path.insert(0, str(corpus.ROOT / "src"))
    from repro.elf.image import BinaryImage

    image = BinaryImage.from_bytes(data, name=path)
    if workload == "detect-cold":
        from repro.core.context import AnalysisContext
        from repro.core.pipeline import FetchDetector

        FetchDetector().detect(image, AnalysisContext(image))
    else:
        from repro.eval.runner import CorpusEvaluator, run_tool_comparison

        binary = corpus.Binary(
            0, path, path, data, corpus.Truth(path, frozenset(), frozenset()), opt_level
        )
        entries = [workloads.comparison_input(binary, image)]
        run_tool_comparison(entries, evaluator=CorpusEvaluator(entries))
    elapsed = time.perf_counter() - start
    print(elapsed, (before_ms + refkernel.compute_ms()) / 2)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
