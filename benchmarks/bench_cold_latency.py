"""Cold single-binary detection latency (the service's first-request cost).

Protocol ("true cold"): the ELF container is parsed once, then every
iteration constructs a fresh :class:`BinaryImage` and analysis context and
runs the FETCH detector end to end — so each timed run pays eh_frame
parsing, decoding and the full pipeline, exactly like the first request for
a binary the service has never seen.  Wall clock is the best of
``ITERATIONS`` runs per binary; a fixed-work calibration loop converts
seconds into machine-independent "units" so records from different hosts
can be compared.

The corpus is pinned (``scale=1.0, seed=2021``, top ``TOP_BINARIES`` by
function count) independently of ``REPRO_BENCH_SCALE`` so the committed
``BENCH_cold_latency.json`` is reproducible anywhere.

With ``REPRO_COLD_GATE=1`` the run additionally fails if any binary's
cold latency (in calibration units) regressed more than
``GATE_TOLERANCE`` against the committed ``BENCH_cold_latency.json`` —
this is the CI regression gate for the cold path.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import FetchDetector
from repro.core.context import AnalysisContext
from repro.elf.image import BinaryImage
from repro.synth import build_selfbuilt_corpus
from repro.x86.disassembler import DECODE_STATS, decode_block

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cold_latency.json"

COLD_SCALE = 1.0
COLD_SEED = 2021
TOP_BINARIES = 4
ITERATIONS = 7
GATE_TOLERANCE = 0.15
#: the cold path must stay at least this far ahead of the pre-PR baseline
SPEEDUP_FLOOR = 2.0

#: Pre-rewrite reference, measured at the seed commit (6b8b503) with this
#: exact protocol: same machine/day as the committed post numbers, six
#: order-rotated interleaved rounds (pre-PR-5 / pre-PR-9 / current rotating
#: first position each round), best iteration across rounds.  The decode
#: counts are deterministic facts of the seed-commit code.  Kept here so the
#: achieved speedup is part of the record even after the pre-PR code is gone.
PRE_PR_BASELINE = {
    "mysqld-like-0:clang:O3": {"cold_seconds": 0.120710, "cold_units": 0.706,
                               "raw_decodes": 6740},
    "binutils-like-0:clang:Ofast": {"cold_seconds": 0.111620, "cold_units": 0.653,
                                    "raw_decodes": 6195},
    "mysqld-like-0:gcc:Os": {"cold_seconds": 0.107750, "cold_units": 0.630,
                             "raw_decodes": 6163},
    "mysqld-like-0:gcc:O2": {"cold_seconds": 0.108280, "cold_units": 0.633,
                             "raw_decodes": 5997},
}


def _calibrate() -> float:
    """Seconds for a fixed 2M-iteration integer loop (best of 3)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i ^ (i >> 3)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_binary(binary, calibration: float) -> dict:
    elf = binary.image.elf
    best = float("inf")
    decodes = 0
    for _ in range(ITERATIONS):
        before = DECODE_STATS.raw_decodes
        start = time.perf_counter()
        image = BinaryImage(elf=elf, name=binary.name)
        FetchDetector().detect(image, AnalysisContext(image))
        elapsed = time.perf_counter() - start
        decodes = DECODE_STATS.raw_decodes - before
        best = min(best, elapsed)
    return {
        "cold_seconds": round(best, 6),
        "cold_units": round(best / calibration, 3),
        "raw_decodes": decodes,
        "functions": binary.ground_truth.function_count,
    }


def _best_within(binary, row: dict, limit: float) -> dict:
    """``row``, re-measured (fresh calibration too) up to twice while it
    reads above ``limit`` units, keeping the best reading: single best-of-N
    readings carry scheduling noise that retries absorb but a hard
    threshold would not."""
    for _ in range(2):
        if row["cold_units"] <= limit:
            break
        retry = _measure_binary(binary, _calibrate())
        if retry["cold_units"] < row["cold_units"]:
            row = retry
    return row


def _decoder_throughput(binary) -> dict:
    """Linear-sweep batch decode of the whole ``.text`` (decode cost only)."""
    text = next(s for s in binary.image.elf.sections if s.name == ".text")
    data, address = text.data, text.address

    def sweep() -> int:
        pos = 0
        total = 0
        n = len(data)
        while pos < n:
            out, failed = decode_block(data, pos, address + pos, 1 << 30)
            total += len(out)
            # Resume after the last decoded instruction; an undecodable byte
            # (jump-table data, padding) is skipped one byte at a time.
            pos = out[-1].end - address if out else pos + 1
        return total

    best = float("inf")
    count = 0
    for _ in range(5):
        start = time.perf_counter()
        count = sweep()
        best = min(best, time.perf_counter() - start)
    return {
        "instructions": count,
        "seconds": round(best, 6),
        "minsn_per_second": round(count / best / 1e6, 3),
    }


def _render(record: dict) -> str:
    lines = ["Cold single-binary detection latency (true-cold, best of "
             f"{ITERATIONS})", "-" * 76]
    lines.append(f"{'binary':<30} {'cold ms':>9} {'units':>7} {'pre units':>10} "
                 f"{'speedup':>8}")
    for name, row in record["binaries"].items():
        pre = PRE_PR_BASELINE.get(name, {}).get("cold_units")
        speedup = f"{pre / row['cold_units']:.2f}x" if pre else "-"
        lines.append(
            f"{name:<30} {row['cold_seconds'] * 1e3:>9.2f} {row['cold_units']:>7.3f} "
            f"{pre if pre is not None else '-':>10} {speedup:>8}"
        )
    decoder = record["decoder"]
    lines.append(
        f"decoder sweep: {decoder['instructions']} insns in "
        f"{decoder['seconds'] * 1e3:.2f} ms = {decoder['minsn_per_second']} M insn/s"
    )
    return "\n".join(lines)


def test_cold_latency(artifact_store, report_writer):
    committed = None
    if BENCH_PATH.exists():
        committed = json.loads(BENCH_PATH.read_text())

    corpus = build_selfbuilt_corpus(scale=COLD_SCALE, seed=COLD_SEED, store=artifact_store)
    ranked = sorted(corpus, key=lambda b: b.ground_truth.function_count, reverse=True)
    targets = ranked[:TOP_BINARIES]

    calibration = _calibrate()
    rows = {binary.name: _measure_binary(binary, calibration) for binary in targets}
    by_name = {binary.name: binary for binary in targets}

    # The regression gate: compare against the *committed* record in
    # calibration units so a slower CI host does not fail the build.  An
    # over-limit reading is re-measured before it counts as a regression.
    if os.environ.get("REPRO_COLD_GATE") and committed is not None:
        for name, reference in committed["binaries"].items():
            if name not in rows:
                continue
            limit = reference["cold_units"] * (1 + GATE_TOLERANCE)
            rows[name] = _best_within(by_name[name], rows[name], limit)
            assert rows[name]["cold_units"] <= limit, (
                f"cold latency regression on {name}: {rows[name]['cold_units']} "
                f"units > {limit:.3f} (committed {reference['cold_units']} + "
                f"{GATE_TOLERANCE:.0%})"
            )

    # The speedup floor (asserted below) re-measures a reading under it the
    # same way.
    for name, pre in PRE_PR_BASELINE.items():
        if name in rows:
            limit = pre["cold_units"] / SPEEDUP_FLOOR
            rows[name] = _best_within(by_name[name], rows[name], limit)

    record = {
        "bench": "cold_latency",
        "created_unix": round(time.time(), 3),
        "protocol": {
            "definition": "fresh BinaryImage + context per iteration; "
                          f"best of {ITERATIONS}; corpus scale={COLD_SCALE} "
                          f"seed={COLD_SEED}, top {TOP_BINARIES} by function count",
            "calibration": "2M-iteration integer loop, best of 3",
        },
        "calibration_seconds": round(calibration, 6),
        "binaries": rows,
        "decoder": _decoder_throughput(targets[0]),
        "pre_pr_baseline": PRE_PR_BASELINE,
        "speedup_units": {
            name: round(PRE_PR_BASELINE[name]["cold_units"] / row["cold_units"], 2)
            for name, row in rows.items()
            if name in PRE_PR_BASELINE
        },
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report_writer("cold_latency", _render(record))

    # Sanity floor on the rewrite itself: the cold path must stay well ahead
    # of the pre-PR baseline (measured ~3.0-3.3x; 2x leaves noise headroom).
    for name, speedup in record["speedup_units"].items():
        assert speedup >= SPEEDUP_FLOOR, f"{name}: cold speedup fell to {speedup}x vs pre-PR"
