"""Artifact-store contention — N processes hammering one store.

Forks ``REPRO_BENCH_CONTENTION_WRITERS`` writer processes (default 4) that
concurrently drive mixed ``put_blob`` / ``save_detection`` traffic (two
detectors' records) into one shared store.  The parent then audits every
write: each blob and detection record must load back byte-intact, and the
store's listing (the tree walk behind ``store stats`` and GC) must yield
exactly the unique entries written — **zero lost and zero corrupt
entries** is an assertion, not a statistic.

``BENCH_store_contention.json`` records aggregate write throughput and the
p50/p90/p99 of the per-acquisition cross-process lock waits (the store's
:attr:`lock_waits` samples, pooled across writers; writes take no lock,
so write-only traffic records none).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

from repro.store import ArtifactStore, blob_digest

BENCH_DIRECTORY = Path(__file__).resolve().parent.parent

_WRITERS = max(2, int(os.environ.get("REPRO_BENCH_CONTENTION_WRITERS", "4")))
_OPS = max(9, int(os.environ.get("REPRO_BENCH_CONTENTION_OPS", "60")))


def _blob_payload(writer: int, op: int) -> bytes:
    return f"contention-blob {writer}:{op} ".encode() * 64


def _detector(op: int) -> str:
    """Kind-1 ops write ``ida`` detection records, kind-2 ops ``fetch`` ones."""
    return "ida" if op % 3 == 1 else "fetch"


def _detection_key(store: ArtifactStore, writer: int, op: int) -> str:
    return store.detection_key(
        blob_digest(_blob_payload(writer, op)), _detector(op), "bench-options"
    )


def _detection_record(writer: int, op: int) -> dict:
    return {
        "path": f"writer{writer}/op{op}",
        "detector": _detector(op),
        "function_starts": [0x1000 + op, 0x2000 + writer],
        "stages": {"fde": [0x1000 + op]},
        "removed_by_stage": {},
        "merged_parts": {},
    }


def _writer(root: str, writer: int, ops: int, out_path: str) -> None:
    """One writer process: mixed traffic, then dump its lock-wait samples."""
    store = ArtifactStore(root)
    start = time.perf_counter()
    for op in range(ops):
        kind = op % 3
        if kind == 0:
            store.put_blob(_blob_payload(writer, op))
        else:
            store.save_detection(
                _detection_key(store, writer, op), _detection_record(writer, op)
            )
    seconds = time.perf_counter() - start
    Path(out_path).write_text(
        json.dumps({"seconds": seconds, "lock_waits": store.lock_waits})
    )


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _audit(
    store: ArtifactStore, writers: int, ops: int
) -> tuple[int, set[tuple[str, str]]]:
    """Verify every write survived intact; returns (checked, unique keys)."""
    unique: set[tuple[str, str]] = set()
    checked = 0
    for writer in range(writers):
        for op in range(ops):
            payload = _blob_payload(writer, op)
            kind = op % 3
            if kind == 0:
                assert store.get_blob(blob_digest(payload)) == payload, (
                    f"blob {writer}:{op} lost or corrupt"
                )
                unique.add(("objects", blob_digest(payload)))
            else:
                key = _detection_key(store, writer, op)
                loaded = store.load_detection(key)
                assert loaded is not None, f"detection {writer}:{op} lost"
                assert loaded["path"] == f"writer{writer}/op{op}", (
                    f"detection {writer}:{op} corrupt"
                )
                unique.add(("detections", key))
            checked += 1
    return checked, unique


def test_store_contention(tmp_path_factory, report_writer):
    directory = tmp_path_factory.mktemp("store-contention")
    root = directory / "store"

    context = multiprocessing.get_context("fork")
    outputs = [str(directory / f"writer-{index}.json") for index in range(_WRITERS)]
    processes = [
        context.Process(target=_writer, args=(str(root), index, _OPS, outputs[index]))
        for index in range(_WRITERS)
    ]
    wall_start = time.perf_counter()
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    wall_seconds = time.perf_counter() - wall_start
    assert all(process.exitcode == 0 for process in processes), (
        f"writer crashed: {[process.exitcode for process in processes]}"
    )

    lock_waits: list[float] = []
    writer_seconds: list[float] = []
    for out_path in outputs:
        payload = json.loads(Path(out_path).read_text())
        lock_waits.extend(payload["lock_waits"])
        writer_seconds.append(payload["seconds"])

    store = ArtifactStore(root)
    checked, unique = _audit(store, _WRITERS, _OPS)
    assert checked == _WRITERS * _OPS
    unique_keys = len(unique)

    # the listing store stats and GC read holds exactly what was written
    namespaces: dict[str, int] = {}
    listed = []
    for namespace, key, *_ in store.backend.iter_entries():
        listed.append((namespace, key))
        namespaces[namespace] = namespaces.get(namespace, 0) + 1
    assert len(listed) == len(set(listed)), "an entry is listed twice"
    assert set(listed) == unique, "listing differs from the entries written"

    total_ops = _WRITERS * _OPS
    record = {
        "bench": "store_contention",
        "created_unix": round(time.time(), 3),
        "writers": _WRITERS,
        "ops_per_writer": _OPS,
        "unique_entries": unique_keys,
        "lost_entries": 0,
        "corrupt_entries": 0,
        "timings_seconds": {
            "wall": round(wall_seconds, 6),
            "slowest_writer": round(max(writer_seconds), 6),
        },
        "throughput_ops_per_second": round(total_ops / wall_seconds, 3),
        "lock_waits": {
            "acquisitions": len(lock_waits),
            "p50_seconds": round(_percentile(lock_waits, 0.50), 6),
            "p90_seconds": round(_percentile(lock_waits, 0.90), 6),
            "p99_seconds": round(_percentile(lock_waits, 0.99), 6),
            "max_seconds": round(max(lock_waits), 6) if lock_waits else 0.0,
        },
        "listed_entries": namespaces,
    }
    path = BENCH_DIRECTORY / "BENCH_store_contention.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    report_writer(
        "store_contention",
        "\n".join(
            [
                "Artifact store — multi-process write contention",
                f"  writers x ops      : {_WRITERS} x {_OPS} = {total_ops}",
                f"  unique entries     : {unique_keys} (0 lost, 0 corrupt)",
                f"  wall time          : {wall_seconds:.3f}s "
                f"({total_ops / wall_seconds:.0f} ops/s)",
                f"  lock acquisitions  : {len(lock_waits)}",
                "  lock wait p50/p90/p99: "
                f"{_percentile(lock_waits, 0.5) * 1000:.2f} / "
                f"{_percentile(lock_waits, 0.9) * 1000:.2f} / "
                f"{_percentile(lock_waits, 0.99) * 1000:.2f} ms",
            ]
        ),
    )
