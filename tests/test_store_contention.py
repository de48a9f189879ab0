"""Multi-process store contention: concurrent writers, nothing lost.

Forks several writer processes that hammer one shared store with mixed
``put_blob`` / ``save_detection`` traffic (two detectors' records), then
audits from the parent: every record loads back intact and the store's
listing (the tree walk ``store stats`` and GC read) holds exactly the
entries the writers wrote.  This is the tier-1 sibling of
``benchmarks/bench_store_contention.py`` — same traffic shape, sized to
stay fast.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.store import ArtifactStore, blob_digest

WRITERS = 4
OPS = 18


def _payload(writer: int, op: int) -> bytes:
    return f"contention {writer}:{op} ".encode() * 16


def _detector(op: int) -> str:
    """Kind-1 ops write ``ida`` detection records, kind-2 ops ``fetch`` ones."""
    return "ida" if op % 3 == 1 else "fetch"


def _writer_main(root: str, writer: int, done_path: str) -> None:
    store = ArtifactStore(root)
    for op in range(OPS):
        payload = _payload(writer, op)
        kind = op % 3
        if kind == 0:
            store.put_blob(payload)
        else:
            key = store.detection_key(
                blob_digest(payload), _detector(op), "test-options"
            )
            store.save_detection(
                key, {"writer": writer, "op": op, "function_starts": [op]}
            )
    Path(done_path).write_text(json.dumps({"lock_waits": len(store.lock_waits)}))


@pytest.mark.parametrize("writers", [WRITERS])
def test_forked_writers_lose_nothing(tmp_path, writers):
    root = tmp_path / "shared-store"
    context = multiprocessing.get_context("fork")
    done_paths = [str(tmp_path / f"done-{index}.json") for index in range(writers)]
    processes = [
        context.Process(target=_writer_main, args=(str(root), index, done_paths[index]))
        for index in range(writers)
    ]
    for process in processes:
        process.start()
    deadline = time.monotonic() + 60
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    assert all(process.exitcode == 0 for process in processes), (
        f"writer exit codes: {[process.exitcode for process in processes]}"
    )

    store = ArtifactStore(root)
    written: set[tuple[str, str]] = set()
    for writer in range(writers):
        assert Path(done_paths[writer]).exists()
        for op in range(OPS):
            payload = _payload(writer, op)
            kind = op % 3
            if kind == 0:
                assert store.get_blob(blob_digest(payload)) == payload
                written.add(("objects", blob_digest(payload)))
            else:
                key = store.detection_key(
                    blob_digest(payload), _detector(op), "test-options"
                )
                loaded = store.load_detection(key)
                assert loaded is not None
                assert (loaded["writer"], loaded["op"]) == (writer, op)
                written.add(("detections", key))

    listed = [(namespace, key) for namespace, key, *_ in store.backend.iter_entries()]
    assert len(listed) == len(set(listed))
    assert set(listed) == written


def test_concurrent_corpus_builders_share_one_build(tmp_path):
    """Racing builders arbitrate on the build lock: both corpora load, and
    the store ends up with exactly one manifest."""
    from repro.synth import build_scenario_corpus

    root = tmp_path / "corpus-store"
    params = {"programs": 1, "scale": 0.1, "seed": 55}

    def build(out_path: str) -> None:
        store = ArtifactStore(root)
        corpus = build_scenario_corpus("vanilla", store=store, **params)
        Path(out_path).write_text(json.dumps([binary.name for binary in corpus]))

    context = multiprocessing.get_context("fork")
    out_paths = [str(tmp_path / f"names-{index}.json") for index in range(2)]
    processes = [
        context.Process(target=build, args=(out_path,)) for out_path in out_paths
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes)

    names = [json.loads(Path(out_path).read_text()) for out_path in out_paths]
    assert names[0] == names[1]
    assert len(ArtifactStore(root).corpus_manifests()) == 1
