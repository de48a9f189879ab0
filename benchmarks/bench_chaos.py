"""Chaos benchmark — the detection service under an injected fault storm.

Runs the same corpus twice through :class:`~repro.service.DetectionService`:
once fault-free (the reference), once under a seeded
:class:`~repro.resilience.faults.FaultPlan` that raises transient detector
errors, SIGKILL-kills worker threads mid-dispatch, tears artifact-store
writes and delays lock acquisitions.  Service traffic takes no store lock,
so a garbage-collection pass over the chaos store, still under the plan,
follows the run: GC is what takes the lock.  The run then proves the
resilience contract rather than sampling it:

* **zero lost entries** — every submitted (binary × detector) unit produces
  a result under chaos;
* **zero failed units** — the detector-fault budget (``max`` injections)
  is set below the retry budget, so every transient burst is survivable
  by construction;
* **byte-identical survivors** — each chaos result's ``function_starts``
  equals the fault-free run's;
* **records survive GC** — every detection record the chaos run stored
  still loads, and decodes to the fault-free starts, after the delayed GC.

``BENCH_chaos.json`` records both wall clocks, the recovery overhead ratio,
the per-site injection counts actually fired, the service's resilience
counters (retries, worker restarts, requeues, degraded store operations)
and the GC pass's report.

Knobs: ``REPRO_CHAOS_SEED`` (default 2021) seeds the fault plan;
``REPRO_BENCH_CHAOS_BINARIES`` (default 6) sizes the corpus.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.registry import create_detector
from repro.core.results import DetectionResult
from repro.resilience import faults
from repro.resilience.policy import ResilienceConfig
from repro.service import DetectionService
from repro.store import ArtifactStore, options_digest
from repro.synth import build_selfbuilt_corpus

BENCH_DIRECTORY = Path(__file__).resolve().parent.parent

_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2021"))
_BINARIES = max(2, int(os.environ.get("REPRO_BENCH_CHAOS_BINARIES", "6")))

#: retry budget given to the chaos service
_DETECT_ATTEMPTS = 4

#: The storm. The detector-raise budget (max=3) is strictly below the
#: retry budget (attempts=4), so no unit can exhaust its retries even if
#: every injection lands on the same unit's consecutive attempts — zero
#: failed units is guaranteed by construction, and asserted.  Worker kills
#: and store faults carry no budget: supervision requeues killed tasks and
#: store failures degrade to cache misses, neither can lose a unit.  The
#: lock delay fires on every acquisition: the one GC pass after the run is
#: the only lock taker, and at ``rate=0.3`` its single draw misses on the
#: default seed.
_PLAN = (
    f"seed={_SEED};"
    "detect:raise:rate=0.35,max=3;"
    "worker:kill:rate=0.4;"
    "store.write:torn:rate=0.5;"
    "store.lock:delay:seconds=0.002"
)


def _run_service(corpus, *, store=None, resilience=None):
    started = time.perf_counter()
    with DetectionService(workers=3, store=store, resilience=resilience) as service:
        handle = service.submit(corpus)
        results = list(handle.results(timeout=600))
        stats = service.stats()
    return results, stats, time.perf_counter() - started


def test_chaos_storm_loses_nothing(tmp_path):
    corpus = build_selfbuilt_corpus(scale=0.3, max_binaries=_BINARIES, seed=2021)

    clean_results, _, clean_seconds = _run_service(corpus)
    clean = {(r.name, r.detector): r.function_starts for r in clean_results}

    resilience = ResilienceConfig(detect_attempts=_DETECT_ATTEMPTS, backoff_base=0.001)
    store = ArtifactStore(tmp_path / "chaos-store")
    with faults.injected(_PLAN) as injector:
        chaos_results, stats, chaos_seconds = _run_service(
            corpus, store=store, resilience=resilience
        )
        keys = {
            (r.name, r.detector): store.detection_key(
                r.digest, r.detector, options_digest(create_detector(r.detector))
            )
            for r in chaos_results
        }
        stored = {
            key for _namespace, key, _size, _mtime in store.backend.iter_entries("detections")
        }
        gc_report = store.gc(max_age_seconds=3600.0)
    # every planned site:kind, so a fault that never fired records 0
    injections = {
        f"{fault.site}:{fault.kind}": 0 for fault in injector.plan.faults
    } | injector.injection_counts()

    # -- the contract ---------------------------------------------------
    observed = {(r.name, r.detector): r for r in chaos_results}
    lost = sorted(set(clean) - set(observed))
    assert not lost, f"entries lost under chaos: {lost}"
    assert len(chaos_results) == len(clean_results)

    failed = sorted(key for key, r in observed.items() if not r.ok)
    assert not failed, f"units failed despite the survivable budget: {failed}"

    mismatched = sorted(
        key
        for key, r in observed.items()
        if r.function_starts != clean[key]
    )
    assert not mismatched, f"chaos results diverge from fault-free run: {mismatched}"

    # the storm must actually have hit, or this proves nothing: transient
    # detector faults, worker kills and store faults must all have fired
    assert injections.get("detect:raise", 0) > 0, "no detector faults fired"
    assert injections.get("worker:kill", 0) > 0, "no worker kills fired"
    assert injections.get("store.write:torn", 0) > 0, "no torn writes fired"
    assert stats["resilience"]["worker_restarts"] == injections["worker:kill"]
    # each injected detector fault costs exactly one retry (max=3 < attempts=4)
    assert stats["resilience"]["detector_retries"] == injections["detect:raise"]
    assert injections.get("store.lock:delay", 0) > 0, "the GC pass took no delayed lock"

    # the GC pass keeps every record the chaos run stored, loadable and right
    survivors = {unit: key for unit, key in keys.items() if key in stored}
    assert survivors, "the chaos run stored no detection record"
    unloadable = sorted(
        unit
        for unit, key in survivors.items()
        if (
            decoded := DetectionResult.from_record(store.load_detection(key))
        ) is None
        or tuple(sorted(decoded.function_starts)) != clean[unit]
    )
    assert not unloadable, f"records lost or changed by GC: {unloadable}"

    record = {
        "benchmark": "chaos",
        "plan": _PLAN,
        "binaries": len(corpus),
        "entries": len(clean),
        "lost_entries": len(lost),
        "failed_units": len(failed),
        "mismatched_survivors": len(mismatched),
        "seconds_clean": round(clean_seconds, 3),
        "seconds_chaos": round(chaos_seconds, 3),
        "recovery_overhead": round(chaos_seconds / max(clean_seconds, 1e-9), 3),
        "injections": injections,
        "resilience": stats["resilience"],
        "gc": gc_report.as_dict(),
        "records_after_gc": len(survivors),
    }
    path = BENCH_DIRECTORY / "BENCH_chaos.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nchaos: {json.dumps(record, indent=2, sort_keys=True)}")
