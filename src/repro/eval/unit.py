"""The detection unit every front-end shares.

``fetch-detect FILE``, :class:`~repro.service.DetectionService` and
:meth:`~repro.eval.runner.CorpusEvaluator.run_detector` cache one
``DetectionResult.to_record()`` per (binary, detector, options) under
``ArtifactStore.detection_key``, so a binary analysed through any of them is
warm for the others.  :func:`detect_entry` is the whole unit: store lookup;
on a miss, parse, build the context, detect under the resilience policy and
persist.  Store operations degrade instead of failing: a read that keeps
failing is a miss, and a detection that cannot be persisted still succeeds.
The detection itself may run elsewhere: the service hands
:func:`detect_bytes` to a child process through ``detect_entry``'s ``run``
hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.context import AnalysisContext
from repro.core.results import DetectionResult
from repro.elf.image import BinaryImage
from repro.resilience import faults
from repro.resilience.policy import ResilienceConfig, RetryPolicy, failure_record
from repro.store import ArtifactStore, options_digest

_RESILIENCE = ResilienceConfig()
_STORE_POLICY = _RESILIENCE.store_policy()


def _ignore(counter: str) -> None:
    """The default ``count`` hook, for callers that keep no counters."""


def detector_name(detector: Any) -> str:
    """The registered name of a detector instance (its class name if unset)."""
    return getattr(detector, "name", type(detector).__name__)


@dataclass
class Entry:
    """One binary: its identity, its bytes, and the image and context built
    from them on the first cache miss (then reused by later detectors)."""

    name: str
    digest: str
    data: bytes = b""
    image: BinaryImage | None = None
    context: AnalysisContext | None = field(default=None, repr=False)


@dataclass
class Detection:
    """The outcome of one :func:`detect_entry` call: the result (``None`` on
    failure), whether the store served it, a one-line ``Type: message``
    error, and a structured ``failure`` record when the unit failed or its
    store write degraded."""

    result: DetectionResult | None = None
    cached: bool = False
    error: str | None = None
    failure: dict[str, Any] | None = None


def lookup_detection(
    store: ArtifactStore,
    key: str,
    *,
    policy: RetryPolicy = _STORE_POLICY,
    count: Callable[[str], None] = _ignore,
) -> DetectionResult | None:
    """The detection stored under ``key``; ``None`` for a missing or
    incomplete record and for a read that keeps failing."""
    try:
        record = policy.run(
            lambda: store.load_detection(key),
            on_retry=lambda attempt, error: count("store_retries"),
        )
    except Exception:  # noqa: BLE001 - degrade to a miss
        count("store_degraded")
        return None
    return DetectionResult.from_record(record)


def persist_detection(
    store: ArtifactStore,
    key: str,
    name: str,
    detector: str,
    result: DetectionResult,
    *,
    policy: RetryPolicy = _STORE_POLICY,
    count: Callable[[str], None] = _ignore,
) -> dict[str, Any] | None:
    """Save ``result`` under ``key``; the failure record if the write keeps
    failing, else ``None``."""
    record = {"path": name, "detector": detector, **result.to_record()}
    try:
        policy.run(
            lambda: store.save_detection(key, record),
            on_retry=lambda attempt, error: count("store_retries"),
        )
    except Exception as error:  # noqa: BLE001 - persistence degrades
        count("store_degraded")
        return failure_record(error, site="store.save")
    return None


class UnparsableEntry(Exception):
    """Carries the parse error of an entry parsed in another process.

    An entry whose bytes do not parse is the entry's failure, not the
    detector's: :func:`detect_entry` raises the carried error, unretried,
    as it raises a parse error of its own."""


def detect_bytes(task: tuple[str, bytes, Any]) -> dict[str, Any]:
    """One detection from ``(name, data, detector)``, as a child process
    runs it: parse, build a fresh context, detect; returns the result's
    :meth:`~repro.core.results.DetectionResult.to_record`."""
    name, data, detector = task
    try:
        image = BinaryImage.from_bytes(data, name=name)
    except Exception as error:  # noqa: BLE001 - the entry's own failure
        raise UnparsableEntry(error) from None
    return detector.detect(image, AnalysisContext(image)).to_record()


def _failed(error: BaseException, **failure: Any) -> Detection:
    return Detection(
        error=f"{type(error).__name__}: {error}", failure=failure_record(error, **failure)
    )


def detect_entry(
    entry: Entry,
    detector: Any,
    *,
    store: ArtifactStore | None = None,
    resilience: ResilienceConfig = _RESILIENCE,
    count: Callable[[str], None] = _ignore,
    run: Callable[[], DetectionResult] | None = None,
) -> Detection:
    """Detect function starts in ``entry`` with ``detector``, through ``store``.

    The detector runs only on a store miss, inline on this thread and with
    no time budget.  A unit that exhausts its policy returns ``error`` and
    a ``failure`` record; an entry whose bytes do not parse raises.
    ``count`` is told of each detector run and retry, each store retry and
    each degraded store operation.  ``run``, when given, makes one
    detection attempt in place of this thread (and owns its timeout): the
    entry is then neither parsed nor given a context here.
    """
    name = detector_name(detector)
    store_policy = resilience.store_policy()
    key = None
    if store is not None:
        key = store.detection_key(entry.digest, name, options_digest(detector))
        cached = lookup_detection(store, key, policy=store_policy, count=count)
        if cached is not None:
            return Detection(cached, cached=True)

    if run is None:
        if entry.image is None:
            entry.image = BinaryImage.from_bytes(entry.data, name=entry.name)
        if entry.context is None:
            entry.context = AnalysisContext(entry.image)
        image, context = entry.image, entry.context

        def run() -> DetectionResult:
            return detector.detect(image, context)

    detect_policy = resilience.detect_policy()
    attempts = 0

    def invoke() -> DetectionResult:
        nonlocal attempts
        attempts += 1
        count("detector_runs")
        faults.fire("detect", f"{entry.digest}:{name}")
        return run()

    try:
        result = detect_policy.run(
            invoke, on_retry=lambda attempt, error: count("detector_retries")
        )
    except UnparsableEntry as carried:
        raise carried.args[0] from None
    except Exception as error:  # noqa: BLE001 - fail this unit only
        return _failed(
            error, site="detect", attempts=attempts, retryable=detect_policy.classify(error)
        )
    failure = None
    if key is not None:
        failure = persist_detection(
            store, key, entry.name, name, result, policy=store_policy, count=count
        )
    return Detection(result, failure=failure)
