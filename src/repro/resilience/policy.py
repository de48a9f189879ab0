"""Recovery policies consumed by the real execution paths.

The counterpart of :mod:`repro.resilience.faults`: where the fault plane
breaks things on purpose, this module is how the service/executor/store
layers absorb those breaks (and the real-world failures they model).

* :func:`retry` — bounded attempts with deterministic exponential
  backoff, and :func:`retryable`, its exception classifier (transient I/O
  errors, ``LockTimeout`` included, and injected faults retry; a
  deliberate :class:`DetectorTimeout` does not).
* :class:`DetectorTimeout` — raised when a detection in a shard child
  outlives its budget; the pool kills and replaces the child, so nothing
  of the wedged detection keeps running.
* :class:`ResilienceConfig` — the service-facing bundle of settings.
* :func:`failure_record` — the structured ``failure`` dict attached to an
  ``EntryResult`` when an entry degrades instead of completing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.resilience.faults import FaultInjected

T = TypeVar("T")


class DetectorTimeout(TimeoutError):
    """A detector exceeded its per-entry wall-clock budget.

    Never retried (see :func:`retryable`): the timeout *is* the policy
    decision — re-running a wedged detector would just wedge again."""


#: Each retry waits ``BACKOFF_MULTIPLIER`` times longer than the one
#: before, and never longer than ``MAX_BACKOFF`` seconds.
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 0.25


def retryable(error: BaseException) -> bool:
    """True if ``error`` is worth another attempt: an ``OSError`` (which
    covers ``TimeoutError``, ``ConnectionError`` and the store's
    ``LockTimeout``) or an injected fault, but never a deliberate
    :class:`DetectorTimeout`."""
    if isinstance(error, DetectorTimeout):
        return False
    return isinstance(error, (OSError, FaultInjected))


def retry(
    fn: Callable[[], T],
    *,
    attempts: int,
    base_delay: float,
    on_retry: Callable[[], None] | None = None,
) -> T:
    """Call ``fn`` up to ``attempts`` times; re-raise the last error, or
    the first one that is not :func:`retryable`.

    Retry number ``n`` sleeps ``base_delay * BACKOFF_MULTIPLIER ** (n - 1)``
    seconds, capped at :data:`MAX_BACKOFF` — no jitter, so a retried
    schedule is reproducible, matching the determinism contract of the
    fault plane.  ``on_retry()`` fires before each sleep so callers can
    count retries for their stats.
    """
    for attempt in range(1, attempts):
        try:
            return fn()
        except Exception as error:
            if not retryable(error):
                raise
        if on_retry is not None:
            on_retry()
        time.sleep(min(base_delay * BACKOFF_MULTIPLIER ** (attempt - 1), MAX_BACKOFF))
    return fn()


@dataclass(frozen=True)
class ResilienceConfig:
    """Service-facing resilience settings (one bundle per ``DetectionService``).

    Store writes get 3 attempts with the same backoff; store reads are not
    retried (the store answers an unreadable record with a miss)."""

    #: attempts per detector invocation (1 = no retries)
    detect_attempts: int = 3
    #: seconds a detection in a shard child (a detector given by name) may
    #: run before the child is killed and replaced; 0 disables the budget.
    #: A detector instance runs on the shard thread and is not bounded.
    detector_timeout: float = 0.0
    #: delay before the first retry; later retries double it
    backoff_base: float = 0.005


def failure_record(
    error: BaseException, *, site: str, attempts: int = 1, **extra: Any
) -> dict[str, Any]:
    """The structured ``failure`` payload carried by a degraded ``EntryResult``."""
    record: dict[str, Any] = {
        "site": site,
        "kind": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
        "retryable": False,
    }
    record.update(extra)
    return record
