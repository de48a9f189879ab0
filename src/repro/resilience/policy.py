"""Recovery policies consumed by the real execution paths.

The counterpart of :mod:`repro.resilience.faults`: where the fault plane
breaks things on purpose, this module is how the service/executor/store
layers absorb those breaks (and the real-world failures they model).

* :class:`RetryPolicy` — bounded attempts with deterministic exponential
  backoff and an exception classifier (``LockTimeout`` and transient I/O
  errors retry; a deliberate :class:`DetectorTimeout` does not).
* :class:`DetectorTimeout` — raised when a detection in a shard child
  outlives its budget; the pool kills and replaces the child, so nothing
  of the wedged detection keeps running.
* :class:`ResilienceConfig` — the service-facing bundle of settings, with
  factories for the detector and store retry policies.
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

    Not retryable by default: the timeout *is* the policy decision —
    re-running a wedged detector would just wedge again."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``backoff(attempt)`` is a pure function of the policy and the attempt
    number — no jitter — so a retried schedule is reproducible, matching
    the determinism contract of the fault plane.
    """

    attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.25
    multiplier: float = 2.0
    #: exception types worth retrying (transient by construction)
    retryable: tuple[type[BaseException], ...] = (
        OSError,
        TimeoutError,
        ConnectionError,
        FaultInjected,
    )
    #: checked before ``retryable`` — subclasses that must NOT retry
    non_retryable: tuple[type[BaseException], ...] = (DetectorTimeout,)

    def classify(self, error: BaseException) -> bool:
        """True if ``error`` is worth another attempt."""
        if isinstance(error, self.non_retryable):
            return False
        return isinstance(error, self.retryable)

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based), capped."""
        delay = self.base_delay * (self.multiplier ** max(0, attempt - 1))
        return min(delay, self.max_delay)

    def run(
        self,
        fn: Callable[[], T],
        *,
        on_retry: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Call ``fn`` up to ``attempts`` times; re-raise the last error.

        ``on_retry(attempt, error)`` fires before each backoff sleep so
        callers can count retries for their stats.
        """
        last: BaseException | None = None
        for attempt in range(1, max(1, self.attempts) + 1):
            try:
                return fn()
            except Exception as error:
                last = error
                if attempt >= self.attempts or not self.classify(error):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(self.backoff(attempt))
        raise last  # pragma: no cover - unreachable (loop always returns/raises)


@dataclass(frozen=True)
class ResilienceConfig:
    """Service-facing resilience settings (one bundle per ``DetectionService``).

    Store reads and writes get :class:`RetryPolicy`'s default 3 attempts,
    and both policies cap a backoff at its default 0.25 s."""

    #: attempts per detector invocation (1 = no retries)
    detect_attempts: int = 3
    #: seconds a detection in a shard child (a detector given by name) may
    #: run before the child is killed and replaced; 0 disables the budget.
    #: A detector instance runs on the shard thread and is not bounded.
    detector_timeout: float = 0.0
    #: delay before the first retry; later retries double it
    backoff_base: float = 0.005

    def detect_policy(self) -> RetryPolicy:
        return RetryPolicy(attempts=self.detect_attempts, base_delay=self.backoff_base)

    def store_policy(self) -> RetryPolicy:
        """Store faults degrade (a miss, an unpersisted result), never fail a unit."""
        return RetryPolicy(base_delay=self.backoff_base)


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
