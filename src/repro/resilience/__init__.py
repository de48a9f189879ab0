"""Resilience substrate: deterministic fault injection and recovery policies.

Two halves, consumed by the real execution paths (service, executor, store):

* :mod:`repro.resilience.faults` — a seeded, reproducible fault-injection
  plane.  Named *sites* threaded through the stack (detector invocation,
  worker loops, process-pool fan-out, store writes, lock acquisition) call
  :func:`faults.fire`; with no plan installed the call is a no-op.  A plan
  (``REPRO_FAULTS`` / ``--faults``) injects raised exceptions, delays, torn
  store writes and hard worker kills, each decided by a hash of
  ``(seed, site, key, occurrence)`` so every failure is reproducible from
  its seed.
* :mod:`repro.resilience.policy` — the recovery policies the injected
  faults exercise: :func:`retry` (bounded attempts, deterministic
  exponential backoff) with its classifier :func:`retryable`,
  :class:`DetectorTimeout` (a shard child's
  detection outlived its budget; the child is killed and replaced) and
  :class:`ResilienceConfig` (the service-facing bundle).

``benchmarks/bench_chaos.py`` drives a corpus batch under a configured
fault plan and proves the contract: zero lost entries, surviving results
byte-identical to a fault-free run.
"""

from repro.resilience.faults import (
    FaultInjected,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    TornWrite,
    WorkerKilled,
)
from repro.resilience.policy import (
    DetectorTimeout,
    ResilienceConfig,
    failure_record,
    retry,
    retryable,
)

__all__ = [
    "DetectorTimeout",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "ResilienceConfig",
    "TornWrite",
    "WorkerKilled",
    "failure_record",
    "retry",
    "retryable",
]
