"""Persistent detection service: batch submission over a long-lived pool.

The service layer turns the repository from "a script that reproduces
tables" into "a system that serves detection": a
:class:`DetectionService` stays up across batches, shards incoming
binaries over its worker pool by content digest, dedupes against the
:class:`~repro.store.ArtifactStore` before any detector runs, and streams
per-entry results back through :class:`JobHandle`.  Typical wiring::

    from repro.service import DetectionService
    from repro.store import ArtifactStore

    with DetectionService(workers=4, store=ArtifactStore()) as service:
        handle = service.submit(paths, detectors=["fetch"])
        for result in handle.results():
            ...

``fetch-detect serve`` exposes the same service over the JSON-lines
protocol in :mod:`repro.service.protocol` — over stdin/stdout by default,
or to many concurrent network clients via ``fetch-detect serve --tcp``
(:class:`DetectionServer` in :mod:`repro.service.server`, one
:class:`ServeSession` per connection).  ``fetch-detect submit`` is the
one-shot batch client; with ``--connect`` it speaks to a running server
through :class:`ServiceClient`.
"""

from repro.service.client import ServerError, ServiceClient
from repro.service.protocol import DEFAULT_MAX_LINE_BYTES, ServeSession
from repro.service.server import DetectionServer
from repro.service.service import (
    DetectionService,
    EntryResult,
    JobHandle,
    JobState,
    ServiceClosed,
    ServiceSaturated,
)

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "DetectionServer",
    "DetectionService",
    "EntryResult",
    "JobHandle",
    "JobState",
    "ServeSession",
    "ServerError",
    "ServiceClient",
    "ServiceClosed",
    "ServiceSaturated",
]
