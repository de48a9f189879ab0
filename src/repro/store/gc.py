"""Garbage collection: age- and size-budgeted eviction for the store.

The store is append-only by design — every front-end dedupes through it —
so unbounded growth is its failure mode.  :func:`collect` (behind
``fetch-detect store gc`` and :meth:`ArtifactStore.gc`) evicts entries
from the *derived* namespaces (blobs and detection records)
oldest-first:

* ``max_age_seconds`` — anything not written/updated for longer is
  evicted;
* ``max_bytes`` — after the age pass, the oldest survivors are evicted
  until the evictable footprint fits the budget (LRU approximation: last
  write time is the file's mtime, so rewritten records count as freshly
  used).

Corpus *manifests* are never evicted — they are tiny, and a manifest
whose blobs were collected already degrades to a clean cache miss
(:meth:`ArtifactStore.load_corpus` rebuilds).  Eviction takes its
candidates from one walk of the tree and runs under the store's
cross-process lock, so two collectors never race.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.store.backend import BLOB_NAMESPACE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import ArtifactStore

#: Namespaces GC may evict from; corpus manifests are deliberately absent.
EVICTABLE_NAMESPACES = (BLOB_NAMESPACE, "detections")


@dataclass
class GCReport:
    """Outcome of one :func:`collect` run (``as_dict`` feeds the CLI/CI)."""

    dry_run: bool
    examined: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    by_namespace: dict[str, dict[str, int]] = field(default_factory=dict)

    def note(self, namespace: str, size: int, *, evicted: bool) -> None:
        bucket = self.by_namespace.setdefault(
            namespace, {"evicted": 0, "evicted_bytes": 0, "kept": 0, "kept_bytes": 0}
        )
        if evicted:
            self.evicted += 1
            self.evicted_bytes += size
            bucket["evicted"] += 1
            bucket["evicted_bytes"] += size
        else:
            self.kept += 1
            self.kept_bytes += size
            bucket["kept"] += 1
            bucket["kept_bytes"] += size

    def as_dict(self) -> dict[str, Any]:
        return {
            "dry_run": self.dry_run,
            "examined": self.examined,
            "evicted": self.evicted,
            "evicted_bytes": self.evicted_bytes,
            "kept": self.kept,
            "kept_bytes": self.kept_bytes,
            "by_namespace": self.by_namespace,
        }


def collect(
    store: "ArtifactStore",
    *,
    max_bytes: int | None = None,
    max_age_seconds: float | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> GCReport:
    """Evict evictable entries by age, then by size budget, oldest first.

    With neither bound set this is a no-op inventory pass (the shape the
    CI smoke invocation uses).  ``now`` exists for deterministic tests.
    """
    report = GCReport(dry_run=dry_run)
    clock = time.time() if now is None else now

    with store._locked():
        candidates = list(store.backend.iter_entries(*EVICTABLE_NAMESPACES))
        report.examined = len(candidates)
        # oldest last-use first; ties broken by key for determinism
        candidates.sort(key=lambda entry: (entry[3], entry[1]))

        evict: list[tuple[str, str, int, float]] = []
        survivors: list[tuple[str, str, int, float]] = []
        for namespace, key, size, last_use in candidates:
            if (
                max_age_seconds is not None
                and clock - last_use > max_age_seconds
            ):
                evict.append((namespace, key, size, last_use))
            else:
                survivors.append((namespace, key, size, last_use))

        if max_bytes is not None:
            remaining = sum(size for _ns, _key, size, _ts in survivors)
            index = 0  # survivors are already oldest-first
            while remaining > max_bytes and index < len(survivors):
                entry = survivors[index]
                evict.append(entry)
                remaining -= entry[2]
                index += 1
            survivors = survivors[index:]

        for namespace, key, size, _last_use in evict:
            if not dry_run:
                size = store.backend.delete(namespace, key) or size
            report.note(namespace, size, evicted=True)
        for namespace, _key, size, _last_use in survivors:
            report.note(namespace, size, evicted=False)
    return report
