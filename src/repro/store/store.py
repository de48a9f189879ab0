"""Content-addressed, on-disk artifact store.

The store persists every expensive artifact of the evaluation stack so warm
re-runs reuse instead of recompute:

* **blobs** (``objects/``) — raw content-addressed bytes: serialized ELF
  images and pickled program plans, named by their SHA-256.
* **corpus manifests** (``corpora/``) — one JSON document per built corpus,
  keyed by a digest of the build parameters (plan parameters, scenario,
  generator version).  A manifest row references each binary's ELF blob and
  plan blob and inlines its ground truth.
* **detection records** (``detections/``) — one
  :meth:`~repro.core.results.DetectionResult.to_record` record (starts,
  per-stage attribution, merged parts) per (binary digest, detector name,
  options digest) triple, shared by the CLI, the detection service and
  :meth:`~repro.eval.runner.CorpusEvaluator.run_detector`.  They are the
  one cache of detections: a :class:`~repro.eval.runner.ScenarioMatrix`
  re-run or a Figure 5 ladder over a warm store reads them and runs no
  detector.

The store is a layered subsystem (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.store.backend` owns the on-disk layout (two-level
  directory fanout, durable atomic writes);
* :mod:`repro.store.locking` provides the cross-process advisory
  :class:`FileLock` (a kernel ``flock`` with a timeout) wrapping GC and
  corpus-build arbitration;
* :mod:`repro.store.gc` evicts by age and size budget
  (``fetch-detect store gc``).

The object tree is the store's only listing: ``store stats``,
:meth:`corpus_manifests` and GC walk it
(:meth:`~repro.store.backend.FilesystemBackend.iter_entries`).

All artifact writes are atomic *and durable* (tempfile + fsync + rename +
directory fsync) so concurrent runs over one store never observe torn
artifacts, even across a crash.  The store root defaults to the
``REPRO_STORE_DIR`` environment variable, falling back to ``.repro-store``
in the working directory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pickle
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.store.backend import FilesystemBackend
from repro.store.digest import _plain, blob_digest, stable_digest
from repro.store.locking import FileLock, LockTimeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.gc import GCReport
    from repro.synth.compiler import SyntheticBinary

#: Bumped when the *record* format changes; part of every key, so a format
#: change invalidates old stores instead of misreading them.  (Keys never
#: depend on where :mod:`repro.store.backend` places a file.)
STORE_FORMAT = 1

#: Attribute attached to binaries whose ELF digest is already known (set on
#: store load and after the first digest computation), so reloaded binaries
#: are never re-serialized just to learn their own digest.
_DIGEST_ATTRIBUTE = "_store_elf_digest"

#: Seconds a GC pass waits for the store lock, and a corpus build for its
#: build lock before it builds anyway.
_LOCK_TIMEOUT = 30.0
_BUILD_LOCK_TIMEOUT = 600.0

#: Keep at most this many lock-wait samples (the contention benchmark
#: reads them; a long-lived service must not grow without bound).
_LOCK_WAIT_SAMPLES = 10_000


def default_store_root() -> Path:
    """The store root from ``REPRO_STORE_DIR``, or ``.repro-store``."""
    return Path(os.environ.get("REPRO_STORE_DIR") or ".repro-store")


def elf_bytes_of(binary: "SyntheticBinary") -> bytes:
    """The serialized ELF image of ``binary`` (kept bytes, else re-written)."""
    if binary.elf_bytes:
        return binary.elf_bytes
    from repro.elf.writer import write_elf

    return write_elf(binary.image.elf)


def digest_of_binary(binary: "SyntheticBinary") -> str:
    """The content digest of ``binary``'s serialized ELF image, memoized.

    Computed once per binary object and cached on it, so repeated
    submissions of one in-memory binary never re-serialize it — with or
    without a store.  Binaries loaded from a manifest carry the digest of
    the stored blob (re-serializing a *parsed* image is not byte-stable,
    the blob is the identity).
    """
    cached = getattr(binary, _DIGEST_ATTRIBUTE, None)
    if cached is not None:
        return cached
    digest = blob_digest(elf_bytes_of(binary))
    setattr(binary, _DIGEST_ATTRIBUTE, digest)
    return digest


class ArtifactStore:
    """Content-addressed cache of corpora and detection records.

    Thread safety: every write goes through the backend's durable atomic
    write (tempfile + fsync + ``os.replace``), so readers — in this
    process, in concurrent worker threads, or in other processes sharing
    the directory — observe either the complete artifact or none of it,
    never a torn file.  Two writers racing on one key both write the same
    content-addressed payload, so the loser's replace is harmless.  The
    :attr:`stats` counters are mutated under an internal lock, so
    concurrent workers (the :class:`~repro.eval.executor.ShardedWorkerPool`
    threads of the detection service) never lose increments; a
    multi-counter snapshot taken while workers run is still only
    approximate — take :meth:`stats_snapshot` deltas around quiescent
    points (as :class:`~repro.eval.runner.ScenarioMatrix` and the
    detection service do).

    Writes take no lock.  GC and corpus-build arbitration serialise across
    processes on advisory :class:`FileLock` files (GC on ``<root>/.lock``);
    the kernel frees a crashed holder's lock.  Per-acquisition wait times
    accumulate in :attr:`lock_waits` for the contention benchmark's
    percentiles.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.backend = FilesystemBackend(
            root if root is not None else default_store_root()
        )
        self.root = self.backend.root
        self._file_lock = FileLock(self.root / ".lock", timeout=_LOCK_TIMEOUT)
        self._stats_lock = threading.Lock()
        #: seconds waited per cross-process lock acquisition (bounded ring)
        self.lock_waits: list[float] = []
        self.stats: dict[str, int] = {
            "corpus_hits": 0,
            "corpus_misses": 0,
            "detection_hits": 0,
            "detection_misses": 0,
        }

    # -- plumbing -------------------------------------------------------
    def _bump(self, counter: str) -> None:
        """Increment one stats counter (lock-guarded: never loses updates)."""
        with self._stats_lock:
            self.stats[counter] += 1

    def _note_lock_wait(self, waited: float) -> None:
        with self._stats_lock:
            self.lock_waits.append(waited)
            if len(self.lock_waits) > _LOCK_WAIT_SAMPLES:
                del self.lock_waits[: _LOCK_WAIT_SAMPLES // 2]

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store-wide cross-process lock (GC only)."""
        self._note_lock_wait(self._file_lock.acquire())
        try:
            yield
        finally:
            self._file_lock.release()

    def _load_record(self, namespace: str, key: str) -> dict[str, Any] | None:
        """The record stored under ``key``; ``None`` when it is missing,
        unreadable, not a JSON object or of another format."""
        data = self.backend.load_record_bytes(namespace, key)
        if data is None:
            return None
        try:
            record = json.loads(data)
        except ValueError:
            return None
        if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
            return None
        return record

    def _save_record(self, namespace: str, key: str, record: dict[str, Any]) -> Path:
        record = {"format": STORE_FORMAT, **record}
        data = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
        return self.backend.save_record_bytes(namespace, key, data)

    # -- blobs ----------------------------------------------------------
    def blob_path(self, digest: str) -> Path:
        """Where the blob named ``digest`` lives (whether or not it exists):
        ``objects/ab/cd/<digest>`` under the store root."""
        return self.backend.blob_path(digest)

    def put_blob(self, data: bytes) -> str:
        """Store raw bytes under their SHA-256; returns the digest.

        Idempotent and safe to race: a blob that already exists is left
        untouched (content addressing makes re-writing it a no-op by
        definition), and a concurrent writer of the same bytes produces the
        identical file via the atomic-rename path.
        """
        digest = blob_digest(data)
        self.backend.save_blob(digest, data)
        return digest

    def get_blob(self, digest: str) -> bytes | None:
        """The bytes stored under ``digest``, or ``None`` when absent.

        Never raises on a missing or unreadable blob — garbage-collected
        objects read as cache misses, matching :meth:`load_corpus`.
        """
        return self.backend.load_blob(digest)

    # -- corpora --------------------------------------------------------
    def corpus_key(self, kind: str, params: dict[str, Any]) -> str:
        """Content key of a corpus: build kind + every build parameter."""
        return stable_digest({"kind": kind, "params": params, "format": STORE_FORMAT})

    def has_corpus(self, key: str) -> bool:
        return self._load_record("corpora", key) is not None

    @contextlib.contextmanager
    def build_lock(self, key: str) -> Iterator[None]:
        """Cross-process arbitration for one expensive build keyed ``key``.

        Two processes racing to build the same corpus serialise here: the
        loser waits, re-checks the store, and reloads instead of
        rebuilding.  On lock timeout the caller proceeds to build anyway —
        duplicated work is always preferred over a wedged build (the save
        race itself is benign: both writers produce the same key).
        """
        lock = FileLock(
            self.root / "locks" / f"build-{key[:16]}.lock",
            timeout=_BUILD_LOCK_TIMEOUT,
        )
        try:
            waited = lock.acquire()
        except LockTimeout:
            yield
            return
        self._note_lock_wait(waited)
        try:
            yield
        finally:
            lock.release()

    def save_corpus(
        self,
        key: str,
        kind: str,
        params: dict[str, Any],
        entries: Sequence[Any],
    ) -> Path:
        """Persist a built corpus under ``key``.

        ``entries`` are :class:`SyntheticBinary` objects or
        ``(WildProfile, SyntheticBinary)`` pairs (the wild corpus shape);
        :meth:`load_corpus` returns the same shape.
        """
        rows = []
        for entry in entries:
            profile, binary = entry if isinstance(entry, tuple) else (None, entry)
            elf_digest = self.put_blob(elf_bytes_of(binary))
            setattr(binary, _DIGEST_ATTRIBUTE, elf_digest)
            plan_digest = self.put_blob(pickle.dumps(binary.plan, protocol=4))
            rows.append(
                {
                    "name": binary.name,
                    "elf": elf_digest,
                    "plan": plan_digest,
                    "ground_truth": _ground_truth_to_record(binary.ground_truth),
                    "wild_profile": dataclasses.asdict(profile) if profile else None,
                }
            )
        return self._save_record(
            "corpora",
            key,
            {"kind": kind, "params": _plain(params), "binaries": rows},
        )

    def load_corpus(self, key: str) -> list[Any] | None:
        """Reload the corpus stored under ``key`` (``None`` on a miss).

        A manifest whose blobs have been garbage-collected counts as a miss,
        never as an error.
        """
        record = self._load_record("corpora", key)
        if record is None:
            self._bump("corpus_misses")
            return None
        from repro.elf.image import BinaryImage
        from repro.synth.compiler import SyntheticBinary
        from repro.synth.profiles import WildProfile

        entries: list[Any] = []
        for row in record["binaries"]:
            elf_data = self.get_blob(row["elf"])
            plan_data = self.get_blob(row["plan"])
            if elf_data is None or plan_data is None:
                self._bump("corpus_misses")
                return None
            binary = SyntheticBinary(
                name=row["name"],
                image=BinaryImage.from_bytes(elf_data, name=row["name"]),
                ground_truth=_ground_truth_from_record(row["ground_truth"]),
                plan=pickle.loads(plan_data),
            )
            setattr(binary, _DIGEST_ATTRIBUTE, row["elf"])
            if row.get("wild_profile"):
                entries.append((WildProfile(**row["wild_profile"]), binary))
            else:
                entries.append(binary)
        self._bump("corpus_hits")
        return entries

    def corpus_manifests(self) -> list[dict[str, Any]]:
        """Every stored corpus manifest, sorted by key (for
        ``fetch-detect corpus info``; one walk of ``corpora/``)."""
        manifests = []
        for _ns, key, *_ in sorted(self.backend.iter_entries("corpora")):
            record = self._load_record("corpora", key)
            if record is None:
                continue
            record["key"] = key
            manifests.append(record)
        return manifests

    # -- detection records ---------------------------------------------
    def detection_key(self, file_digest: str, detector: str, options_digest: str) -> str:
        """Content key of one detection run over one binary.

        Shared by the ``fetch-detect`` CLI, the detection service and the
        corpus evaluator, so a binary analysed through any front-end is
        warm for the others: the key depends only on the file's content
        digest, the detector name and its options/logic digest — never on
        the path or the submitting process.
        """
        return stable_digest(
            {"file": file_digest, "detector": detector, "options": options_digest}
        )

    def load_detection(self, key: str) -> dict[str, Any] | None:
        """The detection record stored under ``key``, or ``None``.

        The record is returned as stored; decode it with
        :meth:`~repro.core.results.DetectionResult.from_record`, which
        treats an incomplete record as a miss.
        """
        record = self._load_record("detections", key)
        if record is None:
            self._bump("detection_misses")
            return None
        self._bump("detection_hits")
        return record

    def save_detection(self, key: str, record: dict[str, Any]) -> Path:
        return self._save_record("detections", key, record)

    # -- maintenance ----------------------------------------------------
    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        dry_run: bool = False,
    ) -> "GCReport":
        """Evict derived artifacts by age and/or size budget (see
        :mod:`repro.store.gc`; corpus manifests are never evicted)."""
        from repro.store.gc import collect

        return collect(
            self,
            max_bytes=max_bytes,
            max_age_seconds=max_age_seconds,
            dry_run=dry_run,
        )

    # -- introspection --------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Root and cross-process lock statistics, without walking the
        tree (the service's ``stats`` payload carries it)."""
        with self._stats_lock:
            acquisitions = len(self.lock_waits)
            total_wait = sum(self.lock_waits)
        return {
            "root": str(self.root),
            "lock": {
                "acquisitions": acquisitions,
                "wait_seconds_total": round(total_wait, 6),
            },
        }

    def stats_snapshot(self) -> dict[str, int]:
        """A copy of the hit/miss counters (for ``BENCH_*.json`` records)."""
        with self._stats_lock:
            return dict(self.stats)

    def stats_delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter deltas since a previous :meth:`stats_snapshot`.

        The standard way to scope hit/miss accounting to one run (a matrix
        pass, a service batch) instead of the store's lifetime.
        """
        return {
            key: value - before.get(key, 0) for key, value in self.stats_snapshot().items()
        }


# ----------------------------------------------------------------------
# Record (de)serialization
# ----------------------------------------------------------------------

def _ground_truth_to_record(truth: Any) -> dict[str, Any]:
    return {
        "name": truth.name,
        "scenario": truth.scenario,
        "functions": [dataclasses.asdict(info) for info in truth.functions],
    }


def _ground_truth_from_record(record: dict[str, Any]) -> Any:
    from repro.synth.groundtruth import FunctionInfo, GroundTruth

    return GroundTruth(
        name=record["name"],
        scenario=record["scenario"],
        functions=[FunctionInfo(**fields) for fields in record["functions"]],
    )
