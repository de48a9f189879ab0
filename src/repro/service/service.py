"""The persistent detection service.

:class:`DetectionService` turns the repository's batch-evaluation substrate
— the detector registry, the content-addressed :class:`ArtifactStore` and
the :mod:`repro.eval.executor` fan-out — into a process that stays up and
serves detection requests:

* a long-lived :class:`~repro.eval.executor.ShardedWorkerPool` survives
  across batches, so worker start-up is paid once per service, not per
  request; each shard thread runs the detectors a request *names* in its
  own child process, so ``workers`` shards use ``workers`` cores;
* a binary whose results are all in the in-memory memo is answered on
  the submitting thread; the rest are sharded across workers by content
  digest, so duplicate submissions serialise behind each other and dedupe
  against the store (or the memo) before any detector runs;
* jobs move through queued → running → done states with per-job progress,
  and admission is bounded: a full queue either blocks the submitter or
  rejects the batch (:class:`ServiceSaturated`), per the configured
  backpressure policy;
* results stream — :meth:`JobHandle.results` yields each
  :class:`EntryResult` (with :class:`~repro.eval.metrics.BinaryMetrics`
  when ground truth is available) as it completes, not when the batch ends.

A failure is always entry-scoped: an unreadable file or a detector raising
mid-batch produces an ``error`` result for that entry alone, and every
other entry of the job completes normally.

The service is exposed two ways: this in-process Python API, and the
JSON-lines front-end in :mod:`repro.service.protocol` behind the
``fetch-detect serve`` / ``fetch-detect submit`` CLI verbs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.registry import create_detectors
from repro.core.results import DetectionResult
from repro.eval.executor import ShardedWorkerPool
from repro.eval.metrics import BinaryMetrics, compute_metrics
from repro.eval.unit import Entry, detect_bytes, detect_entry, detector_name
from repro.resilience.policy import ResilienceConfig, failure_record
from repro.store import ArtifactStore, blob_digest, digest_of_binary, options_digest


class ServiceSaturated(RuntimeError):
    """Raised by :meth:`DetectionService.submit` under the ``reject`` policy
    when admitting the batch would overflow the bounded queue."""


class ServiceClosed(RuntimeError):
    """Raised when submitting to a service that has been closed."""


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"


@dataclass
class EntryResult:
    """One (binary × detector) outcome, streamed as it completes."""

    name: str
    digest: str
    detector: str
    #: served from the store / in-memory memo without running the detector
    cached: bool = False
    function_starts: tuple[int, ...] = ()
    #: ground-truth comparison, when the submission carried ground truth
    metrics: BinaryMetrics | None = None
    #: ``None`` on success; a one-line ``Type: message`` rendering otherwise
    error: str | None = None
    #: structured degradation record (site, kind, attempts, …) when the
    #: unit failed — or when it *succeeded* but a store operation degraded
    failure: dict[str, Any] | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class JobHandle:
    """Observer handle for one submitted batch.

    Completed results accumulate on the handle and are pushed to every
    listener registered with :meth:`subscribe` as they land, so
    :meth:`results` can be consumed concurrently with the workers and
    re-iterated afterwards;
    :meth:`wait` blocks until the job is done.  All methods are safe to call
    from any thread.
    """

    def __init__(self, job_id: int, total: int):
        self.job_id = job_id
        self.total = total
        self._completed: list[EntryResult] = []
        self._listeners: list[Callable[[EntryResult], None]] = []
        self._started = False
        self._cond = threading.Condition()

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> JobState:
        with self._cond:
            if len(self._completed) < self.total:
                return JobState.RUNNING if self._started else JobState.QUEUED
        return JobState("done")

    def progress(self) -> tuple[int, int]:
        """``(completed units, total units)`` — a unit is binary × detector."""
        with self._cond:
            return len(self._completed), self.total

    # -- consumption ----------------------------------------------------
    def subscribe(self, listener: Callable[[EntryResult], None]) -> None:
        """Call ``listener`` with every result: a replay of the results
        completed so far, then each new one as it lands (completion order).

        Listeners run on the completing worker thread, under the handle's
        condition and before waiters wake, so once :meth:`wait` returns
        every listener has seen the last result.  They must be quick and
        must not raise.  A done job keeps no listeners.
        """
        with self._cond:
            for result in self._completed:
                listener(result)
            if len(self._completed) < self.total:
                self._listeners.append(listener)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is done; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._completed) < self.total:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def results(self, timeout: float | None = None) -> Iterator[EntryResult]:
        """Yield each :class:`EntryResult` as it completes (completion order).

        Safe to call while workers are still running — the iterator blocks
        until the next result lands — and safe to call again afterwards (it
        replays the completed results).  ``timeout`` bounds the wait for
        each *next result* and raises ``TimeoutError`` when exceeded.
        """
        landed: SimpleQueue[EntryResult] = SimpleQueue()
        self.subscribe(landed.put)
        for index in range(self.total):
            try:
                yield landed.get(timeout=timeout)
            except Empty:
                raise TimeoutError(
                    f"job {self.job_id}: no result within {timeout}s "
                    f"({index}/{self.total} complete)"
                ) from None

    # -- worker side ----------------------------------------------------
    def _mark_running(self) -> None:
        with self._cond:
            self._started = True

    def _complete(self, result: EntryResult) -> None:
        with self._cond:
            self._completed.append(result)
            for listener in self._listeners:
                listener(result)
            if len(self._completed) >= self.total:
                # a listener is a closure over its subscriber, so keeping it
                # would tie the finished handle and the subscriber together
                self._listeners.clear()
            self._cond.notify_all()


@dataclass
class _Entry(Entry):
    """One admitted binary: a detection :class:`Entry` plus optional truth."""

    ground_truth: Any = None
    #: admission-time failure (unreadable file); detectors never run
    error: str | None = None


class DetectionService:
    """A long-lived function-detection service over a shared worker pool.

    Wraps the substrate grown by the evaluation stack — detectors resolved
    by name through :mod:`repro.core.registry`, results cached by content
    digest in an :class:`ArtifactStore`, fan-out via
    :class:`~repro.eval.executor.ShardedWorkerPool` — behind a
    batch-submission API::

        with DetectionService(workers=4, store=ArtifactStore(".repro-store")) as service:
            handle = service.submit(paths, detectors=["fetch", "ghidra"])
            for result in handle.results():      # streamed as they complete
                print(result.name, result.detector, len(result.function_starts))

    Submissions may be file paths or in-memory corpus entries
    (:class:`~repro.synth.compiler.SyntheticBinary`); the latter carry
    ground truth, so their results include
    :class:`~repro.eval.metrics.BinaryMetrics`.  Identical binaries — within
    a batch, across batches, or across processes sharing the store — run a
    detector at most once: an entry whose units are all in the in-memory
    memo is answered at admission, the rest shard by content digest, and
    each unit checks the memo again (a duplicate may have been admitted
    while its first copy ran) before running the shared
    :func:`~repro.eval.unit.detect_entry`, which checks the store.
    :attr:`detector_runs` counts the invocations that actually happened, so
    a warm batch can assert it did none.

    ``queue_limit`` bounds the number of *entries* (binaries) queued or
    running across all jobs; ``0`` disables the bound.  ``backpressure``
    picks what :meth:`submit` does when the bound is hit: ``"block"``
    admits entries one at a time as workers free capacity (the submitter
    waits), ``"reject"`` refuses the whole batch atomically with
    :class:`ServiceSaturated`.  ``resilience`` bundles the failure-handling
    settings (detector retries and the shard child's detection timeout);
    the default keeps retries on and the timeout off.

    The service is built to stay up: its in-process state is bounded.  It
    keeps no table of jobs — a :class:`JobHandle` belongs to whoever
    submitted it — and the in-memory dedupe memo is an LRU capped at
    :attr:`MEMO_LIMIT` entries (the store provides the durable dedupe; the
    memo is just its hot cache).
    """

    #: maximum (digest, detector, options) → starts entries kept in memory
    MEMO_LIMIT = 4096

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 256,
        backpressure: str = "block",
        store: ArtifactStore | None = None,
        resilience: ResilienceConfig | None = None,
    ):
        if backpressure not in ("block", "reject"):
            raise ValueError(
                f"backpressure must be 'block' or 'reject', got {backpressure!r}"
            )
        self.workers = workers
        self.queue_limit = queue_limit
        self.backpressure = backpressure
        self.resilience = resilience or ResilienceConfig()
        self.store = store
        #: detector invocations actually performed (cache hits excluded)
        self.detector_runs = 0
        #: units served from the store or the in-memory memo
        self.cache_hits = 0
        #: detector invocations retried after a transient failure
        self.detector_retries = 0
        #: store reads/writes retried after a transient failure
        self.store_retries = 0
        #: units that failed after the policy gave up (structured ``failure``)
        self.degraded_units = 0
        #: successful units whose store write/read degraded (result unharmed)
        self.store_degraded = 0
        #: jobs ever submitted; also the id of the newest job
        self.jobs_submitted = 0
        self._pending_entries = 0
        self._closed = False
        self._lock = threading.Lock()
        self._admission = threading.Condition(self._lock)
        self._memo: OrderedDict[tuple[str, str, str], tuple[int, ...]] = OrderedDict()
        self._stats_baseline = store.stats_snapshot() if store is not None else {}
        self._pool = ShardedWorkerPool(self.workers, name="detect-worker")

    # -- lifecycle ------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Refuse new submissions and (with ``wait``) drain in-flight jobs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._admission.notify_all()
        self._pool.close(wait=wait)

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        items: Iterable[Any],
        *,
        detectors: Sequence[Any] | None = None,
    ) -> JobHandle:
        """Admit a batch of binaries; returns a streaming :class:`JobHandle`.

        ``items`` are file paths (str/​``Path``) and/or in-memory
        ``SyntheticBinary`` corpus entries; ``detectors`` mixes registered
        names and detector instances (default: FETCH).  Admission honours
        the configured backpressure policy: ``reject`` refuses the whole
        batch atomically when it would overflow ``queue_limit``, ``block``
        admits entry by entry as capacity frees (so a batch larger than the
        queue simply pipelines through it).  Entries are read and digested
        one at a time on the calling thread; an entry whose every unit is
        in the in-memory memo completes right there, before ``submit``
        returns, and takes no queue capacity (under ``reject`` its
        reserved slot is given back).  Only the other entries reach a shard
        worker, so in-flight bytes stay bounded by the queue plus one entry
        per submitter.  A submit that raises returns no handle; entries it
        already admitted still run to completion.

        A detector given by *name* runs in the shard's child process, which
        is killed and replaced if a detection outlives the configured
        ``detector_timeout``.  A detector *instance* runs on the shard thread
        itself, since it may hold in-process state, and is not bounded by
        the timeout.
        """
        specs = create_detectors(detectors)
        pending_items = list(items)
        with self._lock:
            self._check_open()
            self.jobs_submitted += 1
            job = JobHandle(self.jobs_submitted, total=len(pending_items) * len(specs))
        if job.total == 0:
            return job

        prepaid = self.backpressure == "reject" and self.queue_limit
        if prepaid:
            with self._lock:
                self._check_open()
                if self._pending_entries + len(pending_items) > self.queue_limit:
                    raise ServiceSaturated(
                        f"queue limit {self.queue_limit} reached "
                        f"({self._pending_entries} pending, {len(pending_items)} submitted)"
                    )
                self._pending_entries += len(pending_items)
        for item in pending_items:
            entry = self._entry_for(item)
            if self._answer_from_memo(job, entry, specs):
                if prepaid:
                    self._release_slot()
                continue
            if not prepaid:
                # block policy: admit one entry at a time
                with self._admission:
                    self._check_open()
                    while self.queue_limit and self._pending_entries >= self.queue_limit:
                        self._admission.wait()
                        self._check_open()
                    self._pending_entries += 1
            self._dispatch(job, entry, specs)
        return job

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("DetectionService is closed")

    def _dispatch(self, job: JobHandle, entry: _Entry, specs: list[tuple[Any, bool]]) -> None:
        self._pool.submit(entry.digest, lambda: self._run_entry(job, entry, specs))

    def _release_slot(self) -> None:
        with self._admission:
            self._pending_entries -= 1
            self._admission.notify_all()

    def _answer_from_memo(
        self, job: JobHandle, entry: _Entry, specs: list[tuple[Any, bool]]
    ) -> bool:
        """Complete ``entry`` on the calling thread when every unit is in the
        in-memory memo (no shard hop, no capacity); ``False`` otherwise."""
        started = time.perf_counter()
        names = [detector_name(detector) for detector, _ in specs]
        hits = [
            self._memo_lookup((entry.digest, name, options_digest(detector)))
            for name, (detector, _) in zip(names, specs)
        ]
        if entry.error is not None or None in hits:
            return False
        job._mark_running()
        for name, starts in zip(names, hits):
            result = EntryResult(name=entry.name, digest=entry.digest, detector=name)
            self._fill_result(entry, result, starts, cached=True)
            result.seconds = time.perf_counter() - started
            job._complete(result)
        return True

    def _entry_for(self, item: Any) -> _Entry:
        """Normalise a path or corpus entry into an admitted :class:`_Entry`.

        Bytes are read (and digested) at admission so sharding and dedupe
        key on content before any worker touches the entry; an unreadable
        path becomes an error entry whose units fail without running."""
        if isinstance(item, (str, Path)):
            path = str(item)
            try:
                with open(path, "rb") as handle:  # no pathlib parse per request
                    data = handle.read()
            except OSError as error:
                return _Entry(name=path, digest="", error=f"{type(error).__name__}: {error}")
            return _Entry(name=path, digest=blob_digest(data), data=data)
        try:
            # an in-memory corpus entry: identity is the serialized ELF blob
            # (digest memoized on the object, so resubmission is digest-free)
            return _Entry(
                name=item.name,
                digest=digest_of_binary(item),
                data=b"",
                ground_truth=getattr(item, "ground_truth", None),
                image=item.image,
            )
        except Exception as error:  # noqa: BLE001 - admit as an error entry
            return _Entry(
                name=getattr(item, "name", repr(item)),
                digest="",
                error=f"unsubmittable item: {type(error).__name__}: {error}",
            )

    # -- worker side ----------------------------------------------------
    def _run_entry(
        self, job: JobHandle, entry: _Entry, specs: list[tuple[Any, bool]]
    ) -> None:
        """Run every requested detector over one entry (on its shard thread).

        A named detector's cache miss runs in the shard's child process,
        which parses the entry's bytes itself.  For the detector instances
        on this thread, the entry's image is parsed and its
        :class:`AnalysisContext` built at most once, after the first cache
        miss — an entry fully served from the cache never parses at all.
        Failures (admission errors, parse errors, a detector raising) are
        folded into that unit's :class:`EntryResult`; the job always
        completes all of its units.
        """
        job._mark_running()
        try:
            for detector, in_child in specs:
                started = time.perf_counter()
                name = detector_name(detector)
                result = EntryResult(name=entry.name, digest=entry.digest, detector=name)
                try:
                    if entry.error is not None:
                        result.error = entry.error
                    else:
                        self._detect_unit(entry, detector, name, result, in_child)
                except Exception as error:  # noqa: BLE001 - entry-scoped failure
                    result.error = f"{type(error).__name__}: {error}"
                    if result.failure is None:
                        result.failure = failure_record(error, site="entry")
                result.seconds = time.perf_counter() - started
                job._complete(result)
        finally:
            entry.context = None  # decode caches die with the entry
            self._release_slot()

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _detect_unit(
        self, entry: _Entry, detector: Any, name: str, result: EntryResult, in_child: bool
    ) -> None:
        """One (binary × detector) unit: the in-memory memo, else
        :func:`~repro.eval.unit.detect_entry` under this service's store
        and resilience policy, detecting in the shard's child when
        ``in_child``.  A failed unit fails only
        itself; a degraded store write still succeeds."""
        memo_key = (entry.digest, name, options_digest(detector))
        starts = self._memo_lookup(memo_key)
        cached = starts is not None
        if starts is None:
            detection = detect_entry(
                entry,
                detector,
                store=self.store,
                resilience=self.resilience,
                count=self._count,
                run=(lambda: self._detect_in_child(entry, detector)) if in_child else None,
            )
            result.failure = detection.failure
            if detection.error is not None:
                result.error = detection.error
                self._count("degraded_units")
                return
            starts = tuple(sorted(detection.result.function_starts))
            self._memoize(memo_key, starts)
            cached = detection.cached
        self._fill_result(entry, result, starts, cached=cached)

    def _detect_in_child(self, entry: _Entry, detector: Any) -> DetectionResult:
        """One detection attempt in the entry's shard's child: the entry's
        bytes and the detector go over, the result record comes back."""
        if not entry.data:  # an in-memory corpus entry: serialize it once
            from repro.elf.writer import write_elf

            entry.data = write_elf(entry.image.elf)
        record = self._pool.call_in_child(
            self._pool.shard_of(entry.digest),
            detect_bytes,
            (entry.name, entry.data, detector),
            timeout=self.resilience.detector_timeout or None,
        )
        return DetectionResult.from_record(record)

    def _fill_result(
        self, entry: _Entry, result: EntryResult, starts: tuple[int, ...], *, cached: bool
    ) -> None:
        """Fill a successful unit's ``result``: starts, metrics, cache count."""
        result.cached = cached
        if cached:
            self._count("cache_hits")
        result.function_starts = starts
        if entry.ground_truth is not None:
            result.metrics = compute_metrics(entry.ground_truth, set(starts))

    def _memo_lookup(self, memo_key: tuple[str, str, str]) -> tuple[int, ...] | None:
        """The memoized starts of one (digest, detector, options) unit, or
        ``None``: the one memo read, shared by admission and the worker."""
        with self._lock:
            starts = self._memo.get(memo_key)
            if starts is not None:
                self._memo.move_to_end(memo_key)
            return starts

    def _memoize(self, memo_key: tuple[str, str, str], starts: tuple[int, ...]) -> None:
        """LRU-insert into the bounded in-memory dedupe memo."""
        with self._lock:
            self._memo[memo_key] = starts
            self._memo.move_to_end(memo_key)
            while len(self._memo) > self.MEMO_LIMIT:
                self._memo.popitem(last=False)

    # -- introspection --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """A snapshot of the service's counters and queue occupancy.

        ``store`` holds the hit/miss *deltas* since this service was
        created (not store-lifetime totals), so a front-end can report how
        warm its own traffic ran.  ``store_info`` is the store's root and
        cross-process lock statistics (:meth:`ArtifactStore.describe`, no
        tree walk).
        """
        with self._lock:
            record: dict[str, Any] = {
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "backpressure": self.backpressure,
                "jobs": self.jobs_submitted,
                "pending_entries": self._pending_entries,
                "detector_runs": self.detector_runs,
                "cache_hits": self.cache_hits,
                "resilience": {
                    "detector_retries": self.detector_retries,
                    "store_retries": self.store_retries,
                    "degraded_units": self.degraded_units,
                    "store_degraded": self.store_degraded,
                    "worker_restarts": self._pool.worker_restarts,
                    "requeued_tasks": self._pool.requeued_tasks,
                },
            }
        if self.store is not None:
            record["store"] = self.store.stats_delta(self._stats_baseline)
            record["store_info"] = self.store.describe()
        return record
