"""Shared thread/process fan-out used by the CLI, the corpus evaluator and
the detection service.

Three primitives live here:

* :class:`ProcessPool` — the one process pool, persistent across
  ``map`` calls and self-healing when a child dies (used by the corpus
  evaluator directly and by :func:`parallel_map`).
* :func:`parallel_map` — the one-shot fan-out: a :class:`ProcessPool` when
  ``workers > 1``, a plain serial loop otherwise.  Results always come back
  in input order.
* :class:`ShardedWorkerPool` — the long-lived counterpart used by
  :class:`repro.service.DetectionService`: worker threads that persist
  across batches, each draining its own FIFO queue, with a deterministic
  task-key → worker mapping so all work for one key (a binary content
  digest) lands on one thread in submission order.  Workers are
  *supervised*: a thread that dies (a :class:`~repro.resilience.faults.
  WorkerKilled` injection, or any ``BaseException`` escaping a task) is
  restarted in place, and a task that was queued-but-not-started when the
  worker died is requeued at the front of its shard — exactly-once for
  unstarted tasks, at-most-once for started ones.
"""

from __future__ import annotations

import os
import signal
import threading
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Iterable, TypeVar

from repro.resilience import faults
from repro.x86.disassembler import DECODE_STATS

_Item = TypeVar("_Item")

_respawn_lock = threading.Lock()
#: process pools respawned after breaking, process-wide (chaos-bench telemetry)
POOL_RESPAWNS = 0


def _run_task(fn: Callable[[_Item], Any], item: _Item, kill: bool) -> tuple[Any, int]:
    """Run one task in a pool child; returns ``(value, raw_decode_delta)``.

    ``DECODE_STATS`` is process-local, so the delta ships back for the
    parent to fold in.  ``kill`` is the parent's ``pool.child`` draw.
    """
    if kill:
        os.kill(os.getpid(), signal.SIGKILL)
    before = DECODE_STATS.raw_decodes
    value = fn(item)
    return value, DECODE_STATS.raw_decodes - before


def _draw_child_kill(index: int) -> bool:
    """The ``pool.child`` draw for one submission, made in the parent so
    ``max=`` budgets span pool generations (a forked child's copy of the
    injector would start full); a resubmitted item re-rolls."""
    try:
        faults.fire("pool.child", str(index))
    except faults.WorkerKilled:
        return True
    return False


class ProcessPool:
    """A persistent, self-healing process pool with an ordered ``map``.

    The ``ProcessPoolExecutor`` is created on first :meth:`map` and kept
    until :meth:`close`, so state ``initializer(*initargs)`` sets up in a
    child (a corpus, per-binary contexts) serves every later call.  ``fn``
    and the items must be picklable.

    When a child dies (OOM, SIGKILL, an injected ``pool.child`` kill) every
    in-flight future raises ``BrokenExecutor``: finished results are kept,
    the executor is replaced and only the unfinished items are resubmitted,
    at most ``max_respawns`` times per call.  Items must tolerate
    at-most-one re-execution (detector runs are pure).  Task exceptions
    propagate unchanged.  One pool serves one :meth:`map` at a time.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        *,
        max_respawns: int = 2,
    ):
        self.workers = workers
        self.max_respawns = max_respawns
        self._initializer = initializer
        self._initargs = initargs
        self._executor: ProcessPoolExecutor | None = None

    def map(self, fn: Callable[[_Item], Any], items: Iterable[_Item]) -> list[Any]:
        """Ordered ``[fn(item) for item in items]`` across the child processes."""
        global POOL_RESPAWNS
        items = list(items)
        results: list[Any] = [None] * len(items)
        pending = list(range(len(items)))
        respawns = 0
        while True:
            pending = self._round(fn, items, pending, results)
            if not pending:
                return results
            if respawns >= self.max_respawns:
                raise BrokenExecutor(
                    f"process pool still broken after {respawns} respawns; "
                    f"{len(pending)} of {len(items)} items unfinished"
                )
            respawns += 1
            with _respawn_lock:
                POOL_RESPAWNS += 1
            self.close(wait=False)

    def _round(
        self,
        fn: Callable[[_Item], Any],
        items: list[_Item],
        pending: list[int],
        results: list[Any],
    ) -> list[int]:
        """One submit/collect pass; returns the indices lost to a broken pool."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        futures: list[tuple[int, Any]] = []
        unfinished: list[int] = []
        try:
            for index in pending:
                kill = _draw_child_kill(index)
                futures.append((index, self._executor.submit(_run_task, fn, items[index], kill)))
        except (BrokenExecutor, RuntimeError):
            unfinished.extend(pending[len(futures):])
        for index, future in futures:
            try:
                value, decode_delta = future.result()
            except BrokenExecutor:
                unfinished.append(index)
                continue
            DECODE_STATS.raw_decodes += decode_delta
            results[index] = value
        return sorted(unfinished)

    def close(self, *, wait: bool = True) -> None:
        """Shut the children down; a later :meth:`map` starts fresh ones."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_map(
    fn: Callable[[_Item], Any],
    items: Iterable[_Item],
    *,
    workers: int = 0,
    max_respawns: int = 2,
) -> list[Any]:
    """Ordered ``map(fn, items)``.

    ``workers > 1`` (with more than one item) runs a one-shot
    :class:`ProcessPool`, so ``fn`` and the items must be picklable;
    anything else runs serially in the caller's thread.  Safe to call
    concurrently: each call owns its pool.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        with ProcessPool(workers, max_respawns=max_respawns) as pool:
            return pool.map(fn, items)
    return [fn(item) for item in items]


#: Queue sentinel telling a :class:`ShardedWorkerPool` worker to exit.
_STOP = object()


class _ShardQueue:
    """Unbounded FIFO with a front-of-queue lane for requeued tasks.

    ``queue.SimpleQueue`` has no way to put an item back *ahead* of later
    submissions, which worker supervision needs: a task requeued after its
    worker died must run before tasks submitted after it, or the per-key
    ordering contract breaks.
    """

    def __init__(self) -> None:
        self._items: deque = deque()
        self._cond = threading.Condition()

    def put(self, item: Any) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def put_front(self, item: Any) -> None:
        with self._cond:
            self._items.appendleft(item)
            self._cond.notify()

    def get(self) -> Any:
        with self._cond:
            while not self._items:
                self._cond.wait()
            return self._items.popleft()


class ShardedWorkerPool:
    """Long-lived, supervised worker threads, each draining its own queue.

    :func:`parallel_map` spins its pool up and down per call, which is right
    for one-shot batch evaluation but wrong for a process that stays up: a
    persistent service wants warm workers and a *stable* routing of related
    work.  Tasks are submitted with a shard key (any int, or a hex string
    such as a content digest); :meth:`shard_of` maps the key onto one of the
    ``workers`` threads, so every task sharing a key executes on the same
    thread in submission order.  The detection service shards by binary
    content digest, which serialises duplicate binaries behind each other —
    by the time the second copy runs, the first has already populated the
    cache.

    Tasks are bare callables and own their error handling: a task that
    raises an ``Exception`` is recorded in :attr:`task_errors` (most recent
    last, bounded) and the worker moves on.  A ``BaseException`` — notably
    an injected :class:`~repro.resilience.faults.WorkerKilled` — unwinds
    the worker thread instead, and the supervisor takes over: the thread is
    restarted in place (:attr:`worker_restarts`) and, when the death struck
    *before* the dequeued task started, that task is requeued at the front
    of its shard (:attr:`requeued_tasks`) so it is never lost and never run
    twice.  A death mid-task does **not** requeue — the task may have had
    side effects, and the service layer's retry policy owns that case.

    Thread safety: :meth:`submit` may be called from any thread, including
    from tasks already running on the pool; :meth:`close` must be called
    exactly once, after which further submissions raise ``RuntimeError``.
    """

    #: how many unexpected task exceptions to keep for diagnosis
    MAX_TASK_ERRORS = 32

    def __init__(self, workers: int, *, name: str = "shard-worker"):
        self.workers = max(1, int(workers))
        self.name = name
        self.task_errors: list[BaseException] = []
        #: dead worker threads restarted by the supervisor
        self.worker_restarts = 0
        #: in-flight tasks requeued after their worker died pre-start
        self.requeued_tasks = 0
        self._closed = False
        self._lock = threading.Lock()
        self._queues: list[_ShardQueue] = [_ShardQueue() for _ in range(self.workers)]
        #: per-shard task dequeued but not yet started (requeue on death)
        self._current: list[Any] = [None] * self.workers
        self._threads: list[threading.Thread] = [
            self._spawn(index, generation=0) for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def _spawn(self, shard: int, *, generation: int) -> threading.Thread:
        suffix = f"-{shard}" if generation == 0 else f"-{shard}r{generation}"
        return threading.Thread(
            target=self._run, args=(shard,), name=f"{self.name}{suffix}", daemon=True
        )

    def shard_of(self, key: int | str) -> int:
        """The worker index ``key`` routes to (stable for the pool's life)."""
        if isinstance(key, str):
            # hex digests route by their leading 64 bits; anything else by hash
            try:
                key = int(key[:16], 16)
            except ValueError:
                key = hash(key)
        return key % self.workers

    def submit(self, shard_key: int | str, task: Callable[[], Any]) -> int:
        """Queue ``task`` on the worker owning ``shard_key``; returns the shard."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ShardedWorkerPool")
            shard = self.shard_of(shard_key)
            self._queues[shard].put(task)
        return shard

    # -- worker loop + supervision --------------------------------------
    def _run(self, shard: int) -> None:
        try:
            self._drain(shard)
        except BaseException:  # noqa: BLE001 - worker death, supervised below
            self._revive(shard)

    def _drain(self, shard: int) -> None:
        task_queue = self._queues[shard]
        while True:
            task = task_queue.get()
            if task is _STOP:
                return
            # Window where a worker death must requeue: the task is ours
            # but has not started.  The ``worker`` fault site fires inside
            # this window, so an injected kill exercises exactly the
            # requeue path and can never double-execute the task.
            self._current[shard] = task
            faults.fire("worker", str(shard))
            try:
                self._current[shard] = None
                task()
            except Exception as error:  # tasks own their errors
                self.task_errors.append(error)
                del self.task_errors[: -self.MAX_TASK_ERRORS]

    def _revive(self, shard: int) -> None:
        with self._lock:
            self.worker_restarts += 1
            task = self._current[shard]
            self._current[shard] = None
            if task is not None:
                self._queues[shard].put_front(task)
                self.requeued_tasks += 1
            thread = self._spawn(shard, generation=self.worker_restarts)
            # start before publishing: close() joins whatever _threads holds,
            # and joining a never-started thread raises
            thread.start()
            self._threads[shard] = thread

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work; with ``wait``, drain queues and join workers.

        The join tolerates supervision: if a worker dies (and is replaced)
        while draining its remaining queue, the replacement is joined too —
        ``_STOP`` is re-consumed by whichever incarnation reaches it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for task_queue in self._queues:
                task_queue.put(_STOP)
        if wait:
            for shard in range(self.workers):
                while True:
                    with self._lock:
                        thread = self._threads[shard]
                    thread.join()
                    with self._lock:
                        if self._threads[shard] is thread:
                            break

    def __enter__(self) -> "ShardedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
