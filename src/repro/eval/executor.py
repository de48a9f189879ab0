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
  digest) lands on one thread in submission order.  Each shard also owns
  one child process (a one-child :class:`ProcessPool`, started on its
  first :meth:`~ShardedWorkerPool.call_in_child`), so CPU-bound work
  escapes the GIL.  Workers are *supervised*: a thread that dies (a
  :class:`~repro.resilience.faults.WorkerKilled` injection, or any
  ``BaseException`` escaping a task) is restarted in place, and a task
  that was queued-but-not-started when the worker died is requeued at the
  front of its shard — exactly-once for unstarted tasks, at-most-once for
  started ones.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import stat
import sys
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Any, Callable, Iterable, TypeVar

from repro.resilience import faults
from repro.resilience.policy import DetectorTimeout
from repro.x86.disassembler import DECODE_STATS

_Item = TypeVar("_Item")

_respawn_lock = threading.Lock()
#: process pools respawned after breaking, process-wide (the supervision
#: tests read it)
POOL_RESPAWNS = 0

#: times one :meth:`ProcessPool.map` call replaces a broken executor
#: before it gives up
_MAX_RESPAWNS = 2


#: set on a shard thread while it may fork its child
_forking = threading.local()


def _fresh_std_streams() -> None:
    """Give a forked shard child new standard stream objects (with fresh
    locks) over the same descriptors.  Another server thread may hold a
    stream's lock at the fork (a session blocked reading stdin), and the
    child's start-up closes stdin and its exit flushes stdout: it would
    wait for ever.  Other forks of the program are left alone."""
    if not getattr(_forking, "shard_child", False):
        return
    for name, mode in (("stdin", "r"), ("stdout", "w"), ("stderr", "w")):
        stream = getattr(sys, name)
        try:
            fresh = open(
                stream.fileno(), mode, encoding=stream.encoding, errors=stream.errors,
                closefd=False,
            )
        except (AttributeError, OSError, ValueError):
            fresh = None  # no descriptor behind it (an in-memory capture)
        setattr(sys, name, fresh)


@functools.cache
def _guard_forks() -> None:
    """Register :func:`_fresh_std_streams` when the first shard child
    starts, so a program that starts none runs no hook (registering twice
    in a race would be harmless)."""
    os.register_at_fork(after_in_child=_fresh_std_streams)


#: The pools' own start method: fork on Linux, where a spawned child's fresh
#: interpreter and imports cost about 0.2 s of CPU each, a third of the
#: service's cold-batch gain; spawn elsewhere (macOS system libraries are not
#: fork-safe).  ShardedWorkerPool guards its forks against the locks its other
#: threads hold.  The program's start method is never set here, but a spawned
#: child reads it as it starts (``get_start_method()`` in multiprocessing's
#: spawn preparation), which fixes the program's default: on a spawning
#: platform a ``set_start_method`` after the first child raises RuntimeError.
_CHILD_CONTEXT = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")
#: seconds fresh pool children have to answer before they count as wedged
CHILD_START_TIMEOUT = 30.0


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
    at most :data:`_MAX_RESPAWNS` times per call.  Items must tolerate
    at-most-one re-execution (detector runs are pure).  Task exceptions
    propagate unchanged.  A ``map`` given a ``timeout`` that passes kills
    the children (the next call starts fresh ones) and raises
    :class:`~repro.resilience.policy.DetectorTimeout`; the deadline runs
    from when the children are up, so it times work, not start-up.  Fresh
    children that do not answer within :data:`CHILD_START_TIMEOUT` seconds
    are killed and replaced like broken ones.  One pool serves one
    :meth:`map` at a time.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._executor: ProcessPoolExecutor | None = None

    def map(
        self,
        fn: Callable[[_Item], Any],
        items: Iterable[_Item],
        *,
        timeout: float | None = None,
    ) -> list[Any]:
        """Ordered ``[fn(item) for item in items]`` across the child
        processes, within ``timeout`` seconds when given."""
        global POOL_RESPAWNS
        items = list(items)
        results: list[Any] = [None] * len(items)
        pending = list(range(len(items)))
        respawns = 0
        while True:
            pending = self._round(fn, items, pending, results, timeout)
            if not pending:
                return results
            if respawns >= _MAX_RESPAWNS:
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
        timeout: float | None,
    ) -> list[int]:
        """One submit/collect pass; returns the indices lost to a broken pool."""
        fresh = self._executor is None
        if fresh:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_CHILD_CONTEXT,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        futures: list[tuple[int, Any]] = []
        unfinished: list[int] = []
        try:
            if fresh:
                # wait out the start-up (so a deadline times work), but not
                # for ever: a child wedged as it starts is replaced
                started = self._executor.submit(int)
                if not wait_futures([started], CHILD_START_TIMEOUT).done:
                    self._kill()
                    raise BrokenExecutor("no child started in time")
                started.result()
            deadline = None if timeout is None else time.monotonic() + timeout
            for index in pending:
                kill = _draw_child_kill(index)
                futures.append((index, self._executor.submit(_run_task, fn, items[index], kill)))
        except (BrokenExecutor, RuntimeError):
            unfinished.extend(pending[len(futures):])
        for index, future in futures:
            if deadline is not None and not wait_futures(
                [future], max(0.0, deadline - time.monotonic())
            ).done:
                self._kill()
                self.close()
                raise DetectorTimeout(f"item {index}: no result before the deadline")
            try:
                value, decode_delta = future.result()
            except BrokenExecutor:
                unfinished.append(index)
                continue
            DECODE_STATS.raw_decodes += decode_delta
            results[index] = value
        return sorted(unfinished)

    def _kill(self) -> None:
        # the executor has no public way to stop a running task
        for process in list(self._executor._processes.values()):
            process.kill()

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
) -> list[Any]:
    """Ordered ``map(fn, items)``.

    ``workers > 1`` (with more than one item) runs a one-shot
    :class:`ProcessPool`, so ``fn`` and the items must be picklable;
    anything else runs serially in the caller's thread.  Safe to call
    concurrently: each call owns its pool.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        with ProcessPool(workers) as pool:
            return pool.map(fn, items)
    return [fn(item) for item in items]


#: Queue sentinel telling a :class:`ShardedWorkerPool` worker to exit.
_STOP = object()




def _start_shard_child() -> None:
    """Initializer of a shard's child process.

    SIGINT is ignored: the parent drains on it, then joins the child.
    Inherited sockets become ``/dev/null`` (``dup2``, so a stale socket
    object's close cannot hit a reused descriptor): a forked copy would
    keep a connection the parent closed from reaching EOF.  A daemon
    thread ends the child if its parent dies without joining it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if os.path.isdir("/dev/fd"):
        devnull = os.open(os.devnull, os.O_RDWR)
        for name in os.listdir("/dev/fd"):
            try:
                if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                    os.dup2(devnull, int(name))
            except OSError:
                pass  # the listing's own descriptor, closed by now
        os.close(devnull)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


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

    Threads share one GIL, so a task hands its CPU-bound part to its
    shard's child process with :meth:`call_in_child`.  The child is started
    on the shard's first such call (a pool whose tasks never call it starts
    no process) and joined by its thread when that thread stops, so
    :meth:`close` with ``wait`` leaves no process behind.  A fork keeps
    every lock another thread holds at that moment: the modules the fork
    imports are loaded before any shard thread runs, and the child renews
    its standard streams (:func:`_fresh_std_streams`) and drops its sockets.

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

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
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
        #: per-shard child process pool, started on first call_in_child
        self._children: list[ProcessPool | None] = [None] * self.workers
        if _CHILD_CONTEXT.get_start_method() == "fork":
            # what a shard's first fork imports, loaded before any shard
            # thread runs: a module another thread is importing while one
            # forks stays locked in the child
            import multiprocessing.popen_fork  # noqa: F401
            import multiprocessing.synchronize  # noqa: F401
        self._threads: list[threading.Thread] = [
            self._spawn(index, generation=0) for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def _spawn(self, shard: int, *, generation: int) -> threading.Thread:
        suffix = f"-{shard}" if generation == 0 else f"-{shard}r{generation}"
        return threading.Thread(
            target=self._run, args=(shard,), name=f"detect-worker{suffix}", daemon=True
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

    def call_in_child(
        self,
        shard: int,
        fn: Callable[[_Item], Any],
        item: _Item,
        *,
        timeout: float | None = None,
    ) -> Any:
        """``fn(item)`` in ``shard``'s child process; call it only from a
        task running on that shard, whose thread owns the child.  ``fn``
        and ``item`` must be picklable; ``timeout`` and respawns behave as
        in :meth:`ProcessPool.map`.
        """
        child = self._children[shard]
        if child is None:
            _guard_forks()
            child = self._children[shard] = ProcessPool(1, initializer=_start_shard_child)
        _forking.shard_child = True
        try:
            return child.map(fn, [item], timeout=timeout)[0]
        finally:
            _forking.shard_child = False

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
                child, self._children[shard] = self._children[shard], None
                if child is not None:
                    child.close()
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
        """Stop accepting work; with ``wait``, drain queues and join workers
        (each worker joins its child process before it exits).

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
