"""Cross-process advisory file locks for the artifact store.

A :class:`FileLock` serialises garbage collection and corpus-build races
across every process sharing one store root.  It is an exclusive
``fcntl.flock`` on a lock file that persists, so the kernel decides who
holds it: a crashed or killed holder's lock is freed at once, and a live
holder is never broken, however long it holds.  Acquisition polls with
exponential backoff for up to ``timeout`` seconds, then raises
:class:`LockTimeout` instead of hanging; an in-process ``threading.Lock``
in front of the file queues the threads of one process.

Lock files (``<root>/.lock``, ``<root>/locks/build-*.lock``) are never
written, read or removed, and the store never lists or collects them.
``fcntl`` is POSIX-only, so the store runs on Linux and macOS only.  A
process of an older version of this package, which locked with
``O_CREAT | O_EXCL`` pid files, does not exclude this one on the same
root.

The lock is advisory and non-reentrant.  Blob and record writes do not
take it: they are idempotent atomic renames (see
:func:`repro.store.backend.atomic_write_bytes`), safe to race by content
addressing.
"""

from __future__ import annotations

import fcntl
import os
import threading
import time
from pathlib import Path

from repro.resilience import faults


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired within its timeout.

    Subclasses :class:`TimeoutError` (an ``OSError``), which
    :func:`repro.resilience.retryable` classifies as retryable — lock
    contention is transient by construction."""


class FileLock:
    """An exclusive ``flock`` on a persistent lock file.

    Usage::

        lock = FileLock(store_root / ".lock", timeout=30.0)
        with lock:
            ...  # exclusive across processes sharing the store

    :meth:`acquire` returns the seconds spent waiting, which the store
    aggregates into its lock-wait statistics (and the contention benchmark
    turns into percentiles).
    """

    def __init__(self, path: str | os.PathLike, *, timeout: float = 30.0):
        self.path = Path(path)
        self.timeout = float(timeout)
        self._thread_lock = threading.Lock()
        self._fd: int | None = None

    def acquire(self) -> float:
        """Take the lock; returns the seconds spent waiting.

        Raises :class:`LockTimeout` when the lock cannot be taken within
        ``timeout`` seconds (counting both in-process queueing and
        cross-process polling).
        """
        faults.fire("store.lock", self.path.name, raises=LockTimeout)
        start = time.monotonic()
        if not self._thread_lock.acquire(timeout=self.timeout):
            raise LockTimeout(
                f"{self.path}: held by another thread for over {self.timeout}s"
            )
        try:
            self._fd = self._lock_file(start)
        except BaseException:
            self._thread_lock.release()
            raise
        return time.monotonic() - start

    def _lock_file(self, start: float) -> int:
        """Open the lock file and poll ``flock`` on it until ``timeout``."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDONLY | os.O_CREAT, 0o666)
        delay = 0.002
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return fd
                except BlockingIOError:
                    if time.monotonic() - start >= self.timeout:
                        raise LockTimeout(
                            f"{self.path}: not acquired within {self.timeout}s"
                        ) from None
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
        except BaseException:
            os.close(fd)
            raise

    def release(self) -> None:
        """Drop the lock.

        Unlocks before closing: a child forked while the lock was held
        shares the open file description, and closing only this
        descriptor would leave the lock held in the child.
        """
        fd, self._fd = self._fd, None
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
            self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
