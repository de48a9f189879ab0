"""Cross-process advisory file locks for the artifact store.

A :class:`FileLock` serialises read-modify-write sections — garbage
collection and corpus build races — across every process sharing one
store root.  The lock is an
``O_CREAT | O_EXCL`` lock file holding the owner's pid, its kernel start
time (so a recycled pid cannot impersonate a dead holder) and the
acquisition time, which gives three properties the store needs:

* **timeout** — acquisition polls (with exponential backoff) for up to
  ``timeout`` seconds, then raises :class:`LockTimeout` instead of hanging
  a worker forever;
* **stale-lock recovery** — a lock file whose owner pid no longer exists
  (same host) is broken immediately, and one older than ``stale_after``
  seconds is broken regardless, so a crashed or wedged writer can never
  permanently brick the store;
* **thread safety** — an in-process ``threading.Lock`` fronts the file,
  so threads of one process queue on a mutex instead of all spinning on
  the filesystem.

The lock is advisory and non-reentrant: only code paths that take it are
serialised, and a thread re-acquiring its own lock times out.  Blob and
record writes deliberately do *not* take it — they are idempotent atomic
renames (see :func:`repro.store.backend.atomic_write_bytes`) and safe to
race by content addressing.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.resilience import faults


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired within its timeout.

    Subclasses :class:`TimeoutError`, which the default
    :class:`repro.resilience.RetryPolicy` classifies as retryable — lock
    contention is transient by construction."""


def _process_start_ticks(pid: int) -> int | None:
    """The kernel start time (clock ticks since boot) of ``pid``, or ``None``.

    Field 22 of ``/proc/<pid>/stat``; together with the pid it uniquely
    identifies a process incarnation, which is what lets the lock tell a
    dead holder from a PID-reused impostor.  The comm field (2) may
    contain spaces and parentheses, so parse from the *last* ``)``.
    Returns ``None`` off Linux or when the process is gone.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as stream:
            stat = stream.read().decode("ascii", "replace")
        return int(stat.rsplit(")", 1)[1].split()[19])
    except (OSError, ValueError, IndexError):
        return None


class FileLock:
    """An ``O_EXCL``-based advisory lock file with staleness recovery.

    Usage::

        lock = FileLock(store_root / ".lock", timeout=30.0)
        with lock:
            ...  # exclusive across processes sharing the store

    :meth:`acquire` returns the seconds spent waiting, which the store
    aggregates into its lock-wait statistics (and the contention benchmark
    turns into percentiles).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        timeout: float = 30.0,
        stale_after: float = 120.0,
        poll_interval: float = 0.002,
    ):
        self.path = Path(path)
        self.timeout = float(timeout)
        self.stale_after = float(stale_after)
        self.poll_interval = float(poll_interval)
        #: seconds the most recent successful acquisition waited
        self.last_wait = 0.0
        self._thread_lock = threading.Lock()

    # -- acquisition ----------------------------------------------------
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
        delay = self.poll_interval
        while True:
            try:
                handle = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666
                )
            except FileExistsError:
                self._break_if_stale()
                if time.monotonic() - start >= self.timeout:
                    self._thread_lock.release()
                    raise LockTimeout(
                        f"{self.path}: not acquired within {self.timeout}s"
                    )
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
                continue
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                continue
            try:
                pid = os.getpid()
                ticks = _process_start_ticks(pid)
                os.write(
                    handle,
                    f"{pid} {ticks if ticks is not None else '-'} {time.time():.3f}\n".encode(),
                )
            finally:
                os.close(handle)
            self.last_wait = time.monotonic() - start
            return self.last_wait

    def release(self) -> None:
        """Drop the lock (missing lock files are tolerated, not errors)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- staleness ------------------------------------------------------
    def _break_if_stale(self) -> None:
        """Unlink the lock file if its owner is provably gone or too old.

        Three independent signals: a dead owner pid (same-host crash — the
        common case) breaks immediately; a live pid whose kernel start
        time differs from the one recorded at acquisition is a *PID-reused
        impostor*, not the holder, and breaks immediately too; and an age
        beyond ``stale_after`` breaks regardless, covering foreign-host
        owners and wedged processes.  Breaking races benignly: every
        breaker unlinks, then every waiter re-races on ``O_EXCL`` and
        exactly one wins.
        """
        try:
            fields = self.path.read_text().split()
            age = time.time() - self.path.stat().st_mtime
        except (OSError, ValueError):
            return  # vanished or unreadable: re-race on O_EXCL
        stale = False
        if fields and fields[0].isdigit():
            pid = int(fields[0])
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                stale = True
            except OSError:
                pass  # alive, or not ours to probe
            else:
                # pid exists — but is it the same *incarnation* that took
                # the lock?  (field 2 is "-" for pre-starttime lock files
                # and off-Linux holders: no claim, skip the check)
                if len(fields) >= 3 and fields[1].isdigit():
                    current = _process_start_ticks(pid)
                    if current is not None and current != int(fields[1]):
                        stale = True
        if not stale and age <= self.stale_after:
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass
