"""On-disk layout of the artifact store.

:class:`FilesystemBackend` is where the bytes of an
:class:`~repro.store.store.ArtifactStore` live: one directory tree per
store root with a fixed two-level, four-character fanout —
``objects/ab/cd/<digest>`` for blobs and ``<namespace>/ab/cd/<key>.json``
for records (``detections/ab/cd/<key>.json``).  That is 65 536 leaf
directories per namespace.  The tree is the store's only listing
(:meth:`FilesystemBackend.iter_entries`); files outside the namespace
directories (an old version's ``layout.json``, ``index/``, ``results/``,
``values/`` or ``matrix/``) are ignored.

All writes go through :func:`atomic_write_bytes`: the payload is written
to a same-directory temp file, ``fsync``\\ ed, chmod-ed to honour the
process umask (``mkstemp`` files are 0600, which would make multi-user
stores unreadable), atomically renamed over the destination, and the
directory entry is ``fsync``\\ ed — a crash can lose the newest artifact
but can never leave a truncated record behind the rename.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator

from repro.resilience import faults

#: Record namespaces of the store (blobs live in :data:`BLOB_NAMESPACE`).
NAMESPACES = ("corpora", "detections")
BLOB_NAMESPACE = "objects"


def _current_umask() -> int:
    """The process umask, read without the racy ``os.umask`` dance.

    ``/proc/self/status`` exposes it read-only on Linux; the set-and-
    restore fallback is only taken elsewhere (momentarily visible to
    concurrent threads, hence last resort).
    """
    try:
        with open("/proc/self/status") as stream:
            for line in stream:
                if line.startswith("Umask:"):
                    return int(line.split()[1], 8)
    except (OSError, ValueError, IndexError):
        pass
    value = os.umask(0o022)
    os.umask(value)
    return value


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Durably and atomically write ``data`` to ``path``.

    temp write → ``fsync(file)`` → umask-honouring chmod → ``os.replace``
    → best-effort ``fsync(directory)``.  Readers observe the old content
    or the new content, never a torn file — even across a crash.

    Fault site ``store.write``: a ``raise``/``delay`` fault fires before
    anything is written (a clean transient I/O error); a ``torn`` fault
    simulates a crash *mid-write* — a truncated ``.tmp-`` file is left on
    disk (which readers never see: the rename never happened, and
    ``iter_entries`` skips dot-files) and the write fails.
    """
    try:
        faults.fire("store.write", path.name)
    except faults.TornWrite as torn:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temporary = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        with os.fdopen(handle, "wb") as stream:
            stream.write(data[: len(data) // 2])
        raise faults.FaultInjected(str(torn)) from torn
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.chmod(temporary, 0o666 & ~_current_umask())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise
    try:
        directory = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(directory)
    except OSError:
        pass
    finally:
        os.close(directory)


class FilesystemBackend:
    """The directory tree under one store root, with two-level fanout."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    # -- records --------------------------------------------------------
    def record_path(self, namespace: str, key: str) -> Path:
        return self.root.joinpath(
            namespace, key[:2], key[2:4], f"{key}.json"
        )

    def load_record_bytes(self, namespace: str, key: str) -> bytes | None:
        """The record's raw bytes, or ``None`` when absent/unreadable."""
        try:
            return self.record_path(namespace, key).read_bytes()
        except OSError:
            return None

    def save_record_bytes(self, namespace: str, key: str, data: bytes) -> Path:
        """Write a record (replacing any old one); returns its path."""
        path = self.record_path(namespace, key)
        atomic_write_bytes(path, data)
        return path

    # -- blobs ----------------------------------------------------------
    def blob_path(self, digest: str) -> Path:
        return self.root.joinpath(BLOB_NAMESPACE, digest[:2], digest[2:4], digest)

    def load_blob(self, digest: str) -> bytes | None:
        """The blob's bytes, or ``None`` when absent/unreadable."""
        try:
            return self.blob_path(digest).read_bytes()
        except OSError:
            return None

    def save_blob(self, digest: str, data: bytes) -> None:
        """Write a blob unless present."""
        path = self.blob_path(digest)
        if not path.exists():
            atomic_write_bytes(path, data)

    # -- maintenance ----------------------------------------------------
    def delete(self, namespace: str, key: str) -> int:
        """Remove one entry; returns the bytes freed (0 when absent).

        Both fanout levels are pruned once empty, so GC leaves no empty
        directory below the namespace directory.
        """
        if namespace == BLOB_NAMESPACE:
            path = self.blob_path(key)
        else:
            path = self.record_path(namespace, key)
        try:
            size = path.stat().st_size
            os.unlink(path)
        except OSError:
            return 0
        for directory in (path.parent, path.parent.parent):
            try:
                directory.rmdir()
            except OSError:  # not empty (or already gone): stop pruning
                break
        return size

    def iter_entries(self, *namespaces: str) -> Iterator[tuple[str, str, int, float]]:
        """Yield ``(namespace, key, size_bytes, mtime)`` for every
        entry of ``namespaces`` (default: all; blobs use
        :data:`BLOB_NAMESPACE`).  One walk of the tree — the store's only
        listing, behind ``store stats``, ``corpus info`` and GC."""
        for namespace in namespaces or (BLOB_NAMESPACE, *NAMESPACES):
            directory = self.root / namespace
            if not directory.is_dir():
                continue
            suffix = "" if namespace == BLOB_NAMESPACE else ".json"
            for parent, _dirs, files in os.walk(directory):
                for name in files:
                    if name.startswith("."):  # in-flight .tmp- files
                        continue
                    if suffix and not name.endswith(suffix):
                        continue
                    key = name[: -len(suffix)] if suffix else name
                    try:
                        status = os.stat(os.path.join(parent, name))
                    except OSError:
                        continue
                    yield namespace, key, status.st_size, status.st_mtime
