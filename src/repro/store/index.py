"""Append-only manifest/index journal of the artifact store.

Every artifact write appends one JSON line to ``index/journal.jsonl``
(``{"op": "put", "ns": ..., "key": ..., "bytes": ..., "ts": ...}``; GC
appends ``"del"`` lines), so ``fetch-detect store stats``, corpus-manifest
listings and key enumeration answer from the index — never by walking the
object tree.  When the journal outgrows ``journal_limit_bytes`` it is
compacted: the surviving entries are folded into an atomic
``index/snapshot.json`` and the journal restarts empty.  Appends and
compaction run under the store's cross-process :class:`FileLock`, so a
compaction can never drop a concurrent writer's append.

The index is an *accelerator*, not the source of truth: it can always be
rebuilt from the tree (``StoreIndex.rebuild``, exposed as
``fetch-detect store stats --rebuild``), and a store whose index is
missing simply reads as empty until rebuilt.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.store.backend import atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.backend import FilesystemBackend

SNAPSHOT_FORMAT = 1


class StoreIndex:
    """Journal + snapshot index over one store root.

    All mutating methods (``append``, ``compact``, ``rebuild``) must be
    called while holding the store's file lock — the :class:`ArtifactStore`
    wraps them; nothing here takes locks itself.  Reads (``entries``,
    ``stats``, ``keys``) are lock-free: the snapshot is atomically
    replaced and journal lines are appended whole, so a reader sees a
    consistent prefix at worst.
    """

    def __init__(self, root: str | os.PathLike, *, journal_limit_bytes: int = 1_000_000):
        self.directory = Path(root) / "index"
        self.journal_path = self.directory / "journal.jsonl"
        self.snapshot_path = self.directory / "snapshot.json"
        self.journal_limit_bytes = int(journal_limit_bytes)

    # -- writes (caller holds the store lock) ---------------------------
    def append(self, op: str, namespace: str, key: str, size_bytes: int) -> int:
        """Append one journal line; returns the journal size afterwards."""
        record = {
            "op": op,
            "ns": namespace,
            "key": key,
            "bytes": int(size_bytes),
            "ts": round(time.time(), 6),
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        self.directory.mkdir(parents=True, exist_ok=True)
        handle = os.open(
            self.journal_path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o666
        )
        try:
            os.write(handle, line)
            return os.lseek(handle, 0, os.SEEK_CUR)
        finally:
            os.close(handle)

    def compact(self) -> int:
        """Fold the journal into the snapshot; returns surviving entries."""
        entries = self.entries()
        self._write_snapshot(entries)
        try:
            os.unlink(self.journal_path)
        except OSError:
            pass
        return len(entries)

    def rebuild(self, backend: "FilesystemBackend") -> dict[str, int]:
        """Reconstruct the index from the object tree (the one slow walk)."""
        entries = {
            (namespace, key): {"bytes": size, "ts": round(mtime, 6)}
            for namespace, key, _path, size, mtime in backend.iter_entries()
        }
        self._write_snapshot(entries)
        try:
            os.unlink(self.journal_path)
        except OSError:
            pass
        return {"entries": len(entries)}

    def _write_snapshot(self, entries: dict[tuple[str, str], dict[str, Any]]) -> None:
        payload = {
            "format": SNAPSHOT_FORMAT,
            "compacted_unix": round(time.time(), 3),
            "entries": {
                f"{namespace}/{key}": value
                for (namespace, key), value in sorted(entries.items())
            },
        }
        atomic_write_bytes(
            self.snapshot_path,
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
        )

    # -- reads (lock-free) ----------------------------------------------
    def entries(self) -> dict[tuple[str, str], dict[str, Any]]:
        """The live index: snapshot plus journal replay, ``del``\\ s applied."""
        entries: dict[tuple[str, str], dict[str, Any]] = {}
        try:
            snapshot = json.loads(self.snapshot_path.read_text())
            if snapshot.get("format") == SNAPSHOT_FORMAT:
                for joined, value in snapshot.get("entries", {}).items():
                    namespace, _, key = joined.partition("/")
                    entries[(namespace, key)] = value
        except (OSError, ValueError, AttributeError):
            pass
        for record in self._journal_records():
            identity = (record.get("ns", ""), record.get("key", ""))
            if record.get("op") == "del":
                entries.pop(identity, None)
            else:
                entries[identity] = {
                    "bytes": record.get("bytes", 0),
                    "ts": record.get("ts", 0.0),
                }
        return entries

    def _journal_records(self) -> Iterable[dict[str, Any]]:
        try:
            lines = self.journal_path.read_bytes().splitlines()
        except OSError:
            return
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn trailing line never poisons the index
            if isinstance(record, dict):
                yield record

    def has_data(self) -> bool:
        return self.snapshot_path.exists() or self.journal_path.exists()

    def keys(self, namespace: str) -> list[str]:
        """Every indexed key of ``namespace``, sorted (no tree walk)."""
        return sorted(
            key for (ns, key) in self.entries() if ns == namespace
        )

    def stats(self) -> dict[str, Any]:
        """Entry counts and byte totals, overall and per namespace."""
        per_namespace: dict[str, dict[str, int]] = {}
        total_bytes = 0
        entries = self.entries()
        for (namespace, _key), value in entries.items():
            bucket = per_namespace.setdefault(namespace, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += int(value.get("bytes", 0))
            total_bytes += int(value.get("bytes", 0))
        try:
            journal_bytes = self.journal_path.stat().st_size
        except OSError:
            journal_bytes = 0
        return {
            "entries": len(entries),
            "bytes": total_bytes,
            "namespaces": per_namespace,
            "journal_bytes": journal_bytes,
            "compacted": self.snapshot_path.exists(),
        }
