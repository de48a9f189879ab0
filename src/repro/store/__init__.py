"""Content-addressed artifact store for corpora and detection records.

A layered subsystem (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.store.store` — the :class:`ArtifactStore` facade every
  front-end uses;
* :mod:`repro.store.backend` — the on-disk layout of
  :class:`FilesystemBackend` (two-level fanout, durable atomic writes);
* :mod:`repro.store.locking` — cross-process :class:`FileLock`, a
  kernel ``flock`` on a persistent lock file with a timeout (the kernel
  frees a crashed holder's lock; ``fcntl`` limits the store to Linux and
  macOS);
* :mod:`repro.store.gc` — age/size-budget eviction.

The object tree is the only listing: ``fetch-detect store stats``,
``corpus info`` and GC each walk it once.

Typical wiring::

    from repro.store import ArtifactStore
    from repro.synth import build_scenario_matrix_corpora
    from repro.eval import ScenarioMatrix

    store = ArtifactStore("~/.cache/fetch-repro")      # or REPRO_STORE_DIR
    corpora = build_scenario_matrix_corpora(store=store)   # built once
    matrix = ScenarioMatrix(corpora, store=store)          # reads detection records
    matrix.run()                                           # warm: no detector runs
"""

from repro.store.backend import FilesystemBackend
from repro.store.digest import (
    blob_digest,
    canonical_json,
    options_digest,
    stable_digest,
)
from repro.store.gc import GCReport
from repro.store.locking import FileLock, LockTimeout
from repro.store.store import (
    STORE_FORMAT,
    ArtifactStore,
    default_store_root,
    digest_of_binary,
    elf_bytes_of,
)

__all__ = [
    "ArtifactStore",
    "STORE_FORMAT",
    "default_store_root",
    "digest_of_binary",
    "elf_bytes_of",
    "FilesystemBackend",
    "FileLock",
    "LockTimeout",
    "GCReport",
    "blob_digest",
    "canonical_json",
    "options_digest",
    "stable_digest",
]
