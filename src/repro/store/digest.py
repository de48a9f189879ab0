"""Stable content digests for cache keys.

Every cache key in the artifact store is the SHA-256 of a *canonical JSON*
rendering of the keyed value: dataclasses become sorted-key objects, enums
their values, sets sorted lists, bytes hex strings.  The rendering is
deterministic across processes and Python versions, which is what makes the
store shareable between runs (and, eventually, machines).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any


def _plain(value: Any) -> Any:
    """Lower ``value`` to JSON-serialisable plain data, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"__dataclass__": type(value).__qualname__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (bytes, bytearray)):
        # type-tagged so b"\x01" and the string "01" cannot collide
        return {"__bytes__": bytes(value).hex()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for digesting")


def canonical_json(value: Any) -> str:
    """The canonical JSON rendering used for digests."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def blob_digest(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes (content address of a blob)."""
    return hashlib.sha256(data).hexdigest()


#: stands in for an ``options``/``patterns`` attribute the detector lacks
_ABSENT = object()


def _options_digest(cls: type, version: Any, options: Any, patterns: Any) -> str:
    record: dict[str, Any] = {"class": f"{cls.__module__}.{cls.__qualname__}", "version": version}
    if options is not _ABSENT:
        record["options"] = options
    if patterns is not _ABSENT:
        record["patterns"] = patterns
    return stable_digest(record)


_memo_options_digest = functools.lru_cache(maxsize=256)(_options_digest)


def _hashed_by_identity(value: Any) -> bool:
    """Whether ``value`` hashes by identity, as an ``eq=False`` dataclass
    does: mutating it would leave a stale digest under an unchanged key."""
    return value is not _ABSENT and value is not None and type(value).__hash__ is object.__hash__


def options_digest(detector: Any) -> str:
    """Digest of a detector instance's configuration and logic version.

    Keys on the detector class, its registered ``cache_version`` (bumped
    when the detector's logic changes, so warm stores never serve results
    of an older implementation) and whatever configuration the instance
    carries: an ``options`` dataclass (FETCH, GHIDRA, ANGR) and/or trained
    ``patterns`` (ByteWeight).  Default-configured instances of the same
    class always share one digest.

    The digest is memoized, keyed on exactly those four inputs: the class,
    ``cache_version`` as read at this call, and the ``options`` and
    ``patterns`` values (a bounded LRU, so a service pays the canonical
    JSON and SHA-256 once per configuration, not once per request).  Keys
    compare with ``==``, so options that compare equal share the digest
    computed first.  When ``options`` or ``patterns`` is unhashable
    (trained patterns in a list, a non-frozen options dataclass) or
    hashed by identity (an ``eq=False`` dataclass), the digest is computed
    afresh.
    """
    inputs = (
        type(detector),
        getattr(detector, "cache_version", None),
        getattr(detector, "options", _ABSENT),
        getattr(detector, "patterns", _ABSENT),
    )
    if not any(map(_hashed_by_identity, inputs[2:])):
        try:
            return _memo_options_digest(*inputs)
        except TypeError:  # an unhashable input
            pass
    return _options_digest(*inputs)
