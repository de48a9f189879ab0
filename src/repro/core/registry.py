"""Declarative detector registry — the single source of detector truth.

Every function-start detector (the FETCH pipeline and all nine baseline
models) registers itself with :func:`register_detector`, carrying the
metadata the evaluation stack needs:

* its table name and paper column ``order``,
* its options dataclass (when the detector is configurable),
* whether it is one of the eight Table III *comparison* tools and whether it
  belongs to the scenario *matrix* (the comparison tools plus ByteWeight and
  FETCH),
* scenario capabilities: ``needs_eh_frame`` (the detector seeds from FDEs
  and degrades without an ``.eh_frame`` section) and ``cet_aware`` (the
  detector switches to endbr64-anchored signatures on CET binaries).

Consumers — ``all_comparison_tools``, ``MATRIX_DETECTORS``,
:class:`~repro.eval.runner.ScenarioMatrix`, the benchmarks and the CLI's
``--detector`` flag — look detectors up here instead of hard-coding lists,
so adding a detector is one decorator, not five edits.  Registration stores
*classes*; nothing is instantiated until a caller asks for an instance.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Iterable

#: Modules whose import registers every known detector.  Queries import
#: these lazily so registry consumers never depend on import order; a
#: lookup of one name stops at the first module that registers it, so
#: asking for FETCH never loads the baseline models.
_PROVIDER_MODULES = ("repro.core.pipeline", "repro.baselines")

_REGISTRY: dict[str, "DetectorInfo"] = {}


@dataclass(frozen=True)
class DetectorInfo:
    """Declarative metadata for one registered detector."""

    #: short name used in tables and on the command line ("fetch", "ghidra")
    name: str
    #: the detector class; ``cls()`` must build a default-configured instance
    cls: type
    #: cache version of the detector's *logic*: part of every detection
    #: record's store key (CLI, service, evaluator), so bumping it invalidates
    #: cached artifacts when the detector's behaviour changes.  Bump it when
    #: editing the detector or a shared analysis it depends on.
    version: str = "1"
    #: the options dataclass accepted by ``cls(options)``, if any
    options_cls: type | None = None
    #: paper column order (Table III / Table V); queries sort by it
    order: int = 1000
    #: one of the eight Table III comparison tools
    comparison: bool = False
    #: member of the scenario matrix (comparison tools + ByteWeight + FETCH)
    matrix: bool = True
    #: seeds from ``.eh_frame`` FDEs; degrades when the section is missing
    needs_eh_frame: bool = False
    #: switches to endbr64-anchored prologue signatures on CET binaries
    cet_aware: bool = False
    #: one-line description for ``fetch-detect --list-detectors``
    description: str = ""

    def create(self, options: Any | None = None) -> Any:
        """Instantiate the detector, optionally with an options object."""
        if options is None:
            return self.cls()
        if self.options_cls is None:
            raise TypeError(f"detector {self.name!r} takes no options")
        if not isinstance(options, self.options_cls):
            raise TypeError(
                f"detector {self.name!r} expects {self.options_cls.__name__} "
                f"options, got {type(options).__name__}"
            )
        return self.cls(options)


def register_detector(
    name: str,
    *,
    options: type | None = None,
    order: int = 1000,
    comparison: bool = False,
    matrix: bool = True,
    needs_eh_frame: bool = False,
    cet_aware: bool = False,
    description: str = "",
    version: str = "1",
):
    """Class decorator registering a detector under ``name``.

    The decorated class's ``name`` attribute is set from the registration so
    the registry and the class can never disagree; ``cache_version`` is set
    from ``version`` and participates in every artifact-store key.
    Registering two distinct classes under one name is an error;
    re-executing a module (so the "same" class object is rebuilt) silently
    replaces the entry.
    """

    def decorate(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.cls is not cls:
            same_class = (
                existing.cls.__module__ == cls.__module__
                and existing.cls.__qualname__ == cls.__qualname__
            )
            if not same_class:
                raise ValueError(
                    f"detector name {name!r} is already registered by "
                    f"{existing.cls.__module__}.{existing.cls.__qualname__}"
                )
        declared = cls.__dict__.get("name")
        if declared is not None and declared != name:
            raise ValueError(
                f"class {cls.__qualname__} declares name={declared!r} but is "
                f"registered as {name!r}"
            )
        cls.name = name
        cls.cache_version = version
        _REGISTRY[name] = DetectorInfo(
            name=name,
            cls=cls,
            version=version,
            options_cls=options,
            order=order,
            comparison=comparison,
            matrix=matrix,
            needs_eh_frame=needs_eh_frame,
            cet_aware=cet_aware,
            description=description,
        )
        return cls

    return decorate


def _ensure_loaded(name: str | None = None) -> None:
    """Import the providers until ``name`` is registered (all of them when
    ``name`` is ``None`` or unknown)."""
    for module in _PROVIDER_MODULES:
        if name in _REGISTRY:
            return
        importlib.import_module(module)


def detector_info(name: str) -> DetectorInfo:
    """The registration record of ``name`` (raises ``KeyError`` if unknown)."""
    _ensure_loaded(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown detector {name!r}; registered: {known}") from None


def detectors(
    *,
    include: Iterable[str] | None = None,
    comparison: bool | None = None,
    matrix: bool | None = None,
    needs_eh_frame: bool | None = None,
    cet_aware: bool | None = None,
) -> list[DetectorInfo]:
    """Registered detectors in paper column order, optionally filtered.

    ``include`` names detectors explicitly (unknown names raise);
    the boolean filters match the corresponding :class:`DetectorInfo` flags.
    """
    _ensure_loaded()
    selected = sorted(_REGISTRY.values(), key=lambda info: (info.order, info.name))
    if include is not None:
        wanted = set(include)
        for name in wanted:
            detector_info(name)  # raise on unknown names
        selected = [info for info in selected if info.name in wanted]
    for flag, value in (
        ("comparison", comparison),
        ("matrix", matrix),
        ("needs_eh_frame", needs_eh_frame),
        ("cet_aware", cet_aware),
    ):
        if value is not None:
            selected = [info for info in selected if getattr(info, flag) == value]
    return selected


def detector_names(**filters: Any) -> list[str]:
    """Names of :func:`detectors` under the same filters."""
    return [info.name for info in detectors(**filters)]


def create_detector(name: str, options: Any | None = None) -> Any:
    """Instantiate the registered detector ``name``."""
    return detector_info(name).create(options)


def create_detectors(specs: Iterable[Any] | None = None) -> list[tuple[Any, bool]]:
    """Instantiate a batch of detectors, preserving request order.

    ``specs`` mixes registered names (instantiated with default options) and
    ready-made detector instances (passed through untouched — how tests and
    embedders inject custom-configured or stub detectors); each detector
    comes paired with whether it was named (``True``) or passed (``False``).
    ``None`` or an empty iterable means the default detector set: FETCH
    alone, named.  Unknown names raise ``KeyError`` before anything runs, so
    a batch request fails fast instead of mid-stream.
    """
    requested = list(specs) if specs is not None else []
    if not requested:
        requested = ["fetch"]
    return [
        (create_detector(spec), True) if isinstance(spec, str) else (spec, False)
        for spec in requested
    ]


__all__ = [
    "DetectorInfo",
    "register_detector",
    "detector_info",
    "detectors",
    "detector_names",
    "create_detector",
    "create_detectors",
]
