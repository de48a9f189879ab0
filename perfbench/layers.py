"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions that bound each layer of the
detection stack and of the service around it, and attributes *self* time:
a span's duration minus the part its nested spans cover.  Nothing in
``src/`` is edited; the wrappers replace module attributes and class
methods while installed and restore them on :meth:`Tracer.uninstall`, so
one process can alternate traced and untraced blocks of requests.

``decode_block`` is wrapped at both places the pipeline imports it, so
decode time is its own layer wherever it runs (FDE validation, recursion,
pointer validation), not part of whichever stage touched an address first.

:data:`PER_LAYER` lists every per-layer metric with the end-to-end metric
and workload it should move; ``BENCHMARK.json``'s ``per_layer`` list is
checked against it by ``perfbench/smoke.py``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: the comparison tools of Table III, by registry name, with their classes
TOOLS = {
    "dyninst": ("repro.baselines.dyninst_like", "DyninstLike"),
    "bap": ("repro.baselines.bap_like", "BapLike"),
    "radare2": ("repro.baselines.radare_like", "Radare2Like"),
    "nucleus": ("repro.baselines.nucleus_like", "NucleusLike"),
    "ida": ("repro.baselines.ida_like", "IdaLike"),
    "ninja": ("repro.baselines.ninja_like", "BinaryNinjaLike"),
    "ghidra": ("repro.baselines.ghidra_like", "GhidraLike"),
    "angr": ("repro.baselines.angr_like", "AngrLike"),
    "fetch": ("repro.core.pipeline", "FetchDetector"),
}


def _count_fdes(counts, args, kwargs, result) -> None:
    counts["dwarf.fdes"] += len(result)


def _count_validation(counts, args, kwargs, result) -> None:
    counts["core.fde_seeds"] += len(args[1])
    counts["core.fde_rejected"] += len(result)


def _count_tailcall(counts, args, kwargs, result) -> None:
    counts["core.tailcall_added"] += len(result.added_starts - args[2])


def _count_candidates(counts, args, kwargs, result) -> None:
    counts["analysis.xref_candidates"] += len(result)


def _count_accepted(counts, args, kwargs, result) -> None:
    counts["analysis.xref_accepted"] += bool(result)


#: (span, module, attribute path, counter) — one row per wrapped callable
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("x86.decode", "repro.core.context", "decode_block", None),
    ("x86.decode", "repro.analysis.recursive", "decode_block", None),
    ("elf.parse", "repro.elf.image", "BinaryImage.from_bytes", None),
    ("dwarf.fde_extract", "repro.core.pipeline", "extract_fde_starts", _count_fdes),
    ("core.fde_validation", "repro.core.context",
     "AnalysisContext.filter_invalid_entries", _count_validation),
    ("core.tailcall", "repro.core.pipeline", "detect_tail_calls_and_merge", _count_tailcall),
    ("analysis.recursion", "repro.analysis.recursive",
     "RecursiveDisassembler.disassemble", None),
    ("analysis.xref_collect", "repro.core.pipeline", "collect_potential_pointers",
     _count_candidates),
    ("analysis.xref_validate", "repro.core.pipeline", "validate_function_pointer",
     _count_accepted),
    ("eval.metrics", "repro.eval.runner", "compute_metrics", None),
    ("service.admit", "repro.service.service", "DetectionService.submit", None),
    ("store.digest", "repro.service.service", "blob_digest", None),
    ("store.read", "repro.store.store", "ArtifactStore.load_detection", None),
    ("store.write", "repro.store.store", "ArtifactStore.save_detection", None),
) + tuple(
    (f"detect.{tool}", module, f"{cls}.detect", None) for tool, (module, cls) in TOOLS.items()
)

_MISSING = object()


class _ThreadState:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "counts", "detect_depth")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.detect_depth = 0


class Tracer:
    """Installs timing wrappers on :data:`SPANS`; thread-safe accumulation.

    Each thread keeps its own span stack and totals (the server runs its
    detections on worker threads); :meth:`snapshot` sums them.  Take
    snapshots only while no traced call is in flight.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting -----------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    def _wrap(self, span: str, fn: Callable, counter: Callable | None) -> Callable:
        perf = time.perf_counter
        state_of = self._state
        is_detect = span.startswith("detect.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            context = None
            if is_detect:
                state.detect_depth += 1
                if state.detect_depth == 1:
                    # a shared context is only ever used inside detect calls,
                    # so summing outermost deltas covers its whole lifetime
                    context = args[2] if len(args) > 2 else kwargs.get("context")
                    if context is not None:
                        before = context.stats()
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                state.self_s[span] += elapsed - child
                state.incl_s[span] += elapsed
                state.calls[span] += 1
                if stack:
                    stack[-1] += elapsed
                if is_detect:
                    state.detect_depth -= 1
            if context is not None:
                after = context.stats()
                state.counts["context.hits"] += after.decode_hits - before.decode_hits
                state.counts["context.misses"] += after.decode_misses - before.decode_misses
            if counter is not None:
                counter(state.counts, args, kwargs, result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Summed ``self``/``incl`` seconds, ``calls`` and ``counts``."""
        totals: dict[str, defaultdict] = {
            "self": defaultdict(float),
            "incl": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(int),
        }
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, source in (
                ("self", state.self_s),
                ("incl", state.incl_s),
                ("calls", state.calls),
                ("counts", state.counts),
            ):
                for name, value in list(source.items()):
                    totals[key][name] += value
        return {key: dict(value) for key, value in totals.items()}

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for span, module_name, path, counter in SPANS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            if isinstance(original, classmethod):
                patched: Any = classmethod(self._wrap(span, original.__func__, counter))
            else:
                # an inherited method is wrapped on the subclass itself
                target = getattr(owner, attr) if original is _MISSING else original
                patched = self._wrap(span, target, counter)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: name -> (unit, better, should move / mostly on / no change on).  Times
#: are self time per result unless noted; counts are per result.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "x86.decode_ms": ("ms", "lower", "latency_p50_ref, throughput_per_ref | detect-cold, compare-tools | serve-warm"),
    "x86.decode_calls": ("count", "lower", "latency_p50_ref | detect-cold, compare-tools | serve-warm"),
    "x86.raw_decodes": ("count", "lower", "latency_p50_ref, throughput_per_ref | detect-cold, compare-tools | serve-warm (exact per seed in-process)"),
    "elf.parse_ms": ("ms", "lower", "latency_p50_ref | detect-cold | serve-warm"),
    "dwarf.fde_extract_ms": ("ms", "lower", "latency_p50_ref | detect-cold | serve-warm (includes the lazy .eh_frame parse)"),
    "dwarf.fdes": ("count", "higher", "work measure, not a target | detect-cold | serve-warm"),
    "core.fde_validation_ms": ("ms", "lower", "latency_p50_ref | detect-cold | serve-warm"),
    "core.fde_seeds": ("count", "higher", "work measure | detect-cold | serve-warm"),
    "core.fde_rejected": ("count", "lower", "work measure | detect-cold | serve-warm"),
    "core.fde_reject_ratio": ("ratio", "lower", "useful outcomes of entry validation | detect-cold | serve-warm"),
    "core.tailcall_ms": ("ms", "lower", "latency_p50_ref | detect-cold | serve-warm"),
    "core.tailcall_added": ("count", "higher", "work measure | detect-cold | serve-warm"),
    "core.detect_self_ms": ("ms", "lower", "latency_p50_ref | detect-cold | serve-warm (FetchDetector.detect glue)"),
    "core.context_decode_hit_ratio": ("ratio", "higher", "throughput_per_ref | compare-tools, serve-warm | detect-cold"),
    "analysis.recursion_ms": ("ms", "lower", "latency_p50_ref, latency_p90_ref | detect-cold | serve-warm"),
    "analysis.recursion_calls": ("count", "lower", "latency_p50_ref | detect-cold | serve-warm"),
    "analysis.xref_collect_ms": ("ms", "lower", "latency_p50_ref, latency_p90_ref | detect-cold | serve-warm"),
    "analysis.xref_validate_ms": ("ms", "lower", "latency_p50_ref, latency_p90_ref | detect-cold | serve-warm"),
    "analysis.xref_candidates": ("count", "lower", "work measure | detect-cold | serve-warm"),
    "analysis.xref_accept_ratio": ("ratio", "higher", "useful outcomes of pointer validation | detect-cold | serve-warm"),
    **{
        f"baselines.{tool}_ms": (
            "ms", "lower",
            f"throughput_per_ref | compare-tools | every other workload (inclusive time of {tool}'s detect)",
        )
        for tool in TOOLS
    },
    "eval.metrics_ms": ("ms", "lower", "throughput_per_ref | compare-tools | detect-cold"),
    "service.admit_ms": ("ms", "lower", "latency_p50_ref, latency_p90_ref | serve-warm, serve-cold | detect-cold"),
    "service.unit_ms": ("ms", "lower", "latency_p50_ref | serve-cold, serve-warm | detect-cold (result-event seconds)"),
    "service.overhead_ms": ("ms", "lower", "latency_p50_ref, latency_p90_ref | serve-warm, serve-cold | detect-cold (client latency minus unit seconds)"),
    "service.detect_ms": ("ms", "lower", "latency_p50_ref | serve-cold | serve-warm (inclusive FETCH detect in the server)"),
    "service.detector_runs": ("count", "lower", "latency_p50_ref | serve-cold | serve-warm (0 there)"),
    "service.cache_hits": ("count", "higher", "latency_p50_ref | serve-warm | serve-cold"),
    "store.digest_ms": ("ms", "lower", "latency_p90_ref | serve-warm, serve-cold | detect-cold"),
    "store.read_ms": ("ms", "lower", "latency_p90_ref | serve-warm | detect-cold"),
    "store.write_ms": ("ms", "lower", "latency_p90_ref | serve-cold | detect-cold (fsync'd write)"),
    "store.hit_ratio": ("ratio", "higher", "latency_p90_ref | serve-warm | serve-cold (store reads only; memo hits excluded)"),
    "store.lock_wait_ms": ("ms", "lower", "latency_p90_ref | serve-cold | detect-cold"),
    "resilience.retries": ("count", "lower", "failed ops | serve-* (expected 0) | -"),
    "resilience.degraded_units": ("count", "lower", "failed ops | serve-* (expected 0) | -"),
    "false_positives": ("count", "lower", "correctness, exact per seed | all | -"),
    "false_negatives": ("count", "lower", "correctness, exact per seed | all | -"),
    "failed_ratio": ("ratio", "lower", "failed or refused ops / attempted | all (expected 0) | -"),
    "trace.unattributed_ratio": ("ratio", "lower", "share of traced request time outside every named layer | all | -"),
    "trace.overhead_ratio": ("ratio", "lower", "traced / untraced mean latency - 1, alternating blocks | all | -"),
}


def layer_metrics(snapshot: dict[str, dict[str, float]], results: int) -> dict[str, float]:
    """Per-result layer metrics from a :meth:`Tracer.snapshot`."""
    self_s = snapshot.get("self", {})
    incl_s = snapshot.get("incl", {})
    calls = snapshot.get("calls", {})
    counts = snapshot.get("counts", {})
    per = 1.0 / results if results else 0.0

    def ms(span: str, source=self_s) -> float:
        return source.get(span, 0.0) * 1e3 * per

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "x86.decode_ms": ms("x86.decode"),
        "x86.decode_calls": calls.get("x86.decode", 0) * per,
        "elf.parse_ms": ms("elf.parse"),
        "dwarf.fde_extract_ms": ms("dwarf.fde_extract"),
        "dwarf.fdes": counts.get("dwarf.fdes", 0) * per,
        "core.fde_validation_ms": ms("core.fde_validation"),
        "core.fde_seeds": counts.get("core.fde_seeds", 0) * per,
        "core.fde_rejected": counts.get("core.fde_rejected", 0) * per,
        "core.fde_reject_ratio": ratio(
            counts.get("core.fde_rejected", 0), counts.get("core.fde_seeds", 0)
        ),
        "core.tailcall_ms": ms("core.tailcall"),
        "core.tailcall_added": counts.get("core.tailcall_added", 0) * per,
        "core.detect_self_ms": ms("detect.fetch"),
        "core.context_decode_hit_ratio": ratio(
            counts.get("context.hits", 0),
            counts.get("context.hits", 0) + counts.get("context.misses", 0),
        ),
        "analysis.recursion_ms": ms("analysis.recursion"),
        "analysis.recursion_calls": calls.get("analysis.recursion", 0) * per,
        "analysis.xref_collect_ms": ms("analysis.xref_collect"),
        "analysis.xref_validate_ms": ms("analysis.xref_validate"),
        "analysis.xref_candidates": counts.get("analysis.xref_candidates", 0) * per,
        "analysis.xref_accept_ratio": ratio(
            counts.get("analysis.xref_accepted", 0), calls.get("analysis.xref_validate", 0)
        ),
        "eval.metrics_ms": ms("eval.metrics"),
        "service.admit_ms": ms("service.admit"),
        "store.digest_ms": ms("store.digest"),
        "store.read_ms": ms("store.read"),
        "store.write_ms": ms("store.write"),
    }
    for tool in TOOLS:
        metrics[f"baselines.{tool}_ms"] = ms(f"detect.{tool}", incl_s)
    return metrics


def attributed_seconds(snapshot: dict[str, dict[str, float]]) -> float:
    """Total self time over every span: the traced time the layers explain."""
    return sum(snapshot.get("self", {}).values())
