"""Tests for the artifact store and the detector registry.

Covers the satellite checklist: corpus round-trip (build → persist →
reload → byte-identical images and equal ground truth), result-cache
hit/miss/invalidation on options change, ``ScenarioMatrix`` resume
re-running only deleted detection records, evaluation that completes
under failing store writes, and registry completeness — plus the
store subsystem layers: the fixed on-disk layout (a root written by an
older version stays warm), durable umask-honouring atomic writes, lock-guarded
stats counters, the cross-process file lock (timeout, crash release),
the tree-walk listing behind ``store stats`` and garbage collection.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import threading
import time

import pytest

from repro.baselines import BaselineTool, all_comparison_tools
from repro.core import FetchDetector, FetchOptions
from repro.core import registry
from repro.elf.writer import write_elf
from repro.eval import MATRIX_DETECTORS, CorpusEvaluator, ScenarioMatrix
from repro.store import (
    ArtifactStore,
    FileLock,
    digest_of_binary,
    LockTimeout,
    options_digest,
    stable_digest,
)
from repro.synth import build_scenario_corpus, build_wild_corpus

import repro.baselines as baselines_package


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def tiny_params() -> dict:
    return {"programs": 2, "scale": 0.1, "seed": 71}


# ----------------------------------------------------------------------
# Corpus round-trip
# ----------------------------------------------------------------------

class TestCorpusRoundTrip:
    def test_reload_is_byte_identical_and_truth_equal(self, store, tiny_params):
        built = build_scenario_corpus("vanilla", store=store, **tiny_params)
        assert store.stats["corpus_misses"] == 1

        reloaded = build_scenario_corpus("vanilla", store=store, **tiny_params)
        assert store.stats["corpus_hits"] == 1
        assert [b.name for b in reloaded] == [b.name for b in built]

        for original, loaded in zip(built, reloaded):
            # the stored blob is exactly the serialized original image
            blob = store.get_blob(digest_of_binary(loaded))
            assert blob == write_elf(original.image.elf)
            # ground truth survives the JSON round trip field-for-field
            assert dataclasses.asdict(loaded.ground_truth) == dataclasses.asdict(
                original.ground_truth
            )
            # the plan round-trips (benchmarks group rows by its profile)
            assert loaded.plan.profile == original.plan.profile
            assert loaded.plan.scenario == original.plan.scenario

    def test_reloaded_binaries_detect_identically(self, store, tiny_params):
        built = build_scenario_corpus("cet", store=store, **tiny_params)
        reloaded = build_scenario_corpus("cet", store=store, **tiny_params)
        detector = FetchDetector()
        for original, loaded in zip(built, reloaded):
            assert (
                detector.detect(original.image).function_starts
                == detector.detect(loaded.image).function_starts
            )

    def test_parameter_change_is_a_different_corpus(self, store, tiny_params):
        build_scenario_corpus("vanilla", store=store, **tiny_params)
        other = dict(tiny_params, seed=tiny_params["seed"] + 1)
        build_scenario_corpus("vanilla", store=store, **other)
        assert store.stats["corpus_misses"] == 2
        assert store.stats["corpus_hits"] == 0

    def test_wild_corpus_round_trips_profiles(self, store):
        built = build_wild_corpus(scale=0.1, max_binaries=2, seed=9, store=store)
        reloaded = build_wild_corpus(scale=0.1, max_binaries=2, seed=9, store=store)
        assert store.stats["corpus_hits"] == 1
        for (profile_a, binary_a), (profile_b, binary_b) in zip(built, reloaded):
            assert profile_a == profile_b
            assert binary_a.name == binary_b.name


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_hit_miss_and_options_invalidation(self, store, tiny_params):
        corpus = build_scenario_corpus("vanilla", store=store, **tiny_params)

        cold = CorpusEvaluator(corpus, store=store)
        metrics_cold = cold.run_detector(FetchDetector)
        assert cold.detector_runs == len(corpus)
        assert store.stats["detection_misses"] == len(corpus)
        assert store.stats["detection_hits"] == 0

        warm = CorpusEvaluator(corpus, store=store)
        metrics_warm = warm.run_detector(FetchDetector)
        assert warm.detector_runs == 0
        assert store.stats["detection_hits"] == len(corpus)
        assert metrics_warm.summary() == metrics_cold.summary()
        for a, b in zip(metrics_cold.per_binary, metrics_warm.per_binary):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

        # changing the options invalidates: distinct digest, fresh misses
        options = FetchOptions(use_tail_call_analysis=False)
        assert options_digest(FetchDetector(options)) != options_digest(FetchDetector())
        changed = CorpusEvaluator(corpus, store=store)
        changed.run_detector(lambda: FetchDetector(options))
        assert changed.detector_runs == len(corpus)

    def test_results_shared_between_rebuilt_and_reloaded_corpora(self, store, tiny_params):
        built = build_scenario_corpus("icf", store=store, **tiny_params)
        CorpusEvaluator(built, store=store).run_detector(FetchDetector)

        reloaded = build_scenario_corpus("icf", store=store, **tiny_params)
        warm = CorpusEvaluator(reloaded, store=store)
        warm.run_detector(FetchDetector)
        assert warm.detector_runs == 0, "reloaded corpus must share binary digests"


# ----------------------------------------------------------------------
# Resumable scenario matrix
# ----------------------------------------------------------------------

class TestScenarioMatrixResume:
    @pytest.fixture()
    def corpora(self, store, tiny_params):
        return {
            scenario: build_scenario_corpus(scenario, store=store, **tiny_params)
            for scenario in ("vanilla", "padded")
        }

    def test_warm_run_has_zero_invocations(self, store, corpora):
        cold = ScenarioMatrix(corpora, store=store, include=("fetch", "ida"))
        cells = cold.run()
        assert cold.detector_invocations == sum(len(c) for c in corpora.values()) * 2

        warm = ScenarioMatrix(corpora, store=store, include=("fetch", "ida"))
        assert warm.run() == cells
        assert warm.detector_invocations == 0

    def test_deleting_a_cell_recomputes_only_that_cell(self, store, corpora):
        """Deleting one binary's detection record re-runs exactly that one
        detection; every other cell input is read back from the store."""
        cold = ScenarioMatrix(corpora, store=store, include=("fetch", "ida"))
        cells = cold.run()

        victim = corpora["padded"][0]
        detector = registry.create_detector("ida")
        key = store.detection_key(
            digest_of_binary(victim), "ida", options_digest(detector)
        )
        store.backend.record_path("detections", key).unlink()

        before = store.stats_snapshot()
        resumed = ScenarioMatrix(corpora, store=store, include=("fetch", "ida"))
        assert resumed.run() == cells
        assert resumed.detector_invocations == 1
        delta = store.stats_delta(before)
        assert delta["detection_misses"] == 1
        assert delta["detection_hits"] == sum(len(c) for c in corpora.values()) * 2 - 1

    def test_bench_record_counts_only_the_runs_lock_waits(self, store, corpora, tmp_path):
        # the corpus builds above took build locks; take the store lock too
        with store._locked():
            pass
        assert store.describe()["lock"]["acquisitions"] >= 1
        matrix = ScenarioMatrix(
            corpora, store=store, include=("fetch",), bench_dir=tmp_path / "bench"
        )
        matrix.run()
        record = json.loads(matrix.write_bench().read_text())
        assert record["store"]["lock"] == {"acquisitions": 0, "wait_seconds_total": 0}

    def test_no_store_path_unchanged(self, corpora):
        matrix = ScenarioMatrix(corpora, include=("fetch",))
        cells = matrix.run()
        assert matrix.detector_invocations == sum(len(c) for c in corpora.values())
        assert set(cells) == set(corpora)

    def test_failing_store_writes_degrade_evaluation_and_matrix(self, store, corpora):
        """With every store write failing, the FDE-only rung and a matrix
        run still complete, and their results equal a fault-free run's."""
        from repro.resilience import faults

        corpus = corpora["vanilla"]
        expected_fde = CorpusEvaluator(corpus).fde_only_metrics().summary()
        expected_cells = ScenarioMatrix(corpora, include=("fetch",)).run()

        with faults.injected("store.write:raise:rate=1.0") as injector:
            fde = CorpusEvaluator(corpus, store=store).fde_only_metrics()
            matrix = ScenarioMatrix(corpora, store=store, include=("fetch",))
            cells = matrix.run()
        assert injector.injection_counts()["store.write:raise"] > 0
        assert fde.summary() == expected_fde
        assert cells == expected_cells
        assert matrix.detector_invocations == sum(len(c) for c in corpora.values())
        assert not (store.root / "detections").exists(), "no write got through"


# ----------------------------------------------------------------------
# Registry completeness
# ----------------------------------------------------------------------

class TestRegistry:
    def test_every_baseline_class_registered_exactly_once(self):
        baseline_classes = [
            value
            for value in vars(baselines_package).values()
            if isinstance(value, type)
            and issubclass(value, BaselineTool)
            and value is not BaselineTool
        ]
        registered = {info.cls: info.name for info in registry.detectors()}
        for cls in baseline_classes:
            assert cls in registered, f"{cls.__name__} is not registered"
        # names are unique by construction (the registry is name-keyed) and
        # every class appears under exactly one name
        assert len(registered) == len(set(registered.values()))

    def test_paper_column_order_and_flags(self):
        assert registry.detector_names(comparison=True) == [
            "dyninst", "bap", "radare2", "nucleus", "ida", "ninja", "ghidra", "angr",
        ]
        assert registry.detector_names(matrix=True)[-1] == "fetch"
        assert registry.detector_info("fetch").needs_eh_frame
        assert registry.detector_info("fetch").options_cls is FetchOptions

    def test_all_comparison_tools_matches_registry(self):
        assert [tool.name for tool in all_comparison_tools()] == registry.detector_names(
            comparison=True
        )

    def test_matrix_detectors_are_uninstantiated_classes(self):
        assert [name for name, _ in MATRIX_DETECTORS] == registry.detector_names(matrix=True)
        for name, factory in MATRIX_DETECTORS:
            assert isinstance(factory, type), f"{name} entry is an instance"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="unknown detector"):
            registry.detector_info("objdump")
        with pytest.raises(KeyError, match="unknown detector"):
            registry.detectors(include=("objdump",))

    def test_duplicate_registration_of_distinct_class_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @registry.register_detector("fetch")
            class Impostor:  # noqa: F811 - deliberately clashing
                pass

    def test_create_detector_type_checks_options(self):
        detector = registry.create_detector("ghidra")
        assert detector.name == "ghidra"
        with pytest.raises(TypeError):
            registry.create_detector("ghidra", FetchOptions())


# ----------------------------------------------------------------------
# Digest stability
# ----------------------------------------------------------------------

def test_stable_digest_is_order_insensitive_and_type_aware():
    assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
    assert stable_digest({1, 2, 3}) == stable_digest({3, 2, 1})
    assert stable_digest((1, 2)) == stable_digest([1, 2])
    assert stable_digest(b"\x01") != stable_digest("01")


def test_options_digest_distinguishes_classes_and_options():
    from repro.baselines import AngrLike, GhidraLike

    assert options_digest(GhidraLike()) != options_digest(AngrLike())
    assert options_digest(FetchDetector()) == options_digest(FetchDetector())


def test_options_digest_includes_detector_cache_version(monkeypatch):
    from repro.baselines import IdaLike

    before = options_digest(IdaLike())
    monkeypatch.setattr(IdaLike, "cache_version", "2", raising=True)
    assert options_digest(IdaLike()) != before, (
        "bumping a detector's registered version must invalidate its cache keys"
    )


def _uncached_options_digest(detector) -> str:
    """The digest as computed before it was memoized: the record, hashed."""
    record = {
        "class": f"{type(detector).__module__}.{type(detector).__qualname__}",
        "version": getattr(detector, "cache_version", None),
    }
    for attribute in ("options", "patterns"):
        if hasattr(detector, attribute):
            record[attribute] = getattr(detector, attribute)
    return stable_digest(record)


def _assert_memo_matches_fresh(detector) -> None:
    fresh = _uncached_options_digest(detector)
    assert options_digest(detector) == fresh  # first call: computed (or a miss)
    assert options_digest(detector) == fresh  # second call: the memo, if hashable


@pytest.mark.parametrize("name", registry.detector_names())
def test_memoized_options_digest_matches_fresh_for_every_default_detector(name):
    _assert_memo_matches_fresh(registry.create_detector(name))


def test_memoized_options_digest_matches_fresh_for_non_default_options():
    from repro.baselines import AngrLike, GhidraLike
    from repro.baselines.angr_like import AngrOptions
    from repro.baselines.ghidra_like import GhidraOptions

    fetch = FetchDetector(FetchOptions(use_symbols=True, use_tail_call_analysis=False))
    ghidra = GhidraLike(GhidraOptions(control_flow_repair=True, function_matching=True))
    angr = AngrLike(AngrOptions(linear_scan=True, function_merging=True))
    for detector in (fetch, ghidra, angr):
        _assert_memo_matches_fresh(detector)
        assert options_digest(detector) != options_digest(type(detector)())


def test_memoized_options_digest_matches_fresh_for_byteweight_patterns():
    from repro.baselines import ByteWeightLike

    tuple_patterns = ByteWeightLike(patterns=(b"\x55\x48\x89\xe5", b"\xf3\x0f\x1e\xfa"))
    _assert_memo_matches_fresh(tuple_patterns)
    # trained patterns held in a list are unhashable: digested afresh each call
    list_patterns = ByteWeightLike()
    list_patterns.patterns = [b"\x55\x48\x89\xe5", b"\x41\x57"]
    _assert_memo_matches_fresh(list_patterns)
    list_patterns.patterns.append(b"\x53")
    _assert_memo_matches_fresh(list_patterns)
    assert options_digest(tuple_patterns) != options_digest(list_patterns)


def test_memoized_options_digest_matches_fresh_for_a_mutable_options_dataclass():
    @dataclasses.dataclass
    class MutableOptions:  # eq without frozen: unhashable
        depth: int = 1

    class Configured:
        cache_version = "1"

        def __init__(self):
            self.options = MutableOptions()

    detector = Configured()
    _assert_memo_matches_fresh(detector)
    detector.options.depth = 2
    _assert_memo_matches_fresh(detector)


def test_memoized_options_digest_follows_an_identity_hashed_options_object():
    @dataclasses.dataclass(eq=False)
    class IdentityOptions:  # hashable, but by identity: mutable under one key
        depth: int = 1

    detector = FetchDetector()
    detector.options = IdentityOptions()
    _assert_memo_matches_fresh(detector)
    detector.options.depth = 2
    _assert_memo_matches_fresh(detector)


# ----------------------------------------------------------------------
# On-disk layout
# ----------------------------------------------------------------------

def test_on_disk_layout_is_fixed_and_marked_roots_stay_warm(tmp_path, tiny_params):
    """Blobs live at ``objects/ab/cd/<digest>``, records at
    ``detections/ab/cd/<key>.json``, and a root carrying the ``layout.json``
    marker older versions wrote reopens warm."""
    root = tmp_path / "store"
    store = ArtifactStore(root)
    corpora = {
        scenario: build_scenario_corpus(scenario, store=store, **tiny_params)
        for scenario in ("vanilla", "padded")
    }
    cold = ScenarioMatrix(corpora, store=store, include=("fetch",))
    cells = cold.run()
    assert cold.detector_invocations > 0

    digest = store.put_blob(b"layout probe")
    assert store.blob_path(digest).relative_to(root).parts == (
        "objects", digest[:2], digest[2:4], digest
    )
    for namespace, suffix in (("objects", ""), ("detections", ".json")):
        files = [path for path in (root / namespace).rglob("*") if path.is_file()]
        assert files, f"the cold run must write {namespace}/"
        for path in files:
            key = path.name[: len(path.name) - len(suffix)]
            assert path.name == f"{key}{suffix}"
            assert path.relative_to(root).parts == (
                namespace, key[:2], key[2:4], path.name
            )

    (root / "layout.json").write_text('{"layout": 2}\n')
    fresh = ArtifactStore(root)
    warm_corpora = {
        scenario: build_scenario_corpus(scenario, store=fresh, **tiny_params)
        for scenario in ("vanilla", "padded")
    }
    warm = ScenarioMatrix(warm_corpora, store=fresh, include=("fetch",))
    assert warm.run() == cells
    assert warm.detector_invocations == 0
    assert fresh.stats["corpus_misses"] == 0


# ----------------------------------------------------------------------
# Malformed records
# ----------------------------------------------------------------------

@pytest.mark.parametrize("payload", [b"[]", b"42", b"null", b'"x"'])
def test_a_record_that_is_not_a_json_object_is_a_miss(store, payload):
    key = "ab" * 32
    for namespace in ("detections", "corpora"):
        path = store.backend.record_path(namespace, key)
        path.parent.mkdir(parents=True)
        path.write_bytes(payload)
    assert store.load_detection(key) is None
    assert store.has_corpus(key) is False
    assert store.load_corpus(key) is None
    assert store.corpus_manifests() == []
    assert "0 corpus manifest(s)" in _cli_output("corpus", "info", "--store", str(store.root))


# ----------------------------------------------------------------------
# Durable atomic writes
# ----------------------------------------------------------------------

class TestAtomicWrites:
    def test_record_files_honour_the_umask(self, store):
        previous = os.umask(0o027)
        try:
            digest = store.put_blob(b"permission probe")
            path = store.save_detection(
                store.detection_key(digest, "fetch", "opts"), {"function_starts": []}
            )
        finally:
            os.umask(previous)
        assert (os.stat(path).st_mode & 0o777) == 0o640, (
            "mkstemp's 0600 must be widened to honour the process umask"
        )
        assert (os.stat(store.blob_path(digest)).st_mode & 0o777) == 0o640

    def test_failed_write_leaves_no_temp_files(self, store, monkeypatch):
        from repro.store import backend as backend_module

        def explode(fd):
            raise OSError("fsync failed")

        monkeypatch.setattr(backend_module.os, "fsync", explode)
        with pytest.raises(OSError):
            store.put_blob(b"doomed")
        leftovers = [
            path
            for path in (store.root / "objects").rglob(".tmp-*")
        ] if (store.root / "objects").exists() else []
        assert leftovers == []


# ----------------------------------------------------------------------
# Stats counters under concurrency
# ----------------------------------------------------------------------

class TestStatsConcurrency:
    def test_concurrent_increments_are_never_lost(self, store):
        """Regression for the unguarded ``stats[...] += 1`` data race."""
        threads = 8
        increments = 2_000
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force aggressive preemption
        try:
            def hammer():
                for _ in range(increments):
                    store._bump("detection_hits")

            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(previous)
        assert store.stats["detection_hits"] == threads * increments

    def test_snapshot_and_delta_are_copies(self, store):
        snapshot = store.stats_snapshot()
        store._bump("detection_hits")
        assert snapshot["detection_hits"] == 0
        assert store.stats_delta(snapshot)["detection_hits"] == 1


# ----------------------------------------------------------------------
# Cross-process file lock
# ----------------------------------------------------------------------

def _hold_lock(path, held) -> None:
    """Child-process body: take ``path``'s lock, report it, and hold it
    until killed (or a minute passes, so a failed test leaves no process
    behind)."""
    FileLock(path).acquire()
    held.set()
    time.sleep(60)


@contextlib.contextmanager
def _holder_process(path):
    """A forked process holding ``path``'s lock for the ``with`` body;
    killed at the end (a waiter killed inside a ``multiprocessing.Event``
    would deadlock whoever sets it, so the child waits on nothing)."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    held = context.Event()
    child = context.Process(target=_hold_lock, args=(path, held))
    child.start()
    try:
        assert held.wait(10), "holder process never took the lock"
        yield child
    finally:
        child.kill()
        child.join(10)
        assert not child.is_alive()


class TestFileLock:
    def test_timeout_raises_instead_of_hanging(self, tmp_path):
        path = tmp_path / "contended.lock"
        holder = FileLock(path)
        holder.acquire()
        try:
            waiter = FileLock(path, timeout=0.1)
            start = time.monotonic()
            with pytest.raises(LockTimeout):
                waiter.acquire()
            assert time.monotonic() - start < 5.0
        finally:
            holder.release()

    def test_live_holder_in_another_process_blocks_until_timeout(self, tmp_path):
        path = tmp_path / "held.lock"
        with _holder_process(path):
            with pytest.raises(LockTimeout):
                FileLock(path, timeout=0.2).acquire()

    def test_killed_holder_frees_the_lock_at_once(self, tmp_path):
        path = tmp_path / "killed.lock"
        with _holder_process(path) as child:
            child.kill()  # SIGKILL: the holder runs no cleanup
            killed = time.monotonic()
            child.join(10)
            assert not child.is_alive()
            lock = FileLock(path, timeout=5.0)
            lock.acquire()
            assert time.monotonic() - killed < 1.0, (
                "the kernel must free a killed holder's lock at once"
            )
            lock.release()

    def test_old_live_holder_is_never_broken_by_age(self, tmp_path):
        path = tmp_path / "long-held.lock"
        with _holder_process(path):
            ancient = time.time() - 7200
            os.utime(path, (ancient, ancient))
            with pytest.raises(LockTimeout):
                FileLock(path, timeout=0.2).acquire()

    def test_stray_lock_file_with_old_contents_does_not_block(self, tmp_path):
        # the pid-file format of earlier versions ("pid ticks time", with
        # "-" for unknown start ticks), naming this live process: the
        # contents mean nothing to a kernel lock
        path = tmp_path / "stray.lock"
        path.write_text(f"{os.getpid()} - {time.time():.3f}\n")
        lock = FileLock(path, timeout=0.2)
        assert lock.acquire() < 0.2
        lock.release()

    def test_forked_child_does_not_keep_a_released_lock(self, tmp_path):
        """The child shares the parent's open file description; release
        must unlock it, not only close the parent's descriptor."""
        import multiprocessing

        path = tmp_path / "inherited.lock"
        lock = FileLock(path)
        lock.acquire()
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,)
        )
        child.start()
        try:
            lock.release()
            other = FileLock(path, timeout=0.5)
            other.acquire()
            other.release()
        finally:
            child.kill()
            child.join(10)
            assert not child.is_alive()

    def test_lock_timeout_is_classified_retryable(self, tmp_path):
        from repro.resilience.policy import retryable

        path = tmp_path / "busy.lock"
        holder = FileLock(path)
        holder.acquire()
        try:
            waiter = FileLock(path, timeout=0.05)
            with pytest.raises(LockTimeout) as info:
                waiter.acquire()
        finally:
            holder.release()
        assert retryable(info.value), "LockTimeout must be retryable so retry() re-attempts it"

    def test_acquire_reports_wait_and_store_records_it(self, store):
        with store._locked():
            pass
        assert len(store.lock_waits) == 1
        assert store.lock_waits[0] >= 0.0
        assert store.describe()["lock"]["acquisitions"] == 1


# ----------------------------------------------------------------------
# Listing: the tree walk behind store stats, corpus info and GC
# ----------------------------------------------------------------------

def _cli_output(*argv: str) -> str:
    from repro.cli import main

    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        assert main(list(argv)) == 0
    return stream.getvalue()


def _store_stats(store: ArtifactStore) -> dict:
    return json.loads(_cli_output("store", "stats", "--store", str(store.root), "--json"))


def _files_on_disk(store: ArtifactStore) -> dict[str, tuple[int, int]]:
    """``{namespace: (files, bytes)}`` counted straight from the tree."""
    from repro.store.backend import BLOB_NAMESPACE, NAMESPACES

    counts = {}
    for namespace in (BLOB_NAMESPACE, *NAMESPACES):
        files = [
            path
            for path in (store.root / namespace).rglob("*")
            if path.is_file() and not path.name.startswith(".")
        ]
        if files:
            counts[namespace] = (len(files), sum(path.stat().st_size for path in files))
    return counts


class TestStoreListing:
    def test_stats_answer_without_walking_the_tree(self, store, monkeypatch):
        store.put_blob(b"listed blob")

        def forbidden(*args, **kwargs):
            raise AssertionError("describe() must not walk the object tree")

        monkeypatch.setattr(store.backend, "iter_entries", forbidden)
        description = store.describe()
        assert set(description) == {"root", "lock"}
        assert description["lock"]["wait_seconds_total"] == 0.0

    def test_duplicate_saves_list_once(self, store):
        digest = store.put_blob(b"same bytes")
        assert store.put_blob(b"same bytes") == digest
        key = store.detection_key(digest, "fetch", "opts")
        store.save_detection(key, {"function_starts": [1]})
        store.save_detection(key, {"function_starts": [1]})
        stats = _store_stats(store)
        assert stats["entries"] == 2
        assert stats["namespaces"]["objects"]["entries"] == 1
        assert stats["namespaces"]["detections"]["entries"] == 1

    def test_writes_take_no_lock(self, store):
        digest = store.put_blob(b"unlocked")
        store.save_detection(
            store.detection_key(digest, "fetch", "opts"), {"function_starts": [1]}
        )
        assert store.describe()["lock"]["acquisitions"] == 0

    def test_stats_match_the_files_through_writes_and_gc(self, store, tiny_params):
        for scenario in ("vanilla", "padded"):
            build_scenario_corpus(scenario, store=store, **tiny_params)
        digest = store.put_blob(b"detected binary")
        key = store.detection_key(digest, "fetch", "opts")
        store.save_detection(key, {"function_starts": [1]})
        store.save_detection(key, {"function_starts": [1]})  # duplicate save
        # what an older version left behind is not part of the listing
        (store.root / "index").mkdir()
        (store.root / "index" / "journal.jsonl").write_text('{"op": "put"}\n')
        legacy = [
            store.root / namespace / "ab" / "cd" / ("ab" * 32 + suffix)
            for namespace, suffix in (
                ("results", ".json"), ("values", ".pkl"), ("matrix", ".json")
            )
        ]
        for path in legacy:
            path.parent.mkdir(parents=True)
            path.write_bytes(b"{}\n")
        info = _cli_output("corpus", "info", "--store", str(store.root))
        assert "2 corpus manifest(s)" in info

        def check() -> None:
            stats = _store_stats(store)
            on_disk = _files_on_disk(store)
            assert {
                namespace: (bucket["entries"], bucket["bytes"])
                for namespace, bucket in stats["namespaces"].items()
            } == on_disk
            assert stats["entries"] == sum(files for files, _ in on_disk.values())
            assert stats["bytes"] == sum(size for _, size in on_disk.values())

        check()
        assert store.gc(max_bytes=0, dry_run=True).evicted > 0
        check()
        assert store.gc(max_bytes=0).evicted > 0
        check()
        assert set(_store_stats(store)["namespaces"]) == {"corpora"}
        assert _cli_output("corpus", "info", "--store", str(store.root)) == info
        for path in legacy:
            assert path.exists(), f"GC leaves {path.parent.parent.parent.name}/ alone"


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------

class TestGarbageCollection:
    def test_age_eviction_spares_corpus_manifests(self, store, tiny_params):
        from repro.store.gc import collect

        build_scenario_corpus("vanilla", store=store, **tiny_params)
        future = time.time() + 10 * 86400
        report = collect(store, max_age_seconds=86400.0, now=future)
        assert report.evicted > 0, "blobs older than a day must be evicted"
        assert "corpora" not in report.by_namespace or (
            report.by_namespace["corpora"]["evicted"] == 0
        )
        manifests = store.corpus_manifests()
        assert len(manifests) == 1, "manifests survive GC"
        # the gutted corpus degrades to a clean miss, never an error
        assert store.load_corpus(manifests[0]["key"]) is None

    def test_size_budget_evicts_oldest_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "gc-store")
        old_digest = store.put_blob(b"o" * 1000)
        path = store.blob_path(old_digest)
        ancient = time.time() - 3600
        os.utime(path, (ancient, ancient))
        new_digest = store.put_blob(b"n" * 1000)

        from repro.store.gc import collect

        report = collect(store, max_bytes=1500)
        assert report.evicted == 1
        assert store.get_blob(old_digest) is None, "the older blob goes first"
        assert store.get_blob(new_digest) is not None

    def test_dry_run_deletes_nothing_and_gc_updates_the_listing(self, store):
        digest = store.put_blob(b"ephemeral")
        preview = store.gc(max_bytes=0, dry_run=True)
        assert preview.evicted == 1
        assert store.get_blob(digest) == b"ephemeral"
        assert _store_stats(store)["entries"] == 1

        report = store.gc(max_bytes=0)
        assert report.evicted == 1
        assert store.get_blob(digest) is None
        assert _store_stats(store)["entries"] == 0, "stats must see the eviction"

    def test_eviction_leaves_no_empty_fanout_directory(self, store, tiny_params):
        from repro.store.backend import BLOB_NAMESPACE, NAMESPACES

        build_scenario_corpus("vanilla", store=store, **tiny_params)
        digest = store.put_blob(b"detected binary")
        store.save_detection(
            store.detection_key(digest, "fetch", "opts"), {"function_starts": [1]}
        )
        assert store.gc(max_bytes=0).evicted > 0
        empty = [
            path
            for namespace in (BLOB_NAMESPACE, *NAMESPACES)
            if (store.root / namespace).is_dir()
            for path in (store.root / namespace).rglob("*")
            if path.is_dir() and not any(path.iterdir())
        ]
        assert empty == [], "both fanout levels must be pruned"

    def test_no_bounds_is_an_inventory_pass(self, store):
        store.put_blob(b"kept")
        report = store.gc()
        assert report.evicted == 0
        assert report.kept == 1
