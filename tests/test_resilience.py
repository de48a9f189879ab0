"""Tests for the resilience substrate: the deterministic fault-injection
plane, the recovery policies, and the supervised execution paths that
consume them (worker pool, process pool, store, detection service)."""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import pytest

from repro.core.results import DetectionResult
from repro.eval import executor
from repro.eval.executor import ShardedWorkerPool, parallel_map
from repro.resilience import faults, policy
from repro.resilience.faults import FaultInjected, FaultPlan, WorkerKilled
from repro.resilience.policy import DetectorTimeout, ResilienceConfig, retry, retryable
from repro.service import DetectionService
from repro.store.locking import FileLock, LockTimeout


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """Every test leaves the process with no fault plan installed."""
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# The fault plan and injector
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_spec_round_trips(self):
        spec = "seed=42;detect:raise:rate=0.3,max=10;worker:kill:rate=0.1;store.lock:delay"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 42
        assert [f.site for f in plan.faults] == ["detect", "worker", "store.lock"]
        assert FaultPlan.parse(plan.render()) == plan

    def test_defaults(self):
        plan = FaultPlan.parse("store.write:torn")
        assert plan.seed == 0
        fault = plan.faults[0]
        assert fault.rate == 1.0 and fault.max_injections == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "seed=5",  # no faults
            "detect",  # no kind
            "detect:explode",  # unknown kind
            "detect:raise:rate=2.0",  # rate out of range
            "detect:raise:volume=11",  # unknown parameter
        ],
    )
    def test_bad_specs_are_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_decisions_are_deterministic_per_seed(self):
        plan = FaultPlan.parse("seed=7;detect:raise:rate=0.4")

        def pattern():
            injector = faults.FaultInjector(plan)
            outcomes = []
            for i in range(64):
                try:
                    injector.fire("detect", f"key{i % 5}")
                    outcomes.append(0)
                except FaultInjected:
                    outcomes.append(1)
            return outcomes

        first, second = pattern(), pattern()
        assert first == second
        assert 1 in first and 0 in first  # a 0.4 rate injects some, not all

        other = faults.FaultInjector(FaultPlan.parse("seed=8;detect:raise:rate=0.4"))
        different = []
        for i in range(64):
            try:
                other.fire("detect", f"key{i % 5}")
                different.append(0)
            except FaultInjected:
                different.append(1)
        assert different != first  # the seed matters

    def test_budget_lets_retries_eventually_succeed(self):
        injector = faults.FaultInjector(FaultPlan.parse("detect:raise:rate=1.0,max=2"))
        failures = 0
        for _ in range(5):
            try:
                injector.fire("detect", "one-key")
            except FaultInjected:
                failures += 1
        assert failures == 2
        assert injector.injection_counts() == {"detect:raise": 2}

    def test_fire_is_noop_without_a_plan(self):
        assert faults.active() is None
        faults.fire("detect", "anything")  # must not raise

    def test_injected_context_restores_previous_plan(self):
        with faults.injected("detect:raise:rate=0.0") as outer:
            assert faults.active() is outer
            with faults.injected("worker:kill:rate=0.0") as inner:
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_domain_typed_raise(self):
        with faults.injected("store.lock:raise:rate=1.0"):
            with pytest.raises(LockTimeout):
                faults.fire("store.lock", "x", raises=LockTimeout)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------

class TestRetryPolicy:
    """The retry policy: :func:`retry` and its classifier :func:`retryable`."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        """The delays :func:`retry` sleeps, recorded instead of slept."""
        slept: list[float] = []
        monkeypatch.setattr(policy.time, "sleep", slept.append)
        return slept

    def test_retries_transient_errors_then_succeeds(self, sleeps):
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] < 3:
                raise OSError("transient")
            return "ok"

        retries = []
        assert retry(flaky, attempts=3, base_delay=0.0, on_retry=lambda: retries.append(1)) == "ok"
        assert calls[0] == 3 and len(retries) == 2

    def test_gives_up_after_attempts(self, sleeps):
        calls = [0]

        def always():
            calls[0] += 1
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError):
            retry(always, attempts=2, base_delay=0.0)
        assert calls[0] == 2

    def test_non_retryable_fails_fast(self, sleeps):
        calls = [0]

        def fatal():
            calls[0] += 1
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry(fatal, attempts=5, base_delay=0.0)
        assert calls[0] == 1 and sleeps == []

    def test_detector_timeout_is_not_retried(self, sleeps):
        calls = [0]

        def wedged():
            calls[0] += 1
            raise DetectorTimeout("budget")

        with pytest.raises(DetectorTimeout):
            retry(wedged, attempts=5, base_delay=0.0)
        assert calls[0] == 1 and sleeps == []

    def test_classification(self):
        assert retryable(LockTimeout("contended"))  # contention is transient
        assert retryable(FaultInjected("injected"))
        assert retryable(OSError("io"))
        assert retryable(ConnectionError("reset"))
        assert not retryable(DetectorTimeout("budget"))  # deliberate
        assert not retryable(RuntimeError("logic"))

    def test_backoff_is_deterministic_exponential_and_capped(self, sleeps):
        def schedule(base_delay: float) -> list[float]:
            sleeps.clear()
            with pytest.raises(OSError):
                retry(_raise_os_error, attempts=8, base_delay=base_delay)
            return list(sleeps)

        first = schedule(0.01)
        assert first == schedule(0.01)
        assert first == [
            min(0.01 * policy.BACKOFF_MULTIPLIER ** n, policy.MAX_BACKOFF) for n in range(7)
        ] == [0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25]


def _raise_os_error():
    raise OSError("down")


# ----------------------------------------------------------------------
# Supervised worker pool
# ----------------------------------------------------------------------

class TestWorkerSupervision:
    def test_pool_survives_injected_kills_and_loses_nothing(self):
        with faults.injected("seed=11;worker:kill:rate=0.3") as injector:
            done: list[int] = []
            lock = threading.Lock()

            def record(value: int):
                with lock:
                    done.append(value)

            pool = ShardedWorkerPool(2)
            for i in range(40):
                pool.submit(i, lambda i=i: record(i))
            pool.close(wait=True)

        kills = injector.injection_counts().get("worker:kill", 0)
        assert kills > 0, "the 0.3 kill rate must actually fire for this seed"
        # zero lost, zero duplicated: every task ran exactly once
        assert sorted(done) == list(range(40))
        assert pool.worker_restarts == kills
        assert pool.requeued_tasks == kills

    def test_mid_task_death_restarts_but_does_not_requeue(self):
        ran = []
        pool = ShardedWorkerPool(1)

        def die():
            ran.append("die")
            raise WorkerKilled("mid-task death")

        def after():
            ran.append("after")

        pool.submit(0, die)
        pool.submit(0, after)
        pool.close(wait=True)
        # the dying task ran once (not requeued), the next task still ran
        assert ran == ["die", "after"]
        assert pool.worker_restarts == 1
        assert pool.requeued_tasks == 0

    def test_plain_task_exceptions_do_not_restart_workers(self):
        pool = ShardedWorkerPool(1)

        def boom():
            raise RuntimeError("task-owned")

        pool.submit(0, boom)
        pool.close(wait=True)
        assert pool.worker_restarts == 0
        assert len(pool.task_errors) == 1


# ----------------------------------------------------------------------
# Process-pool respawn
# ----------------------------------------------------------------------

def _double_or_die(item):
    """Module-level (picklable) task: SIGKILLs its worker once, then works."""
    value, flag = item
    if value == 3 and not os.path.exists(flag):
        Path(flag).touch()
        os.kill(os.getpid(), 9)
    return value * 2


def _always_die(item):
    os.kill(os.getpid(), 9)


def _wedge_once(flag):
    """Initializer: the first child to start hangs; later ones start."""
    if not os.path.exists(flag):
        Path(flag).touch()
        time.sleep(60)


class TestProcessPoolRespawn:
    def test_parallel_map_survives_a_killed_child(self, tmp_path):
        flag = str(tmp_path / "killed-once")
        items = [(i, flag) for i in range(5)]
        before = executor.POOL_RESPAWNS
        results = parallel_map(_double_or_die, items, workers=2)
        assert results == [0, 2, 4, 6, 8]
        assert os.path.exists(flag), "the kill must actually have happened"
        assert executor.POOL_RESPAWNS == before + 1

    def test_respawn_budget_is_bounded(self):
        from concurrent.futures import BrokenExecutor

        with pytest.raises(BrokenExecutor):
            parallel_map(_always_die, [1, 2, 3], workers=2)

    def test_a_child_that_does_not_start_is_replaced(self, tmp_path, monkeypatch):
        monkeypatch.setattr(executor, "CHILD_START_TIMEOUT", 1.0)
        flag = str(tmp_path / "wedged-once")
        before = executor.POOL_RESPAWNS
        began = time.monotonic()
        with executor.ProcessPool(1, initializer=_wedge_once, initargs=(flag,)) as pool:
            assert pool.map(abs, [-1, -2]) == [1, 2]
        assert os.path.exists(flag), "the first child must actually have hung"
        assert executor.POOL_RESPAWNS == before + 1
        assert time.monotonic() - began < 30

    def test_child_kill_budget_spans_pool_generations(self):
        """A ``max=1`` kill fires once overall, not once per respawned pool.

        The draw happens in the parent, so the replacement pool does not
        start from a fresh copy of the budget; it then also serves later
        ``map`` calls on the same evaluator.
        """
        from repro.core import FetchDetector
        from repro.eval import CorpusEvaluator
        from repro.synth import build_scenario_corpus

        corpus = [
            binary
            for scenario in ("vanilla", "cet")
            for binary in build_scenario_corpus(scenario, scale=0.25, programs=2, seed=11)
        ]
        serial = CorpusEvaluator(corpus)
        expected = serial.run_detector(FetchDetector)
        expected_fde = serial.fde_only_metrics()

        injector = faults.install("pool.child:kill:max=1")
        before = executor.POOL_RESPAWNS
        with CorpusEvaluator(corpus, workers=2) as evaluator:
            metrics = evaluator.run_detector(FetchDetector)
            assert executor.POOL_RESPAWNS == before + 1
            fde = evaluator.fde_only_metrics()
        assert injector.injection_counts() == {"pool.child:kill": 1}
        assert executor.POOL_RESPAWNS == before + 1
        assert [m.__dict__ for m in metrics.per_binary] == [
            m.__dict__ for m in expected.per_binary
        ]
        assert [m.__dict__ for m in fde.per_binary] == [
            m.__dict__ for m in expected_fde.per_binary
        ]

    def test_cli_workers_survive_an_injected_child_kill(self, tmp_path, capsys):
        """``fetch-detect --workers`` fires ``pool.child`` and keeps decode counts."""
        from repro.cli import main
        from repro.synth import compile_program, plan_program
        from repro.synth.profiles import CompilerFamily, OptLevel, default_profile
        from repro.synth.workloads import WorkloadTraits
        from repro.x86.disassembler import DECODE_STATS

        profile = default_profile(CompilerFamily.GCC, OptLevel.O2)
        paths = []
        for seed in range(4):
            plan = plan_program(
                f"pool-{seed}", profile, seed=seed, traits=WorkloadTraits(mean_functions=20)
            )
            path = tmp_path / f"pool-{seed}.elf"
            path.write_bytes(compile_program(plan, keep_elf_bytes=True).elf_bytes)
            paths.append(str(path))

        decodes = DECODE_STATS.raw_decodes
        assert main([*paths, "--no-store"]) == 0
        serial_decodes = DECODE_STATS.raw_decodes - decodes
        serial_out = capsys.readouterr().out

        before = executor.POOL_RESPAWNS
        decodes = DECODE_STATS.raw_decodes
        argv = [*paths, "--no-store", "--workers", "2", "--faults", "pool.child:kill:max=1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial_out
        assert faults.active().injection_counts() == {"pool.child:kill": 1}
        assert executor.POOL_RESPAWNS == before + 1
        assert DECODE_STATS.raw_decodes - decodes == serial_decodes > 0


# ----------------------------------------------------------------------
# Store faults
# ----------------------------------------------------------------------

class TestStoreFaults:
    def test_torn_write_is_invisible_to_readers(self, tmp_path):
        from repro.store.backend import atomic_write_bytes

        target = tmp_path / "record.json"
        payload = b"x" * 100
        with faults.injected("store.write:torn:rate=1.0,max=1"):
            with pytest.raises(FaultInjected):
                atomic_write_bytes(target, payload)
            assert not target.exists(), "a torn write must never be renamed in"
            temps = list(tmp_path.glob(".tmp-*"))
            assert temps and temps[0].stat().st_size == len(payload) // 2
            # the budget is spent: the retry goes through and wins
            atomic_write_bytes(target, payload)
        assert target.read_bytes() == payload

    def test_lock_site_raises_typed_retryable_error(self, tmp_path):
        lock = FileLock(tmp_path / "faulted.lock", timeout=1.0)
        with faults.injected("store.lock:raise:rate=1.0,max=1"):
            with pytest.raises(LockTimeout) as info:
                lock.acquire()
            assert retryable(info.value)
            lock.acquire()  # budget spent: acquisition now succeeds
            lock.release()

    def test_store_reads_are_never_retried(self, tmp_path):
        from repro.eval.unit import lookup_detection
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        key = "cd" * 32
        # a directory where the record should be: reading it is an OSError
        store.backend.record_path("detections", key).mkdir(parents=True)
        counted: list[str] = []
        assert lookup_detection(store, key, count=counted.append) is None
        assert store.stats["detection_misses"] == 1
        assert counted == []  # no store_retries, and nothing degraded


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------

class _SleepyDetector:
    """Sleeps on one poisoned binary name; instant empty result elsewhere."""

    name = "sleepy-stub"

    def __init__(self, poison: str, seconds: float = 2.0):
        self.poison = poison
        self.seconds = seconds

    def detect(self, image, context=None):
        if self.poison in image.name:
            time.sleep(self.seconds)
        return DetectionResult(binary_name=image.name)


class TestServiceResilience:
    def test_injected_detector_faults_are_retried_to_success(self, small_corpus):
        entries = small_corpus[:3]
        with DetectionService(workers=2) as clean_service:
            clean = {
                (r.name, r.detector): r.function_starts
                for r in clean_service.submit(entries).results()
            }

        with faults.injected("seed=3;detect:raise:rate=1.0,max=2") as injector:
            with DetectionService(workers=2) as service:
                results = list(service.submit(entries).results())
                stats = service.stats()

        assert injector.injection_counts() == {"detect:raise": 2}
        assert all(r.ok for r in results)
        assert stats["resilience"]["detector_retries"] == 2
        # surviving results are identical to the fault-free run
        observed = {(r.name, r.detector): r.function_starts for r in results}
        assert observed == clean

    def test_exhausted_retries_fail_only_that_unit(self, small_corpus):
        entries = small_corpus[:3]
        resilience = ResilienceConfig(detect_attempts=2, backoff_base=0.0)
        with faults.injected("seed=5;detect:raise:rate=1.0"):  # unlimited
            with DetectionService(workers=2, resilience=resilience) as service:
                results = list(service.submit(entries).results())
                stats = service.stats()
        assert all(not r.ok for r in results)
        for result in results:
            assert result.failure is not None
            assert result.failure["site"] == "detect"
            assert result.failure["kind"] == "FaultInjected"
            assert result.failure["attempts"] == 2
            assert result.failure["retryable"] is True
        assert stats["resilience"]["degraded_units"] == len(results)

    def test_detector_timeout_degrades_only_the_wedged_entry(self, small_corpus):
        # the timeout bounds a shard child's detection; a detector instance
        # runs inline on the shard thread, unbounded, and leaves no thread
        from repro.core import FetchDetector

        entries = small_corpus[:3]
        poison = entries[1].name
        with DetectionService(workers=2) as clean_service:
            clean = {
                r.name: r.function_starts
                for r in clean_service.submit(entries, detectors=[FetchDetector()]).results()
            }

        threads_before = threading.active_count()
        resilience = ResilienceConfig(detector_timeout=0.2, detect_attempts=1)
        with DetectionService(workers=2, resilience=resilience) as service:
            detectors = [_SleepyDetector(poison, seconds=0.5), FetchDetector()]
            results = list(service.submit(entries, detectors=detectors).results())
        assert threading.active_count() == threads_before
        assert len(results) == 2 * len(entries)
        assert all(r.ok for r in results)
        fetch = {r.name: r.function_starts for r in results if r.detector == "fetch"}
        assert fetch == clean

    def test_store_write_faults_degrade_without_failing_units(
        self, small_corpus, tmp_path
    ):
        from repro.store import ArtifactStore

        entries = small_corpus[:2]
        store = ArtifactStore(tmp_path / "chaos-store")
        resilience = ResilienceConfig(backoff_base=0.0)
        with faults.injected("seed=9;store.write:torn:rate=1.0"):
            with DetectionService(
                workers=2, store=store, resilience=resilience
            ) as service:
                results = list(service.submit(entries).results())
                stats = service.stats()
        assert all(r.ok for r in results), "persistence failures must not fail units"
        assert all(r.function_starts for r in results)
        assert stats["resilience"]["store_degraded"] >= len(results)
        assert stats["resilience"]["store_retries"] >= 1

    def test_worker_kills_lose_no_entries(self, small_corpus):
        entries = small_corpus[:6]
        with DetectionService(workers=2) as clean_service:
            clean = {
                (r.name, r.detector): r.function_starts
                for r in clean_service.submit(entries).results()
            }
        with faults.injected("seed=2;worker:kill:rate=0.4") as injector:
            with DetectionService(workers=2) as service:
                handle = service.submit(entries)
                assert handle.wait(timeout=60.0)
                results = list(handle.results())
                stats = service.stats()
        kills = injector.injection_counts().get("worker:kill", 0)
        assert kills > 0, "the 0.4 kill rate must fire for this seed"
        assert len(results) == len(entries)
        assert all(r.ok for r in results)
        assert {(r.name, r.detector): r.function_starts for r in results} == clean
        assert stats["resilience"]["worker_restarts"] == kills
