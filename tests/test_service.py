"""Tests for the persistent detection service.

Covers the service checklist: batch submission with streamed results,
digest-sharded dedupe (in-batch, cross-batch and cross-process through the
store), job states and progress, the failure paths (a detector raising
mid-batch fails only that binary's job entry; an unreadable file likewise),
backpressure under both policies (``reject`` refuses the batch, ``block``
pipelines it), the JSON-lines serve protocol, and the ``fetch-detect
submit`` client whose warm re-run performs zero detector invocations.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.registry import create_detectors, register_detector
from repro.core.results import DetectionResult
from repro.eval.executor import ShardedWorkerPool
from repro.resilience.policy import ResilienceConfig
from repro.service import (
    DetectionService,
    EntryResult,
    JobHandle,
    JobState,
    ServeSession,
    ServiceClosed,
    ServiceSaturated,
)
from repro.store import ArtifactStore, blob_digest


@pytest.fixture(scope="module")
def elf_dir(tmp_path_factory, small_corpus):
    """The small corpus written out as ELF files, service-submission style."""
    from repro.elf.writer import write_elf

    directory = tmp_path_factory.mktemp("service-elves")
    paths = []
    for binary in small_corpus[:4]:
        path = directory / f"{binary.name.replace(':', '_')}.elf"
        path.write_bytes(write_elf(binary.image.elf))
        paths.append(str(path))
    return paths


class SlowDetector:
    """A gated stub detector: blocks until released, then reports nothing."""

    name = "slow-stub"

    def __init__(self, gate: threading.Event):
        self.gate = gate
        self.calls = 0

    def detect(self, image, context=None):
        self.gate.wait(timeout=30)
        self.calls += 1
        return DetectionResult(binary_name=image.name)


class ExplodingDetector:
    """Raises on one specific binary name, succeeds (empty) on the rest."""

    name = "exploding-stub"

    def __init__(self, poison: str):
        self.poison = poison

    def detect(self, image, context=None):
        if self.poison in image.name:
            raise RuntimeError("synthetic mid-batch failure")
        return DetectionResult(binary_name=image.name)


#: what the named detectors below do.  They run in service child processes,
#: which share no memory with the test, so each instance copies its setting
#: when the service creates it (in this process) and carries it over.
_CHILD_PLAN = {"meeting": "", "sleep": 0.0}


@register_detector(
    "test-meet", matrix=False, comparison=False,
    description="test-only detector: meets a second detection, reports its pid",
)
class MeetingDetector:
    """Leaves its pid in the meeting directory, then waits (30 s at most)
    until a second detection has left one too."""

    def __init__(self):
        self.meeting = _CHILD_PLAN["meeting"]

    def detect(self, image, context=None):
        Path(self.meeting, str(os.getpid())).touch()
        deadline = time.monotonic() + 30
        while len(os.listdir(self.meeting)) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        return DetectionResult(binary_name=image.name, function_starts={os.getpid()})


@register_detector(
    "test-sleep", matrix=False, comparison=False,
    description="test-only detector: sleeps, then reports its pid",
)
class SleepingDetector:
    def __init__(self):
        self.seconds = _CHILD_PLAN["sleep"]

    def detect(self, image, context=None):
        time.sleep(self.seconds)
        return DetectionResult(binary_name=image.name, function_starts={os.getpid()})


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# ----------------------------------------------------------------------
# Submission, streaming and dedupe
# ----------------------------------------------------------------------

class TestSubmission:
    def test_path_batch_streams_results(self, elf_dir):
        with DetectionService(workers=2) as service:
            handle = service.submit(elf_dir)
            results = list(handle.results())
        assert len(results) == len(elf_dir)
        assert handle.state is JobState.DONE
        assert handle.progress() == (len(elf_dir), len(elf_dir))
        assert all(result.ok and result.detector == "fetch" for result in results)
        assert all(result.function_starts for result in results)
        # results() replays after completion
        assert [r.name for r in handle.results()] == [r.name for r in results]

    def test_corpus_entries_carry_metrics(self, small_corpus):
        with DetectionService(workers=2) as service:
            handle = service.submit(small_corpus[:3])
            results = list(handle.results())
        assert all(result.metrics is not None for result in results)
        for result in results:
            assert result.metrics.true_count > 0
            assert result.metrics.recall > 0.9

    def test_results_match_direct_detection(self, elf_dir):
        from repro.core import AnalysisContext, FetchDetector
        from repro.elf.image import BinaryImage

        with DetectionService(workers=3) as service:
            by_name = {r.name: r for r in service.submit(elf_dir).results()}
        for path in elf_dir:
            image = BinaryImage.from_file(path)
            expected = FetchDetector().detect(image, AnalysisContext(image))
            assert by_name[path].function_starts == tuple(
                sorted(expected.function_starts)
            )

    def test_duplicate_binaries_dedupe_in_batch(self, elf_dir):
        with DetectionService(workers=2) as service:
            handle = service.submit([elf_dir[0]] * 4)
            results = list(handle.results())
        assert service.detector_runs == 1
        assert sum(result.cached for result in results) == 3
        assert len({result.function_starts for result in results}) == 1

    def test_memoized_binary_is_answered_at_admission(self, small_corpus):
        """Every unit in the memo: ``submit`` completes the entry on the
        calling thread, with no shard task and no queue capacity taken."""
        with DetectionService(workers=1, queue_limit=1) as service:
            assert service.submit(small_corpus[:1]).wait(timeout=60)
            queued = []
            pool_submit = service._pool.submit
            service._pool.submit = lambda *args: queued.append(args) or pool_submit(*args)
            before = service.stats()
            handle = service.submit(small_corpus[:1])
            after = service.stats()
        assert handle.state is JobState.DONE
        [result] = handle.results(timeout=0)
        assert result.cached and result.function_starts
        assert result.metrics is not None  # ground truth is still scored
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["detector_runs"] == before["detector_runs"]
        assert after["pending_entries"] == before["pending_entries"] == 0
        assert queued == []

    def test_memo_hit_submit_renders_no_canonical_json(self, elf_dir, tmp_path, monkeypatch):
        """A memo hit keys its unit with the memoized options digest: the
        detector configuration is not rendered to canonical JSON again."""
        import repro.store.digest as digest

        rendered = []
        canonical_json = digest.canonical_json
        monkeypatch.setattr(
            digest, "canonical_json", lambda value: rendered.append(value) or canonical_json(value)
        )
        with DetectionService(workers=1, store=ArtifactStore(tmp_path / "store")) as service:
            assert service.submit(elf_dir[:1]).wait(timeout=60)
            rendered.clear()
            handle = service.submit(elf_dir[:1])
            assert handle.state is JobState.DONE  # answered from the memo at admission
        assert rendered == []

    def test_store_dedupes_across_services(self, elf_dir, tmp_path):
        store_root = tmp_path / "store"
        with DetectionService(workers=2, store=ArtifactStore(store_root)) as cold:
            list(cold.submit(elf_dir).results())
            assert cold.detector_runs == len(elf_dir)

        # a brand-new service (a "restarted process") over the same store
        with DetectionService(workers=2, store=ArtifactStore(store_root)) as warm:
            results = list(warm.submit(elf_dir).results())
            stats = warm.stats()
        assert warm.detector_runs == 0
        assert all(result.cached for result in results)
        assert stats["store"]["detection_hits"] == len(elf_dir)
        assert stats["store"]["detection_misses"] == 0

    def test_multiple_detectors_and_instances(self, elf_dir):
        exploding = ExplodingDetector(poison="<nowhere>")
        with DetectionService(workers=2) as service:
            handle = service.submit(elf_dir[:2], detectors=["fetch", exploding])
            results = list(handle.results())
        assert handle.total == 4
        assert {result.detector for result in results} == {"fetch", "exploding-stub"}

    def test_unknown_detector_fails_fast(self, elf_dir):
        with DetectionService(workers=1) as service:
            with pytest.raises(KeyError, match="nonexistent"):
                service.submit(elf_dir, detectors=["nonexistent"])
            assert service.stats()["pending_entries"] == 0

    def test_submit_after_close_raises(self, elf_dir):
        service = DetectionService(workers=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(elf_dir)

    def test_unsubmittable_item_fails_only_that_entry(self, elf_dir):
        with DetectionService(workers=1) as service:
            results = list(service.submit([elf_dir[0], object()]).results())
        by_ok = sorted(results, key=lambda result: result.ok)
        assert not by_ok[0].ok and "unsubmittable item" in by_ok[0].error
        assert by_ok[1].ok

    def test_bounded_state_in_long_lived_service(self, elf_dir):
        with DetectionService(workers=1) as service:
            for _ in range(10):
                assert service.submit(elf_dir[:1]).wait(timeout=30)
            stats = service.stats()
        assert stats["jobs"] == 10
        assert len(service._memo) <= service.MEMO_LIMIT

    def test_subscribe_replays_then_streams(self):
        handle = JobHandle(1, total=3)
        first, second, third = (
            EntryResult(name=f"b{index}", digest="", detector="fetch")
            for index in range(3)
        )
        handle._complete(first)
        seen: list[EntryResult] = []
        handle.subscribe(seen.append)
        assert seen == [first]  # replayed on subscribe
        handle._complete(second)
        handle._complete(third)
        assert seen == [first, second, third]  # then streamed as they land
        # a done job only replays
        late: list[EntryResult] = []
        handle.subscribe(late.append)
        assert late == [first, second, third]

    def test_finished_handle_holds_no_listener(self, elf_dir):
        # a kept listener would tie every finished handle to its subscriber
        gate = threading.Event()
        with DetectionService(workers=1) as service:
            handle = service.submit(elf_dir[:2], detectors=[SlowDetector(gate)])
            handle.subscribe(lambda result: None)
            assert len(handle._listeners) == 1
            gate.set()
            assert handle.wait(timeout=30)
        assert handle._listeners == []


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------

class TestFailurePaths:
    def test_detector_raising_fails_only_that_entry(self, elf_dir):
        poison = elf_dir[1]
        with DetectionService(workers=2) as service:
            handle = service.submit(elf_dir, detectors=[ExplodingDetector(poison)])
            results = list(handle.results())

        assert handle.state is JobState.DONE
        failed = [result for result in results if not result.ok]
        assert [result.name for result in failed] == [poison]
        assert "RuntimeError: synthetic mid-batch failure" in failed[0].error
        assert len([result for result in results if result.ok]) == len(elf_dir) - 1

    def test_unreadable_file_fails_only_that_entry(self, elf_dir, tmp_path):
        missing = str(tmp_path / "never-written.elf")
        with DetectionService(workers=2) as service:
            handle = service.submit([elf_dir[0], missing, elf_dir[1]])
            results = list(handle.results())
        assert service.detector_runs == 2
        by_name = {result.name: result for result in results}
        assert not by_name[missing].ok and "Error" in by_name[missing].error
        assert by_name[elf_dir[0]].ok and by_name[elf_dir[1]].ok

    def test_non_elf_bytes_fail_only_that_entry(self, elf_dir, tmp_path):
        junk = tmp_path / "junk.elf"
        junk.write_bytes(b"definitely not an ELF file")
        with DetectionService(workers=1) as service:
            results = list(service.submit([str(junk), elf_dir[0]]).results())
            stats = service.stats()
        by_name = {result.name: result for result in results}
        assert not by_name[str(junk)].ok
        assert by_name[elf_dir[0]].ok
        # the entry's own failure, wherever it was parsed: not the detector's
        assert by_name[str(junk)].failure["site"] == "entry"
        assert stats["resilience"]["degraded_units"] == 0

    def test_failed_detection_is_not_cached(self, elf_dir, tmp_path):
        poison = elf_dir[0]
        store = ArtifactStore(tmp_path / "store")
        with DetectionService(workers=1, store=store) as service:
            list(service.submit([poison], detectors=[ExplodingDetector(poison)]).results())
            # the failure must not have poisoned the cache for a healthy run
            results = list(service.submit([poison]).results())
        assert results[0].ok and not results[0].cached


# ----------------------------------------------------------------------
# Child processes: named detectors run in one child per shard
# ----------------------------------------------------------------------

class TestChildProcesses:
    def test_two_named_detections_overlap_in_two_children(
        self, elf_dir, tmp_path, monkeypatch
    ):
        meeting = tmp_path / "meeting"
        meeting.mkdir()
        monkeypatch.setitem(_CHILD_PLAN, "meeting", str(meeting))
        with DetectionService(workers=2) as service:
            # the same program under a second digest, on the other shard
            with open(elf_dir[0], "rb") as stream:
                data = stream.read()
            shard = service._pool.shard_of(blob_digest(data))
            for number in range(1, 64):
                variant = data[:9] + number.to_bytes(7, "little") + data[16:]
                if service._pool.shard_of(blob_digest(variant)) != shard:
                    break
            other = tmp_path / "variant.elf"
            other.write_bytes(variant)
            results = list(
                service.submit([elf_dir[0], str(other)], detectors=["test-meet"]).results(
                    timeout=60
                )
            )
            children = {child.pid for child in multiprocessing.active_children()}
        assert [result.error for result in results] == [None, None]
        pids = {result.function_starts[0] for result in results}
        assert len(pids) == 2 and os.getpid() not in pids
        assert pids <= children
        assert not any(_alive(pid) for pid in pids)
        assert multiprocessing.active_children() == []

    def test_detector_instances_stay_on_the_shard_thread(self, elf_dir):
        with DetectionService(workers=1) as service:
            results = list(service.submit(elf_dir[:1], detectors=["fetch"]).results())
            assert results[0].ok and multiprocessing.active_children()
        gate = threading.Event()
        gate.set()
        with DetectionService(workers=1) as service:
            detector = SlowDetector(gate)
            assert list(service.submit(elf_dir[:1], detectors=[detector]).results())[0].ok
            # the instance itself ran: its in-process state changed
            assert detector.calls == 1
            assert multiprocessing.active_children() == []

    def test_timed_out_named_detection_replaces_the_child(self, elf_dir, monkeypatch):
        # the timeout leaves the child's start-up and its first import of
        # this module (the first call) ample time; the sleep outlasts it
        resilience = ResilienceConfig(detector_timeout=3.0, detect_attempts=1)
        with DetectionService(workers=1, resilience=resilience) as service:
            first = list(service.submit(elf_dir[:1], detectors=["test-sleep"]).results())
            (child,) = first[0].function_starts
            monkeypatch.setitem(_CHILD_PLAN, "sleep", 30.0)
            wedged = list(service.submit(elf_dir[1:2], detectors=["test-sleep"]).results())
            assert wedged[0].failure["kind"] == "DetectorTimeout"
            assert not _alive(child)
            monkeypatch.setitem(_CHILD_PLAN, "sleep", 0.0)
            healthy = list(service.submit(elf_dir[2:3], detectors=["test-sleep"]).results())
            assert healthy[0].ok and healthy[0].function_starts[0] not in (child, os.getpid())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_children_start_under_any_program_start_method(self, elf_dir, method):
        """Building a service leaves the process-wide start method unset, and
        its children start whichever one the embedding program then picks."""
        program = (
            "import multiprocessing, sys\n"
            "from repro.service import DetectionService\n"
            "service = DetectionService(workers=1)\n"
            "assert multiprocessing.get_start_method(allow_none=True) is None\n"
            "multiprocessing.set_start_method(sys.argv[2])\n"
            "with service:\n"
            "    (result,) = service.submit(sys.argv[1:2]).results(timeout=60)\n"
            "assert result.ok and result.function_starts, result.error\n"
        )
        source = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH", "")])
        ))
        done = subprocess.run(
            [sys.executable, "-c", program, elf_dir[0], method],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_reject_policy_refuses_overflowing_batch(self, elf_dir):
        gate = threading.Event()
        service = DetectionService(workers=1, queue_limit=2, backpressure="reject")
        try:
            first = service.submit(elf_dir[:2], detectors=[SlowDetector(gate)])
            assert first.state in (JobState.QUEUED, JobState.RUNNING)
            with pytest.raises(ServiceSaturated, match="queue limit 2"):
                service.submit(elf_dir[:1])
            gate.set()
            assert first.wait(timeout=30)
            # capacity freed: the same submission is admitted now
            second = service.submit(elf_dir[:1])
            assert second.wait(timeout=30)
        finally:
            gate.set()
            service.close()

    def test_reject_never_partially_enqueues(self, elf_dir):
        gate = threading.Event()
        service = DetectionService(workers=1, queue_limit=1, backpressure="reject")
        try:
            service.submit(elf_dir[:1], detectors=[SlowDetector(gate)])
            before = service.stats()["pending_entries"]
            with pytest.raises(ServiceSaturated):
                service.submit(elf_dir[:3])
            assert service.stats()["pending_entries"] == before
        finally:
            gate.set()
            service.close()

    def test_block_policy_pipelines_oversized_batch(self, elf_dir):
        # a batch larger than the whole queue drains through it entry by entry
        with DetectionService(workers=1, queue_limit=1, backpressure="block") as service:
            handle = service.submit(elf_dir)
            assert handle.wait(timeout=60)
            assert all(result.ok for result in handle.results())

    def test_block_policy_waits_for_capacity(self, elf_dir):
        gate = threading.Event()
        service = DetectionService(workers=1, queue_limit=1, backpressure="block")
        try:
            service.submit(elf_dir[:1], detectors=[SlowDetector(gate)])
            admitted = []

            def second_submit():
                admitted.append(service.submit(elf_dir[1:2]))

            submitter = threading.Thread(target=second_submit, daemon=True)
            submitter.start()
            submitter.join(timeout=0.3)
            assert submitter.is_alive(), "submit should block while the queue is full"
            gate.set()
            submitter.join(timeout=30)
            assert not submitter.is_alive()
            assert admitted[0].wait(timeout=30)
        finally:
            gate.set()
            service.close()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="backpressure"):
            DetectionService(workers=1, backpressure="drop")

    def test_close_during_blocked_submit_raises_and_frees_admitted(self, elf_dir):
        gate = threading.Event()
        service = DetectionService(workers=1, queue_limit=1, backpressure="block")
        outcome: list = []

        def submitter():
            try:
                service.submit(elf_dir[:3], detectors=[SlowDetector(gate)])
            except ServiceClosed:
                outcome.append("closed")

        submitter_thread = threading.Thread(target=submitter, daemon=True)
        submitter_thread.start()
        deadline = time.monotonic() + 10
        while service.stats()["pending_entries"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # let the submitter park on admission for entry 2
        service.close(wait=False)
        submitter_thread.join(timeout=10)
        assert outcome == ["closed"]

        gate.set()  # let the one admitted entry finish
        deadline = time.monotonic() + 30
        while service.stats()["pending_entries"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.stats()["pending_entries"] == 0


# ----------------------------------------------------------------------
# The sharded pool and detector resolution
# ----------------------------------------------------------------------

class TestShardedWorkerPool:
    def test_same_key_runs_in_submission_order_on_one_thread(self):
        observed: list[tuple[int, str]] = []
        with ShardedWorkerPool(4) as pool:
            done = threading.Event()
            digest = "ab" * 32
            for index in range(8):
                pool.submit(
                    digest,
                    lambda i=index: observed.append((i, threading.current_thread().name)),
                )
            pool.submit(digest, done.set)
            assert done.wait(timeout=10)
        assert [index for index, _ in observed] == list(range(8))
        assert len({thread for _, thread in observed}) == 1

    def test_task_exceptions_are_recorded_not_fatal(self):
        with ShardedWorkerPool(1) as pool:
            done = threading.Event()
            pool.submit(0, lambda: 1 / 0)
            pool.submit(0, done.set)
            assert done.wait(timeout=10)
        assert len(pool.task_errors) == 1
        assert isinstance(pool.task_errors[0], ZeroDivisionError)

    def test_submit_after_close_raises(self):
        pool = ShardedWorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, lambda: None)


class TestJobHandleTimeout:
    def test_results_timeout_is_a_monotonic_deadline(self):
        """Spurious condition wakeups must not restart the timeout clock.

        Regression: the wait loop used to re-wait the *full* timeout after
        every notification, so a handle poked often enough (progress on
        other jobs sharing the condition) never timed out at all.
        """
        from repro.service.service import JobHandle

        handle = JobHandle(1, total=1)  # no results ever arrive
        stop = threading.Event()

        def nuisance_notifier():
            while not stop.is_set():
                with handle._cond:
                    handle._cond.notify_all()
                time.sleep(0.05)

        noise = threading.Thread(target=nuisance_notifier, daemon=True)
        noise.start()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                list(handle.results(timeout=0.4))
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            noise.join(timeout=5)
        assert 0.4 <= elapsed < 2.0


class TestCreateDetectors:
    def test_default_is_fetch(self):
        detectors = create_detectors(None)
        assert [(type(d).__name__, named) for d, named in detectors] == [("FetchDetector", True)]
        assert create_detectors([])[0][0].name == "fetch"

    def test_mixes_names_and_instances(self):
        stub = ExplodingDetector(poison="x")
        resolved = create_detectors(["ghidra", stub, "fetch"])
        assert [(getattr(d, "name"), named) for d, named in resolved] == [
            ("ghidra", True), ("exploding-stub", False), ("fetch", True)
        ]
        assert resolved[1][0] is stub

    def test_unknown_name_raises_before_running(self):
        with pytest.raises(KeyError, match="no-such-tool"):
            create_detectors(["fetch", "no-such-tool"])


# ----------------------------------------------------------------------
# The serve protocol
# ----------------------------------------------------------------------

def _serve(requests: list[dict | str], **service_kwargs) -> list[dict]:
    lines = [
        request if isinstance(request, str) else json.dumps(request)
        for request in requests
    ]
    output = io.StringIO()
    with DetectionService(**service_kwargs) as service:
        assert ServeSession(service, io.StringIO("\n".join(lines) + "\n"), output).run() == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


class TestServeProtocol:
    def test_submit_wait_stats_shutdown(self, elf_dir):
        events = _serve(
            [
                {"op": "submit", "paths": elf_dir[:2], "detectors": ["fetch"]},
                {"op": "wait", "job": 1},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
            workers=2,
        )
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted" and kinds[-1] == "bye"
        accepted = events[0]
        assert accepted["job"] == 1 and accepted["units"] == 2

        results = [event for event in events if event["event"] == "result"]
        assert len(results) == 2
        assert all(event["count"] > 0 and "error" not in event for event in results)

        status = next(event for event in events if event["event"] == "status")
        assert status["state"] == "done" and status["done"] == status["total"] == 2
        stats = next(event for event in events if event["event"] == "stats")
        assert stats["detector_runs"] == 2
        assert any(event["event"] == "job-done" for event in events)

    def test_end_of_input_drains_in_flight_jobs(self, elf_dir):
        # no shutdown op: the session must still drain the job before "bye"
        events = _serve([{"op": "submit", "paths": elf_dir[:1]}], workers=1)
        kinds = [event["event"] for event in events]
        assert "job-done" in kinds and kinds[-1] == "bye"

    def test_errors_are_events_not_crashes(self, elf_dir):
        events = _serve(
            [
                "this is not json",
                {"op": "frobnicate"},
                {"op": "submit", "paths": []},
                {"op": "submit", "paths": [5, None]},
                {"op": "submit", "paths": ["a.elf"], "detectors": [7]},
                {"op": "status", "job": 99},
                {"op": "shutdown"},
            ],
            workers=1,
        )
        errors = [event for event in events if event["event"] == "error"]
        assert len(errors) == 6
        assert events[-1]["event"] == "bye"

    def test_submits_start_no_threads(self, elf_dir):
        output = io.StringIO()
        gate = threading.Event()
        with DetectionService(workers=1) as service:
            detect_unit = service._detect_unit

            def gated_detect_unit(*args):
                gate.wait(timeout=30)
                detect_unit(*args)

            service._detect_unit = gated_detect_unit
            session = ServeSession(service, io.StringIO(), output)
            threads_before = threading.active_count()
            try:
                for _ in range(5):
                    assert session._handle({"op": "submit", "paths": [elf_dir[0]]})
                assert threading.active_count() == threads_before
            finally:
                gate.set()
            assert session.drain(timeout=30)
        events = [json.loads(line) for line in output.getvalue().splitlines()]
        assert [e["job"] for e in events if e["event"] == "job-done"] == [1, 2, 3, 4, 5]

    def test_concurrent_jobs_stream_each_event_once_in_order(self, elf_dir):
        # more shard workers than cores, each completing results into the
        # one session concurrently; a short switch interval exposes races
        output = io.StringIO()
        jobs = 20
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DetectionService(workers=4) as service:
                session = ServeSession(service, io.StringIO(), output)
                for _ in range(jobs):
                    assert session._handle({"op": "submit", "paths": elf_dir})
                assert session.drain(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        events = [json.loads(line) for line in output.getvalue().splitlines()]
        assert session.results_sent == jobs * len(elf_dir)
        for job_id in range(1, jobs + 1):
            kinds = [e["event"] for e in events if e.get("job") == job_id]
            assert kinds == ["accepted"] + ["result"] * len(elf_dir) + ["job-done"]

    def test_drain_after_run_answers_at_once(self, elf_dir):
        with DetectionService(workers=1) as service:
            session = ServeSession(
                service,
                io.StringIO(json.dumps({"op": "submit", "paths": elf_dir[:1]}) + "\n"),
                io.StringIO(),
            )
            assert session.run() == 0
            started = time.monotonic()
            assert session.drain(timeout=1)
            assert time.monotonic() - started < 0.5

    def test_saturation_is_an_error_event(self, elf_dir):
        events = _serve(
            [
                {"op": "submit", "paths": elf_dir},
                {"op": "wait", "job": 1},
                {"op": "submit", "paths": elf_dir * 40},
                {"op": "shutdown"},
            ],
            workers=1,
            queue_limit=4,
            backpressure="reject",
        )
        errors = [event for event in events if event["event"] == "error"]
        assert any("queue limit" in event["error"] for event in errors)


# ----------------------------------------------------------------------
# The fetch-detect submit client
# ----------------------------------------------------------------------

class TestSubmitCli:
    def test_warm_submission_does_zero_detector_work(self, elf_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["submit", *elf_dir, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "0 cached" in cold and f"{len(elf_dir)} detector runs" in cold

        assert main(["submit", *elf_dir, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "0 detector runs" in warm
        assert f"{len(elf_dir)} cached" in warm
        assert f"{len(elf_dir)} detection hits, 0 misses" in warm

    def test_json_output_carries_stats(self, elf_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["submit", *elf_dir[:2], "--json", "--store", store]) == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["results"]) == 2
        assert record["stats"]["detector_runs"] == 2
        assert record["stats"]["store"]["detection_misses"] == 2
        assert record["status"] == 0

    def test_submit_reports_entry_errors(self, elf_dir, tmp_path, capsys):
        missing = str(tmp_path / "missing.elf")
        assert main(["submit", elf_dir[0], missing, "--no-store"]) == 1
        captured = capsys.readouterr()
        assert missing in captured.err
        assert elf_dir[0] in captured.out

    def test_submit_rejects_unknown_detector(self, elf_dir, capsys):
        with pytest.raises(SystemExit):
            main(["submit", elf_dir[0], "--detector", "nonexistent"])

    def test_subcommand_word_prefers_existing_file(self, tmp_path, monkeypatch, capsys):
        # a *file* named "serve" is analysed, not routed to the service
        monkeypatch.chdir(tmp_path)
        (tmp_path / "serve").write_bytes(b"not an ELF")
        assert main(["serve"]) == 1
        assert "cannot load" in capsys.readouterr().err
