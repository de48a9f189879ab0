"""Tests for the multi-client TCP front-end of the detection service.

Four concerns, mirroring the server checklist:

* **protocol conformance** — golden request scripts are replayed against
  both the stdio :class:`ServeSession` and a live socket server, and the
  two event streams must be identical (modulo timings and the stats
  event's counters): the transports share one dispatch core and can
  never drift;
* **concurrency** — clients see only their own session-local jobs and
  events, a client disconnecting mid-stream neither kills the server nor
  loses anyone else's events, and a ``REPRO_FAULTS``-style storm against
  the server loses zero entries;
* **framing and guards** — oversized lines, truncated frames, invalid
  JSON/UTF-8, unknown ops, wrong auth tokens and exhausted submit quotas
  each answer a structured ``error`` event (or close that one session
  cleanly) without tearing down other sessions;
* **wait determinism** — ``wait`` answers from the session's own job
  table (the service keeps none) and only after every
  ``result``/``job-done`` event of the job is on the wire.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.registry import register_detector
from repro.core.results import DetectionResult
from repro.resilience import faults
from repro.resilience.policy import ResilienceConfig
from repro.service import (
    DetectionServer,
    DetectionService,
    EntryResult,
    JobHandle,
    ServeSession,
    ServerError,
    ServiceClient,
)
from repro.store import ArtifactStore

class _FileGate:
    """An event a service child process can wait on: closed while its file
    exists.  It pickles as its path, so a detector created in this process
    carries it into the child, which shares no memory with the test."""

    def __init__(self, path: str):
        self.path = path

    def clear(self) -> None:
        open(self.path, "w").close()

    def set(self) -> None:
        if os.path.exists(self.path):
            os.unlink(self.path)

    def wait(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while os.path.exists(self.path) and time.monotonic() < deadline:
            time.sleep(0.01)


#: opened by default; a test that wants an in-flight job clears it
_GATE = _FileGate(os.path.join(tempfile.gettempdir(), f"repro-test-gate-{os.getpid()}"))


@register_detector(
    "test-gate",
    matrix=False,
    comparison=False,
    description="test-only detector that blocks until the module gate opens",
)
class GatedStubDetector:
    def __init__(self):
        self.gate = _GATE  # the test's gate, also in a child process

    def detect(self, image, context=None):
        self.gate.wait(timeout=60)
        return DetectionResult(binary_name=image.name)


@pytest.fixture(scope="module")
def elf_dir(tmp_path_factory, small_corpus):
    """The small corpus written out as ELF files, service-submission style."""
    from repro.elf.writer import write_elf

    directory = tmp_path_factory.mktemp("server-elves")
    paths = []
    for binary in small_corpus[:4]:
        path = directory / f"{binary.name.replace(':', '_')}.elf"
        path.write_bytes(write_elf(binary.image.elf))
        paths.append(str(path))
    return paths


# ----------------------------------------------------------------------
# Script runners: one for each transport, same requests in
# ----------------------------------------------------------------------

def _payload(requests: list[dict | str]) -> str:
    return "\n".join(
        request if isinstance(request, str) else json.dumps(request)
        for request in requests
    ) + "\n"


def run_stdio(
    requests: list[dict | str],
    *,
    service_kwargs: dict | None = None,
    **session_kwargs,
) -> list[dict]:
    output = io.StringIO()
    with DetectionService(**(service_kwargs or {"workers": 1})) as service:
        session = ServeSession(
            service, io.StringIO(_payload(requests)), output, **session_kwargs
        )
        assert session.run() == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


def run_tcp(
    requests: list[dict | str],
    *,
    service_kwargs: dict | None = None,
    **server_kwargs,
) -> list[dict]:
    with DetectionService(**(service_kwargs or {"workers": 1})) as service:
        with DetectionServer(service, **server_kwargs) as server:
            with socket.create_connection(server.address, timeout=60) as sock:
                sock.settimeout(60)
                sock.sendall(_payload(requests).encode("utf-8"))
                sock.shutdown(socket.SHUT_WR)
                buffer = b""
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    buffer += chunk
    return [json.loads(line) for line in buffer.decode("utf-8").splitlines()]


def normalize(events: list[dict]) -> list[dict]:
    """Strip what may legitimately differ between transports: timings and
    the stats event's live counters (the TCP server adds its own block)."""
    normalized = []
    for event in events:
        event = dict(event)
        event.pop("seconds", None)
        if event.get("event") == "stats":
            normalized.append({"event": "stats"})
            continue
        normalized.append(event)
    return normalized


# ----------------------------------------------------------------------
# Protocol conformance: stdio and socket can never drift
# ----------------------------------------------------------------------

class TestConformance:
    def _scripts(self, elf_dir) -> dict[str, tuple[list, dict]]:
        """name -> (requests, guard kwargs shared by session and server)."""
        return {
            "submit-wait-status-stats": (
                [
                    {"op": "submit", "paths": elf_dir[:2], "detectors": ["fetch"]},
                    {"op": "wait", "job": 1},
                    {"op": "status", "job": 1},
                    {"op": "stats"},
                    {"op": "shutdown"},
                ],
                {},
            ),
            "errors-never-fatal": (
                [
                    "this is not json",
                    "[1, 2, 3]",
                    {"op": "frobnicate"},
                    {"op": "submit", "paths": []},
                    {"op": "submit", "paths": ["a.elf"], "detectors": [7]},
                    {"op": "status", "job": 99},
                    {"op": "wait", "job": "x"},
                    {"op": "shutdown"},
                ],
                {},
            ),
            "two-jobs-warm-dedupe": (
                [
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "wait", "job": 1},
                    {"op": "submit", "paths": elf_dir[:2]},
                    {"op": "wait", "job": 2},
                    {"op": "status", "job": 1},
                    {"op": "shutdown"},
                ],
                {},
            ),
            "auth-handshake": (
                [
                    {"op": "stats"},
                    {"op": "auth", "token": "sesame"},
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "wait", "job": 1},
                    {"op": "shutdown"},
                ],
                {"auth_token": "sesame"},
            ),
            "submit-quota": (
                [
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "wait", "job": 1},
                    {"op": "submit", "paths": elf_dir[:1]},
                    {"op": "shutdown"},
                ],
                {"submit_quota": 1},
            ),
        }

    @pytest.mark.parametrize(
        "name",
        [
            "submit-wait-status-stats",
            "errors-never-fatal",
            "two-jobs-warm-dedupe",
            "auth-handshake",
            "submit-quota",
        ],
    )
    def test_stdio_and_socket_streams_are_identical(self, elf_dir, name):
        requests, guards = self._scripts(elf_dir)[name]
        stdio_events = run_stdio(requests, **guards)
        tcp_events = run_tcp(requests, **guards)
        assert normalize(stdio_events) == normalize(tcp_events)

    def test_golden_event_shape(self, elf_dir):
        """Pin the expected stream so a both-transports regression is caught."""
        requests, _ = self._scripts(elf_dir)["submit-wait-status-stats"]
        events = run_tcp(requests)
        kinds = [event["event"] for event in events]
        assert kinds == [
            "accepted", "result", "result", "job-done", "status", "status",
            "stats", "bye",
        ]
        assert events[0] == {
            "event": "accepted", "job": 1, "entries": 2, "units": 2,
        }
        assert all(event["job"] == 1 for event in events[1:3])
        assert events[3] == {"event": "job-done", "job": 1, "ok": 2, "errors": 0}
        assert events[4]["state"] == "done"

    def test_golden_error_shape(self, elf_dir):
        requests, _ = self._scripts(elf_dir)["errors-never-fatal"]
        events = run_tcp(requests)
        kinds = [event["event"] for event in events]
        assert kinds == ["error"] * 7 + ["bye"]

    def test_warm_dedupe_is_visible_on_the_wire(self, elf_dir):
        requests, _ = self._scripts(elf_dir)["two-jobs-warm-dedupe"]
        events = run_tcp(requests)
        results = [event for event in events if event["event"] == "result"]
        assert [event["cached"] for event in results] == [False, True, False]
        assert results[0]["function_starts"] == results[1]["function_starts"]

    def test_stats_events_carry_per_client_and_server_blocks(self, elf_dir):
        script = [
            {"op": "submit", "paths": elf_dir[:1]},
            {"op": "wait", "job": 1},
            {"op": "stats"},
            {"op": "shutdown"},
        ]
        stdio_stats = next(
            e for e in run_stdio(script) if e["event"] == "stats"
        )
        tcp_stats = next(e for e in run_tcp(script) if e["event"] == "stats")
        for stats in (stdio_stats, tcp_stats):
            assert stats["client"]["submits"] == 1
            assert stats["client"]["results_sent"] == 1
            # the resilience counters ride along on every transport
            assert "detector_retries" in stats["resilience"]
            assert "store_retries" in stats["resilience"]
        assert "server" not in stdio_stats
        assert tcp_stats["server"]["total_connections"] == 1
        assert tcp_stats["server"]["draining"] is False


# ----------------------------------------------------------------------
# Concurrency: isolation, mid-stream disconnects, fault storms
# ----------------------------------------------------------------------

class TestConcurrency:
    def test_clients_see_only_their_own_jobs_and_events(self, elf_dir):
        rounds = 3
        with DetectionService(workers=2) as service:
            with DetectionServer(service) as server:
                host, port = server.address

                def drive(paths: list[str], collected: list):
                    with ServiceClient.connect(host, port, timeout=60) as client:
                        for _ in range(rounds):
                            job = client.submit(paths)
                            events = list(client.results(job))
                            collected.append((job, events))

                mine: list = []
                theirs: list = []
                threads = [
                    threading.Thread(target=drive, args=(elf_dir[:2], mine)),
                    threading.Thread(target=drive, args=(elf_dir[2:4], theirs)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()

                for collected, paths in ((mine, elf_dir[:2]), (theirs, elf_dir[2:4])):
                    # job ids are session-local: both clients count 1..rounds
                    assert [job for job, _ in collected] == list(range(1, rounds + 1))
                    for job, events in collected:
                        assert sorted(e["name"] for e in events) == sorted(paths)
                        assert {e["job"] for e in events} == {job}
                        assert all(e.get("error") is None for e in events)
                # the service is genuinely shared: each unique binary ran once,
                # every later delivery was a cache hit
                assert service.detector_runs == 4

    def test_client_close_returns_promptly_on_a_live_connection(self):
        """``close()`` without the ``shutdown`` op returns at once on a
        connection the server keeps open."""
        with DetectionService(workers=1) as service:
            with DetectionServer(service) as server:
                client = ServiceClient.connect(*server.address, timeout=30)
                assert client.stats()["event"] == "stats"
                began = time.perf_counter()
                client.close()
                elapsed = time.perf_counter() - began
        assert elapsed < 1.0

    def test_disconnect_mid_stream_hurts_nobody(self, elf_dir):
        _GATE.clear()
        try:
            with DetectionService(workers=2) as service:
                with DetectionServer(service) as server:
                    host, port = server.address
                    # the victim: submit a gated job, then vanish mid-stream
                    victim = socket.create_connection((host, port), timeout=30)
                    victim.sendall(
                        (json.dumps({
                            "op": "submit",
                            "paths": elf_dir[:1],
                            "detectors": ["test-gate"],
                        }) + "\n").encode()
                    )
                    reader = victim.makefile("r")
                    accepted = json.loads(reader.readline())
                    assert accepted["event"] == "accepted"
                    victim.close()  # abrupt: no shutdown op, job still running

                    with ServiceClient.connect(host, port, timeout=60) as client:
                        job = client.submit(elf_dir[1:3])
                        _GATE.set()  # let the orphaned job finish too
                        events = list(client.results(job))
                        # the healthy client lost nothing
                        assert sorted(e["name"] for e in events) == sorted(elf_dir[1:3])
                        assert client.summary(job)["ok"] == 2
                        # and the server is still accepting fresh connections
                        with ServiceClient.connect(host, port, timeout=60) as probe:
                            assert probe.stats()["event"] == "stats"
                    # the orphaned job ran to completion inside the service
                    deadline = time.monotonic() + 30
                    while (
                        service.stats()["pending_entries"]
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    assert service.stats()["pending_entries"] == 0
        finally:
            _GATE.set()

    def test_fault_storm_against_server_loses_zero_entries(self, elf_dir, tmp_path):
        # the same spec string REPRO_FAULTS would carry; raise budget (3)
        # strictly below the retry budget (4) makes survival a guarantee
        plan = (
            "seed=11;"
            "detect:raise:rate=0.45,max=3;"
            "worker:kill:rate=0.25;"
            "store.write:torn:rate=0.5"
        )
        clients = 3
        with faults.injected(plan) as injector:
            with DetectionService(
                workers=3,
                store=ArtifactStore(tmp_path / "store"),
                resilience=ResilienceConfig(detect_attempts=4),
            ) as service:
                with DetectionServer(service) as server:
                    host, port = server.address
                    outcomes: list[list[dict]] = [[] for _ in range(clients)]

                    def drive(slot: int):
                        with ServiceClient.connect(host, port, timeout=120) as c:
                            job = c.submit(elf_dir)
                            outcomes[slot].extend(c.results(job))

                    threads = [
                        threading.Thread(target=drive, args=(slot,))
                        for slot in range(clients)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=180)
                        assert not thread.is_alive()
                    with ServiceClient.connect(host, port, timeout=60) as c:
                        resilience = c.stats()["resilience"]

        for events in outcomes:
            assert len(events) == len(elf_dir), "an entry was lost in the storm"
            assert all(e.get("error") is None for e in events)
        # the storm actually happened, and the counters made it to the wire
        assert sum(injector.injections.values()) > 0
        if injector.injections.get(("detect", "raise"), 0):
            assert resilience["detector_retries"] > 0
        if injector.injections.get(("worker", "kill"), 0):
            assert resilience["worker_restarts"] > 0

    def test_env_storm_through_cli_server(self, elf_dir):
        """The full stack: a --tcp server subprocess under REPRO_FAULTS."""
        server, (host, port) = _cli_server(REPRO_FAULTS="seed=5;detect:raise:rate=0.9,max=2")
        try:
            with ServiceClient.connect(host, port, timeout=120) as client:
                job = client.submit(elf_dir)
                events = list(client.results(job))
                stats = client.stats()
            assert len(events) == len(elf_dir)
            assert all(e.get("error") is None for e in events)
            # the plan injected (deterministically) and the service retried
            assert stats["resilience"]["detector_retries"] > 0
        finally:
            server.terminate()
            server.wait(timeout=30)
            server.stdout.close()
            server.stderr.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_sigint_after_a_cold_submit_leaves_no_child(self, elf_dir):
        server, (host, port) = _cli_server()
        try:
            with ServiceClient.connect(host, port, timeout=120) as client:
                job = client.submit(elf_dir)
                assert all(e.get("error") is None for e in client.results(job))
            children = _children_of(server.pid)
            assert children, "the cold submit ran no child process"
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=60) == 0
            # the server joined its shards' children before exiting; a
            # multiprocessing helper (spawning platforms) ends once it has
            deadline = time.monotonic() + 10
            while any(map(_running, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in children if _running(pid)] == []
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()
            server.stderr.close()

    def test_stdio_serve_detects_while_its_session_reads_stdin(self, elf_dir):
        """The shard starts its child while the session thread is blocked
        reading stdin (holding that stream's lock); the child must still
        start, and the server still exit cleanly.  A ``detect`` delay holds
        the start back until the session is surely reading."""
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1", "--no-store"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=_cli_env(REPRO_FAULTS="detect:delay:rate=1.0,seconds=0.5"),
        )
        try:
            server.stdin.write(json.dumps({"op": "submit", "paths": elf_dir[:1]}).encode() + b"\n")
            server.stdin.flush()
            assert _events_until(server.stdout, "job-done", 30) == [
                "accepted", "result", "job-done"
            ]
            server.stdin.write(b'{"op": "shutdown"}\n')
            server.stdin.flush()
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                for pid in _children_of(server.pid):  # a wedged child too
                    os.kill(pid, signal.SIGKILL)
                server.kill()
                server.wait(timeout=30)
            server.stdin.close()
            server.stdout.close()

    def test_closed_session_reaches_eof_while_a_child_lives(self, elf_dir):
        """A child started while a session is open must not hold that
        session's socket open after the server closes it."""
        with DetectionService(workers=1) as service:
            with DetectionServer(service) as server:
                with socket.create_connection(server.address, timeout=10) as bystander:
                    reader = bystander.makefile("rb")
                    bystander.sendall(b'{"op": "stats"}\n')
                    assert json.loads(reader.readline())["event"] == "stats"
                    with ServiceClient.connect(*server.address, timeout=60) as client:
                        job = client.submit(elf_dir[:1])  # starts the shard's child
                        assert len(list(client.results(job))) == 1
                    assert multiprocessing.active_children()
                    bystander.sendall(b'{"op": "shutdown"}\n')
                    began = time.perf_counter()
                    rest = reader.read()  # to EOF
                    elapsed = time.perf_counter() - began
                    reader.close()
        assert [json.loads(line)["event"] for line in rest.splitlines()] == ["bye"]
        assert elapsed < 2.0


def _cli_env(**extra: str) -> dict[str, str]:
    source_root = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(source_root), env.get("PYTHONPATH", "")])
    )
    return env


def _cli_server(**env_extra: str) -> tuple[subprocess.Popen, tuple[str, int]]:
    """A ``fetch-detect serve --tcp`` subprocess on two workers, and its address."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--tcp", "127.0.0.1:0", "--workers", "2", "--no-store"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(**env_extra),
    )
    banner = server.stdout.readline().strip()
    assert banner.startswith("listening on "), banner
    host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
    return server, (host, int(port))


def _events_until(stream, last: str, timeout: float) -> list[str]:
    """The ``event`` kinds read from a binary pipe until ``last`` arrives;
    ``TimeoutError`` when it does not within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    buffer, kinds = b"", []
    while last not in kinds:
        if not select.select([stream], [], [], max(0.0, deadline - time.monotonic()))[0]:
            raise TimeoutError(f"no {last!r} event within {timeout}s; got {kinds}")
        chunk = os.read(stream.fileno(), 1 << 16)
        if not chunk:
            raise EOFError(f"stream ended before {last!r}; got {kinds}")
        *lines, buffer = (buffer + chunk).split(b"\n")
        kinds += [json.loads(line)["event"] for line in lines]
    return kinds


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _children_of(pid: int) -> list[int]:
    """The live processes whose parent is ``pid`` (from ``/proc/*/stat``)."""
    children = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields and int(fields[1]) == pid:
            children.append(int(entry))
    return children


# ----------------------------------------------------------------------
# Framing and guard hooks
# ----------------------------------------------------------------------

def _lines(sock: socket.socket):
    """Read newline-framed JSON events until the server closes the stream."""
    buffer = b""
    sock.settimeout(30)
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except OSError:
            break
        if not chunk:
            break
        buffer += chunk
    return [json.loads(line) for line in buffer.decode().splitlines()]


class TestFramingAndGuards:
    @pytest.fixture()
    def server(self, elf_dir):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, max_line_bytes=2048) as srv:
                yield srv

    def test_oversized_line_closes_only_that_session(self, server, elf_dir):
        bystander = ServiceClient.connect(*server.address, timeout=60)
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(b'{"op": "stats", "padding": "' + b"x" * 4096 + b'"}\n')
            events = _lines(sock)
        assert len(events) == 1
        assert events[0]["event"] == "error"
        assert "oversized" in events[0]["error"]
        # the bystander session survived the hostile one
        job = bystander.submit(elf_dir[:1])
        assert len(list(bystander.results(job))) == 1
        bystander.close()

    def test_truncated_frame_is_an_error_then_clean_close(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(b'{"op": "sta')  # no newline, then EOF
            sock.shutdown(socket.SHUT_WR)
            events = _lines(sock)
        assert [e["event"] for e in events] == ["error"]
        assert "truncated" in events[0]["error"]

    def test_invalid_json_and_unknown_op_keep_the_session(self, server):
        with socket.create_connection(server.address, timeout=30) as sock:
            reader = sock.makefile("r")
            for bad in (b"this is garbage\n", b'{"op": "frobnicate"}\n', b"\xff\xfe\n"):
                sock.sendall(bad)
                event = json.loads(reader.readline())
                assert event["event"] == "error"
            sock.sendall(b'{"op": "stats"}\n')
            event = json.loads(reader.readline())
            assert event["event"] == "stats"
            assert event["client"]["errors_sent"] == 3

    def test_wrong_token_closes_correct_token_serves(self, elf_dir):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, auth_token="sesame") as server:
                with pytest.raises(ServerError, match="bad auth token"):
                    ServiceClient.connect(*server.address, token="wrong", timeout=30)
                with socket.create_connection(server.address, timeout=30) as sock:
                    sock.sendall(b'{"op": "auth", "token": "nope"}\n')
                    events = _lines(sock)
                # error, then clean close: no bye, no further events
                assert [e["event"] for e in events] == ["error"]

                with ServiceClient.connect(
                    *server.address, token="sesame", timeout=60
                ) as client:
                    job = client.submit(elf_dir[:1])
                    assert len(list(client.results(job))) == 1

    def test_unauthenticated_ops_are_refused_not_fatal(self):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, auth_token="sesame") as server:
                with socket.create_connection(server.address, timeout=30) as sock:
                    reader = sock.makefile("r")
                    sock.sendall(b'{"op": "stats"}\n')
                    refusal = json.loads(reader.readline())
                    assert refusal["event"] == "error"
                    assert "authentication required" in refusal["error"]
                    sock.sendall(b'{"op": "auth", "token": "sesame"}\n')
                    assert json.loads(reader.readline())["event"] == "auth-ok"
                    sock.sendall(b'{"op": "stats"}\n')
                    assert json.loads(reader.readline())["event"] == "stats"

    def test_submit_quota_is_per_session(self, elf_dir):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, submit_quota=1) as server:
                with ServiceClient.connect(*server.address, timeout=60) as client:
                    job = client.submit(elf_dir[:1])
                    list(client.results(job))
                    with pytest.raises(ServerError, match="quota"):
                        client.submit(elf_dir[:1])
                # a fresh session gets a fresh quota
                with ServiceClient.connect(*server.address, timeout=60) as client:
                    assert client.submit(elf_dir[:1]) == 1

    def test_idle_timeout_reaps_silent_connections(self):
        with DetectionService(workers=1) as service:
            with DetectionServer(service, idle_timeout=0.2) as server:
                with socket.create_connection(server.address, timeout=30) as sock:
                    events = _lines(sock)  # send nothing, just listen
        assert [e["event"] for e in events] == ["error"]
        assert "idle timeout" in events[0]["error"]


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

class TestDrain:
    def test_drain_finishes_in_flight_refuses_new_closes_clean(self, elf_dir):
        _GATE.clear()
        try:
            service = DetectionService(workers=2)
            server = DetectionServer(service)
            server.start()
            host, port = server.address
            client = ServiceClient.connect(host, port, timeout=60)
            job = client.submit(elf_dir[:1], detectors=["test-gate"])

            shutdown_thread = threading.Thread(
                target=server.shutdown, kwargs={"drain": True, "timeout": 60}
            )
            shutdown_thread.start()
            deadline = time.monotonic() + 10
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.draining

            # new submissions on a live session answer a refusal event
            with pytest.raises(ServerError, match="draining"):
                client.submit(elf_dir[1:2])

            _GATE.set()  # let the in-flight job finish
            shutdown_thread.join(timeout=60)
            assert not shutdown_thread.is_alive()

            # the in-flight job's events all arrived before the close
            events = list(client.results(job, timeout=10))
            assert len(events) == 1 and events[0]["name"] == elf_dir[0]
            assert client.summary(job)["ok"] == 1
            client.close()
            service.close()

            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=5)
        finally:
            _GATE.set()


# ----------------------------------------------------------------------
# Wait determinism (the status/wait race, fixed)
# ----------------------------------------------------------------------

class TestWaitDeterminism:
    def test_wait_answers_after_service_evicts_the_job(self, elf_dir):
        """Regression: ``wait``/``status`` used to look jobs up in the
        *service's* bounded history table, so a job finishing (and being
        evicted) between a client's ``status`` and ``wait`` answered
        "unknown job" — nondeterministically.  The service keeps no job
        table now; the session holds its own reference to every job."""
        output = io.StringIO()
        with DetectionService(workers=1) as service:
            session = ServeSession(service, io.StringIO(), output)
            for job_id in range(1, 5):
                assert session._handle({"op": "submit", "paths": elf_dir[:1]})
                assert session._jobs[job_id].wait(timeout=30)
            # the session answers for a long-finished job, deterministically
            assert session._handle({"op": "wait", "job": 1})
            assert session._handle({"op": "status", "job": 1})
            session.drain(timeout=30)
        events = [json.loads(line) for line in output.getvalue().splitlines()]
        answers = [e for e in events if e["event"] == "status"][-2:]
        for answer in answers:
            assert answer == {
                "event": "status", "job": 1, "state": "done", "done": 1, "total": 1,
            }

    def test_wait_status_lands_after_every_result_event(self, elf_dir):
        """``wait`` joins the job's drainer: its ``status`` answer must
        follow the job's last ``result`` and its ``job-done`` on the wire
        (no sleeps: the ordering is structural, so one pass per round)."""
        for _ in range(5):
            output = io.StringIO()
            with DetectionService(workers=2) as service:
                session = ServeSession(service, io.StringIO(), output)
                assert session._handle({"op": "submit", "paths": elf_dir})
                assert session._handle({"op": "wait", "job": 1})
                session.drain(timeout=30)
            events = [json.loads(line) for line in output.getvalue().splitlines()]
            kinds = [event["event"] for event in events]
            status_at = kinds.index("status")
            assert kinds.count("result") == len(elf_dir)
            assert all(
                index < status_at
                for index, kind in enumerate(kinds)
                if kind in ("result", "job-done")
            )
            assert events[status_at]["state"] == "done"

    def test_session_forgets_only_finished_jobs_beyond_history(self):
        """A long-lived session keeps at most ``JOB_HISTORY`` finished jobs,
        and a still-running job older than all of them stays answerable."""

        class ManualService:
            """Hands out handles that the test completes by hand."""

            def __init__(self):
                self.handles: list[JobHandle] = []

            def submit(self, paths, detectors=None):
                self.handles.append(JobHandle(len(self.handles) + 1, total=1))
                return self.handles[-1]

        def finish(handle: JobHandle) -> None:
            handle._complete(EntryResult(name="a.elf", digest="", detector="fetch"))

        service = ManualService()
        output = io.StringIO()
        session = ServeSession(service, io.StringIO(), output)  # type: ignore[arg-type]
        history = ServeSession.JOB_HISTORY
        assert session._handle({"op": "submit", "paths": ["a.elf"]})  # stays running
        for handle_index in range(1, history + 10):
            assert session._handle({"op": "submit", "paths": ["a.elf"]})
            finish(service.handles[handle_index])
        assert session._handle({"op": "submit", "paths": ["a.elf"]})
        done = [job for job in session._jobs.values() if job.progress()[0] == 1]
        assert len(done) <= history
        assert len(session._jobs) <= history + 1
        assert 1 in session._jobs  # the running job is never forgotten
        finish(service.handles[0])
        finish(service.handles[-1])
        assert session._handle({"op": "wait", "job": 1})
        assert session.drain(timeout=10)
        status = [json.loads(line) for line in output.getvalue().splitlines()][-1]
        assert status == {
            "event": "status", "job": 1, "state": "done", "done": 1, "total": 1,
        }


# ----------------------------------------------------------------------
# The warm request path: who writes what, and in how many writes
# ----------------------------------------------------------------------

class RecordingStream:
    """A text output stream that records each ``write`` call; with a
    ``gate`` every write blocks until the gate opens (a peer not reading)."""

    def __init__(self, gate: threading.Event | None = None):
        self.gate = gate
        self.writes: list[str] = []
        self.entered = threading.Event()

    def write(self, text: str) -> int:
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=60)
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def events(self) -> list[dict]:
        return [json.loads(line) for text in self.writes for line in text.splitlines()]


class TestHopStructure:
    def test_memo_hit_submit_is_answered_by_one_write(self, elf_dir):
        stream = RecordingStream()
        with DetectionService(workers=1) as service:
            assert service.submit(elf_dir[:1]).wait(timeout=60)
            request = json.dumps({"op": "submit", "paths": elf_dir[:1]}) + "\n"
            assert ServeSession(service, io.StringIO(request), stream).run() == 0
        answer = [json.loads(line) for line in stream.writes[0].splitlines()]
        assert [event["event"] for event in answer] == ["accepted", "result", "job-done"]
        assert answer[1]["cached"] is True
        assert [json.loads(text)["event"] for text in stream.writes[1:]] == ["bye"]

    def test_a_blocked_session_write_stalls_no_other_session(self, elf_dir):
        gate = threading.Event()
        stuck = RecordingStream(gate)
        with DetectionService(workers=1) as service:  # one shard for both
            blocked = ServeSession(service, io.StringIO(), stuck)
            healthy = ServeSession(service, io.StringIO(), io.StringIO())
            try:
                assert blocked._handle({"op": "submit", "paths": elf_dir[:1]})
                assert stuck.entered.wait(timeout=30)  # its writer is now stuck
                # the shard worker completed the blocked session's job anyway
                assert blocked._jobs[1].wait(timeout=60)
                assert healthy._handle({"op": "submit", "paths": elf_dir[1:2]})
                assert healthy._jobs[1].wait(timeout=60)
                assert healthy.drain(timeout=30)
                assert stuck.writes == []
            finally:
                gate.set()
            assert blocked.drain(timeout=30)
        kinds = [event["event"] for event in stuck.events()]
        assert kinds == ["accepted", "result", "job-done"]

    def test_missed_job_orders_accepted_results_and_wait_status(self, elf_dir):
        _GATE.clear()
        stream = RecordingStream()
        requests = _payload([
            {"op": "submit", "paths": elf_dir[:2], "detectors": ["test-gate"]},
            {"op": "wait", "job": 1},
            {"op": "shutdown"},
        ])
        try:
            with DetectionService(workers=2) as service:
                session = ServeSession(service, io.StringIO(requests), stream)
                runner = threading.Thread(target=session.run)
                runner.start()
                assert stream.entered.wait(timeout=30)  # accepted is out
                _GATE.set()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            _GATE.set()
        kinds = [event["event"] for event in stream.events()]
        assert kinds == ["accepted", "result", "result", "job-done", "status", "bye"]


# ----------------------------------------------------------------------
# The reference client: callers read their own socket
# ----------------------------------------------------------------------

class TestClient:
    def test_summary_is_never_missing_after_results(self, elf_dir):
        """Regression: ``job-done`` used to reach the job's queue before
        :meth:`ServiceClient.summary` could see it, so a caller returning
        from ``results`` could read ``None``."""
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DetectionService(workers=1) as service:
                with DetectionServer(service) as server:
                    with ServiceClient.connect(*server.address, timeout=60) as client:
                        for _ in range(300):
                            job = client.submit(elf_dir[:1])
                            assert len(list(client.results(job))) == 1
                            assert client.summary(job) is not None
        finally:
            sys.setswitchinterval(switch_interval)

    def test_two_threads_consume_two_jobs_at_once(self, elf_dir):
        _GATE.clear()
        try:
            with DetectionService(workers=2) as service:
                with DetectionServer(service) as server:
                    with ServiceClient.connect(*server.address, timeout=60) as client:
                        jobs = [
                            client.submit(elf_dir[:2], detectors=["test-gate"]),
                            client.submit(elf_dir[2:4], detectors=["test-gate"]),
                        ]
                        seen: dict[int, list] = {}

                        def consume(job: int) -> None:
                            seen[job] = list(client.results(job))

                        threads = [
                            threading.Thread(target=consume, args=(job,)) for job in jobs
                        ]
                        for thread in threads:
                            thread.start()
                        _GATE.set()  # both callers are waiting: one reads
                        for thread in threads:
                            thread.join(timeout=60)
                            assert not thread.is_alive()
                        for job, paths in zip(jobs, (elf_dir[:2], elf_dir[2:4])):
                            assert sorted(e["name"] for e in seen[job]) == sorted(paths)
                            assert client.summary(job)["ok"] == 2
        finally:
            _GATE.set()

    def test_results_timeout_leaves_the_client_usable(self, elf_dir):
        _GATE.clear()
        try:
            with DetectionService(workers=1) as service:
                with DetectionServer(service) as server:
                    with ServiceClient.connect(*server.address, timeout=60) as client:
                        job = client.submit(elf_dir[:1], detectors=["test-gate"])
                        with pytest.raises(TimeoutError, match=f"job {job}"):
                            next(client.results(job, timeout=0.2))
                        assert client.stats()["event"] == "stats"
                        _GATE.set()
                        assert len(list(client.results(job))) == 1
                        assert client.summary(job)["ok"] == 1
        finally:
            _GATE.set()
