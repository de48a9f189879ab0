"""JSON-lines protocol: the request-dispatch core behind every front-end.

One request per input line, one JSON event per output line.  The shape is
deliberately transport-agnostic — :class:`ServeSession` is the single
request-dispatch core, fed by a stdin/stdout pipe (``fetch-detect serve``)
or by one accepted connection of the TCP front-end in
:mod:`repro.service.server` (``fetch-detect serve --tcp``) — and
streaming: a ``submit`` is acknowledged as soon as its entries are
*admitted*, and its per-entry results then arrive as the service completes
them, interleaved with responses to later requests.  Admission itself
follows the service's backpressure policy: under the default ``block``
policy a batch larger than the remaining queue capacity delays the
acknowledgement (and the request loop) until workers free capacity —
backpressure deliberately propagates to the submitting client.  Run the
service with ``--backpressure reject`` for a front-end that never blocks:
an overflowing batch then answers with an ``error`` event instead.

Requests::

    {"op": "auth", "token": "..."}
    {"op": "submit", "paths": [...], "detectors": ["fetch", "ghidra"]}
    {"op": "status", "job": 1}
    {"op": "wait", "job": 1}
    {"op": "stats"}
    {"op": "shutdown"}

Events (every response carries an ``event`` key)::

    {"event": "auth-ok"}
    {"event": "accepted", "job": 1, "entries": 3, "units": 6}
    {"event": "result", "job": 1, "name": "a.elf", "detector": "fetch",
     "cached": false, "count": 42, "function_starts": [...], "seconds": 0.12}
    {"event": "job-done", "job": 1, "ok": 6, "errors": 0}
    {"event": "status", "job": 1, "state": "running", "done": 2, "total": 6}
    {"event": "stats", ...service counters, "client": session counters}
    {"event": "error", "error": "..."}          # bad request, never fatal
    {"event": "bye"}                            # response to shutdown

**Job ids are session-local.**  Every session numbers its own submissions
from 1, so concurrent clients of the TCP server cannot observe (or wait
on) each other's jobs, and a session keeps its own reference to every
:class:`~repro.service.service.JobHandle` it created — ``status``/``wait``
answer deterministically for every job still running and for the
session's most recent finished ones.  A job's ``result`` and ``job-done``
events are queued by a listener the handle calls before it wakes its
waiters, so once ``wait`` sees the job done its ``status`` response is
queued — and written — after every ``result`` and the ``job-done`` event
of that job.

**Who writes what.**  Every event goes into one FIFO outbox; whoever holds
the session's write lock drains it, in order, in one ``write`` call:

* the session thread, at the end of each request — so a submit answered
  from the service's memo at admission (``accepted``, ``result``,
  ``job-done``) leaves in one write, with no thread hand-off;
* the session's writer thread, for events that land while the session
  thread waits for input (or for a ``wait`` op's job).

Shard workers only append to the outbox: they never write to a peer's
stream, so a client that stops reading stalls only its own session.

Malformed input (bad JSON, a non-object line, unknown ``op``, unknown job
id) produces an ``error`` event and the session keeps serving.  Framing
violations are fatal to the session only: a line longer than
``max_line_bytes`` or a truncated final frame (EOF mid-line) answers one
``error`` event and closes the session cleanly — the service, and every
other session, keeps running.  Only ``shutdown`` or end of input ends a
session normally, after draining every in-flight job.

Guard hooks, all optional, let a front-end wrap policy around the core:

* ``auth_token`` — when set, every op except ``auth`` answers an error
  until the client has authenticated; a *wrong* token closes the session;
* ``submit_quota`` — submissions allowed per session (0 = unlimited);
* ``submit_guard`` — a callable returning a refusal reason or ``None``,
  consulted on every submit (the TCP server's drain mode plugs in here);
* ``stats_extra`` — a callable whose dict is merged into ``stats`` events
  (the TCP server adds its connection counters through it).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, IO

from repro.service.service import (
    DetectionService,
    EntryResult,
    JobHandle,
    ServiceSaturated,
)

#: longest accepted request line (bytes of UTF-8 on the socket transport,
#: characters on a text stream) — large enough for a many-thousand-path
#: submit, small enough to bound a hostile client's memory footprint
DEFAULT_MAX_LINE_BYTES = 1 << 20


class ServeSession:
    """One stdin/stdout (or socket-stream) session speaking the protocol.

    Responses from running jobs and from the request loop share one output
    stream: every emitter only queues a finished JSON line, and one writer
    at a time writes the queue out (the session thread at the end of a
    request, the writer thread while the session idles), so lines never
    interleave.  A failed write (the peer disconnected mid-stream) silences
    the session — in-flight jobs keep running to completion in the service,
    their events are simply no longer deliverable.
    """

    #: oldest *finished* session-local jobs are forgotten beyond this many,
    #: so a long-lived session stays bounded (ids are never reused)
    JOB_HISTORY = 256

    def __init__(
        self,
        service: DetectionService,
        input_stream: IO[str],
        output_stream: IO[str],
        *,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        auth_token: str | None = None,
        submit_quota: int = 0,
        submit_guard: Callable[[], str | None] | None = None,
        stats_extra: Callable[[], dict[str, Any]] | None = None,
    ):
        self.service = service
        self._input = input_stream
        self._output = output_stream
        self.max_line_bytes = max(1024, int(max_line_bytes))
        self._auth_token = auth_token
        self._authed = auth_token is None
        self._submit_quota = max(0, int(submit_quota))
        self._submit_guard = submit_guard
        self._stats_extra = stats_extra
        #: session-local job id -> the handle this session created
        self._jobs: dict[int, JobHandle] = {}
        #: ids of finished jobs, oldest first: the order ``_jobs`` forgets in
        self._finished: deque[int] = deque()
        self._next_job = 0
        #: the peer stopped reading (write failed); stop emitting
        self._dead = False
        #: suppressed for fatal framing/auth endings (no clean ``bye``)
        self._send_bye = True
        # per-session counters, reported in the ``stats`` event
        self.submits = 0
        self.results_sent = 0
        self.errors_sent = 0
        #: guards the counters above, the outbox and the hand-over flags
        self._lock = threading.Lock()
        #: wakes the writer thread (an event queued while the session idles)
        self._wake = threading.Condition(self._lock)
        #: wakes :meth:`drain` (more lines written)
        self._progress = threading.Condition(self._lock)
        #: finished JSON lines not yet written, oldest first
        self._outbox: list[str] = []
        #: lines ever queued, and ever written (or dropped on a dead peer)
        self._queued = self._written = 0
        #: the session thread is serving a request and writes the outbox
        #: itself when it ends; otherwise the writer thread writes it
        self._session_writes = False
        self._writer_stopped = False
        #: held while one batch of the outbox goes to the stream
        self._write_lock = threading.Lock()
        self._writer = threading.Thread(
            target=self._write_loop, name="serve-writer", daemon=True
        )
        self._writer.start()

    # -- output ---------------------------------------------------------
    def _emit(self, event: dict[str, Any]) -> None:
        """Queue one event (any thread); see the module docstring for who
        writes it."""
        line = json.dumps(event, sort_keys=True) + "\n"
        kind = event.get("event")
        with self._lock:
            if kind == "error":
                self.errors_sent += 1
            elif kind == "result":
                self.results_sent += 1
            self._outbox.append(line)
            self._queued += 1
            if not self._session_writes:
                self._wake.notify()

    def _flush(self) -> None:
        """Write everything queued so far, in order, in one write call."""
        with self._write_lock:
            with self._lock:
                lines, self._outbox = self._outbox, []
            if not lines:
                return
            if not self._dead:
                try:
                    self._output.write("".join(lines))
                    self._output.flush()
                except (OSError, ValueError):
                    # peer gone (broken pipe / closed stream): silence the
                    # session; the service and other sessions are unaffected
                    self._dead = True
            with self._lock:
                self._written += len(lines)
                self._progress.notify_all()

    def _write_loop(self) -> None:
        """The writer thread: write what lands while the session idles."""
        while True:
            with self._lock:
                while not self._writer_stopped and (
                    self._session_writes or not self._outbox
                ):
                    self._wake.wait()
                if self._writer_stopped:
                    return
            self._flush()

    def _hand_off(self) -> bool:
        """Before the session thread blocks: write what its request queued,
        then leave later events to the writer thread.  Returns whether the
        session was writing, for :meth:`_take_over` after the block."""
        self._flush()
        with self._lock:
            serving, self._session_writes = self._session_writes, False
            if self._outbox:
                self._wake.notify()
        return serving

    def _take_over(self) -> None:
        """The session thread serves again: it writes at the request's end."""
        with self._lock:
            self._session_writes = True

    @staticmethod
    def _result_event(job_id: int, result: EntryResult) -> dict[str, Any]:
        event: dict[str, Any] = {
            "event": "result",
            "job": job_id,
            "name": result.name,
            "detector": result.detector,
            "cached": result.cached,
            "count": len(result.function_starts),
            "function_starts": list(result.function_starts),
            "seconds": round(result.seconds, 6),
        }
        if result.error is not None:
            event["error"] = result.error
        if result.metrics is not None:
            event["metrics"] = {
                "false_positives": result.metrics.fp_count,
                "false_negatives": result.metrics.fn_count,
                "functions": result.metrics.true_count,
            }
        return event

    # -- request handling ------------------------------------------------
    def _stream(self, job_id: int, job: JobHandle) -> None:
        """Emit each of the job's results as it lands, then ``job-done``.

        The handle calls the listener one result at a time, so the tally
        needs no lock."""
        ok = errors = 0

        def on_result(result: EntryResult) -> None:
            nonlocal ok, errors
            if result.ok:
                ok += 1
            else:
                errors += 1
            self._emit(self._result_event(job_id, result))
            if ok + errors == job.total:
                self._emit({"event": "job-done", "job": job_id, "ok": ok, "errors": errors})
                self._finished.append(job_id)

        job.subscribe(on_result)

    def _error(self, message: str) -> bool:
        self._emit({"event": "error", "error": message})
        return True

    def _handle_submit(self, request: dict[str, Any]) -> bool:
        if self._submit_guard is not None:
            refusal = self._submit_guard()
            if refusal is not None:
                return self._error(refusal)
        if self._submit_quota and self.submits >= self._submit_quota:
            return self._error(
                f"submit quota {self._submit_quota} exhausted for this session"
            )
        paths = request.get("paths")
        if (
            not isinstance(paths, list)
            or not paths
            or not all(isinstance(path, str) for path in paths)
        ):
            return self._error("submit needs a non-empty 'paths' list of strings")
        detectors = request.get("detectors")
        if detectors is not None and (
            not isinstance(detectors, list)
            or not all(isinstance(name, str) for name in detectors)
        ):
            return self._error("'detectors' must be a list of names")
        try:
            job = self.service.submit(paths, detectors=detectors)
        except (ServiceSaturated, KeyError, RuntimeError) as error:
            return self._error(str(error))
        self.submits += 1
        self._next_job += 1
        job_id = self._next_job
        self._jobs[job_id] = job
        self._emit(
            {
                "event": "accepted",
                "job": job_id,
                "entries": len(paths),
                "units": job.total,
            }
        )
        # subscribed after "accepted" is queued: results that landed during
        # admission are replayed, so "accepted" always comes first
        self._stream(job_id, job)
        # the oldest *finished* jobs are forgotten beyond JOB_HISTORY, so a
        # long-lived session stays bounded; a running job is never forgotten
        while len(self._jobs) > self.JOB_HISTORY and self._finished:
            del self._jobs[self._finished.popleft()]
        return True

    def _handle(self, request: dict[str, Any]) -> bool:
        """Serve one request; returns ``False`` when the session should end."""
        op = request.get("op")
        if op == "auth":
            if self._auth_token is not None and request.get("token") != self._auth_token:
                # a wrong token is fatal: error out and close, no bye
                self._error("bad auth token")
                self._send_bye = False
                return False
            self._authed = True
            self._emit({"event": "auth-ok"})
            return True
        if not self._authed:
            return self._error(f"authentication required before {op!r}")
        if op == "shutdown":
            return False
        if op == "submit":
            return self._handle_submit(request)
        if op in ("status", "wait"):
            try:
                job_id = int(request.get("job", -1))
                job = self._jobs[job_id]
            except (KeyError, TypeError, ValueError):
                return self._error(f"unknown job {request.get('job')!r}")
            if op == "wait":
                # the job's listener queued its last result and job-done
                # before wait() returns, so this status is written after them
                serving = self._hand_off()  # stream other jobs meanwhile
                job.wait()
                if serving:
                    self._take_over()
            done, total = job.progress()
            self._emit(
                {
                    "event": "status",
                    "job": job_id,
                    "state": job.state.value,
                    "done": done,
                    "total": total,
                }
            )
            return True
        if op == "stats":
            event = {"event": "stats", **self.service.stats()}
            event["client"] = {
                "submits": self.submits,
                "jobs": len(self._jobs),
                "results_sent": self.results_sent,
                "errors_sent": self.errors_sent,
                "quota": self._submit_quota,
            }
            if self._stats_extra is not None:
                event.update(self._stats_extra())
            self._emit(event)
            return True
        return self._error(f"unknown op {op!r}")

    # -- main loop -------------------------------------------------------
    def _read_line(self) -> str | None:
        """One framed line, or ``None`` when the session must end.

        Enforces the framing contract shared by both transports: a line
        longer than ``max_line_bytes`` and a truncated final frame (data
        with no newline at EOF) each answer an ``error`` event and end the
        session; a read timeout (the TCP front-end's idle timeout) ends it
        with an ``error`` as well.  Returns ``""`` for blank lines (the
        caller skips them) and ``None`` to stop serving.
        """
        try:
            line = self._input.readline(self.max_line_bytes + 1)
        except TimeoutError:
            self._error("idle timeout: closing session")
            self._send_bye = False
            return None
        except (OSError, ValueError):
            # transport failure mid-read: nothing sensible left to answer
            self._dead = True
            return None
        if line == "":
            return None  # end of input: normal session end
        if not line.endswith("\n"):
            if len(line) > self.max_line_bytes:
                self._error(
                    f"oversized request line (> {self.max_line_bytes} bytes): "
                    "closing session"
                )
            else:
                self._error("truncated request frame at end of input")
            self._send_bye = False
            return None
        return line.strip()

    def run(self) -> int:
        """Serve requests until shutdown or end of input; returns exit code."""
        while True:
            self._hand_off()
            line = self._read_line()
            if line is None:
                break
            if not line:
                continue
            self._take_over()
            try:
                request = json.loads(line)
            except ValueError as error:
                self._error(f"bad request line: {error}")
                continue
            if not isinstance(request, dict):
                self._error("request must be a JSON object")
                continue
            if not self._handle(request):
                break
        self._hand_off()
        self.drain()
        with self._lock:
            self._writer_stopped = True
            self._wake.notify()
        self._writer.join()
        if self._send_bye:
            self._emit({"event": "bye"})
        self._flush()
        return 0

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for this session's jobs and their events; ``False`` on timeout.

        After a ``True`` return, every event of every job this session
        submitted has been written (or dropped on a dead peer).  Once
        :meth:`run` has returned everything is written already, so
        ``drain`` answers ``True`` at once."""
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float | None:
            return None if deadline is None else max(0.0, deadline - time.monotonic())

        for job in list(self._jobs.values()):
            if not job.wait(remaining()):
                return False
        with self._lock:
            target = self._queued
            return self._progress.wait_for(lambda: self._written >= target, remaining())
