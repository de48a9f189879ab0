"""A line-protocol client for the TCP detection server.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol` over a socket.  It starts no thread: a call
that waits for an event (a request's response, or the next event of
``results``) reads the socket itself.  Callers share the socket as leader
and followers under one condition — whichever waiting caller finds no
reader reads one line at a time and routes each event, and the rest wait
until their event is routed.  Asynchronous ``result`` / ``job-done``
events are routed to their job by id (``job-done`` is recorded for
:meth:`ServiceClient.summary` in the same step); everything else
(``accepted``, ``status``, ``stats``, ``auth-ok``, ``error``, ``bye``) is a
*response* to the client's last request — the session's request loop
answers requests in order, so responses are matched by arrival order
under a request lock.

Usage::

    with ServiceClient.connect(host, port, token="s3cret") as client:
        job = client.submit(paths, detectors=["fetch"])
        for event in client.results(job):
            print(event["name"], event["count"])
        print(client.wait(job))        # {"event": "status", "state": "done", ...}
        print(client.stats()["detector_runs"])

A server-side refusal (an ``error`` event answering a request) raises
:class:`ServerError`; a dropped connection raises ``ConnectionError`` from
whichever call was waiting on it.  The client is thread-safe: requests
serialize on an internal lock, and ``results`` for different jobs can be
consumed from different threads.

``EXTENDING.md`` walks through writing a third-party client from scratch;
this module is the reference implementation.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator, Sequence

from repro.service.server import _SocketLineReader


class ServerError(RuntimeError):
    """The server answered a request with an ``error`` event."""


class ServiceClient:
    """One connection to a :class:`~repro.service.server.DetectionServer`."""

    def __init__(self, sock: socket.socket, *, timeout: float | None = 60.0):
        self.timeout = timeout
        self._sock = sock
        self._lines = _SocketLineReader(sock, None)
        self._request_lock = threading.Lock()
        #: guards everything below; notified whenever an event is routed
        self._cond = threading.Condition()
        #: events that answer requests, in arrival order
        self._responses: deque[dict[str, Any]] = deque()
        #: job id -> its ``result``/``job-done`` events not yet consumed
        self._job_events: dict[int, deque[dict[str, Any]]] = {}
        self._job_done: dict[int, dict[str, Any]] = {}
        #: a caller is reading the socket (the leader); the rest wait
        self._reading = False
        self._closed = False

    # -- construction ---------------------------------------------------
    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        token: str | None = None,
        timeout: float | None = 60.0,
    ) -> "ServiceClient":
        """Open a connection and (when ``token`` is given) authenticate."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client = cls(sock, timeout=timeout)
        if token is not None:
            try:
                client.authenticate(token)
            except BaseException:
                client.close()  # a refused handshake leaves no open socket
                raise
        return client

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire plumbing --------------------------------------------------
    def _await(
        self, take: Callable[[], Any], timeout: float | None, late: str, lost: str
    ) -> Any:
        """The first non-``None`` ``take()`` (called under ``_cond``); while
        no other caller reads the socket, this one does (the leader).
        Raises ``TimeoutError(late)`` past ``timeout``, and
        ``ConnectionError(lost)`` once the stream closed with nothing left."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                while True:
                    item = take()
                    if item is not None:
                        return item
                    if self._closed:
                        raise ConnectionError(lost)
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError(late)
                    if not self._reading:
                        self._reading = True
                        break
                    self._cond.wait(remaining)
            self._read_one(remaining)

    def _read_one(self, timeout: float | None) -> None:
        """As the leader: read one line and route it, then hand the lead back."""
        raw = event = None
        try:
            self._sock.settimeout(timeout)
            raw = self._lines.readline()
            event = json.loads(raw) if raw else None
        except TimeoutError:
            pass  # a partial line stays buffered for the next reader
        except ValueError:
            pass  # not ours to diagnose; skip the line
        except OSError:
            raw = ""  # the connection is gone
        finally:
            with self._cond:
                self._reading = False
                self._closed = self._closed or raw == ""
                if isinstance(event, dict):
                    self._route(event)
                self._cond.notify_all()

    def _route(self, event: dict[str, Any]) -> None:
        """File one event (under ``_cond``): job events by job id, the rest
        as responses."""
        kind = event.get("event")
        if kind not in ("result", "job-done"):
            self._responses.append(event)
            return
        job_id = event.get("job")
        self._job_events.setdefault(job_id, deque()).append(event)
        if kind == "job-done":
            # recorded in the step that makes it visible to results(), so
            # summary() after a consumed job-done never answers None
            self._job_done[job_id] = event

    def _next_job_event(self, job_id: int) -> dict[str, Any] | None:
        events = self._job_events.get(job_id)
        if not events:
            return None
        event = events.popleft()
        if event["event"] == "job-done":
            del self._job_events[job_id]
        return event

    def _request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request and return its (in-order) response event."""
        data = (json.dumps(request) + "\n").encode("utf-8")
        with self._request_lock:
            try:
                self._sock.sendall(data)
            except OSError as error:
                raise ConnectionError(f"server connection lost: {error}") from error
            response = self._await(
                lambda: self._responses.popleft() if self._responses else None,
                self.timeout,
                f"no response to {request.get('op')!r} within {self.timeout}s",
                "server closed the connection",
            )
        if response.get("event") == "error":
            raise ServerError(response.get("error", "unspecified server error"))
        return response

    # -- protocol verbs -------------------------------------------------
    def authenticate(self, token: str) -> None:
        """Perform the shared-token handshake (first request on the wire)."""
        response = self._request({"op": "auth", "token": token})
        if response.get("event") != "auth-ok":
            raise ServerError(f"unexpected auth response: {response}")

    def submit(
        self, paths: Sequence[str], detectors: Sequence[str] | None = None
    ) -> int:
        """Submit a batch; returns the session-local job id."""
        request: dict[str, Any] = {"op": "submit", "paths": list(paths)}
        if detectors is not None:
            request["detectors"] = list(detectors)
        response = self._request(request)
        if response.get("event") != "accepted":
            raise ServerError(f"unexpected submit response: {response}")
        return int(response["job"])

    def results(
        self, job_id: int, *, timeout: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's ``result`` events until its ``job-done`` arrives.

        The terminal ``job-done`` event is retained and queryable through
        :meth:`summary` afterwards.  ``timeout`` bounds the wait for each
        next event (default: the client's timeout).
        """
        wait = self.timeout if timeout is None else timeout
        while True:
            event = self._await(
                lambda: self._next_job_event(job_id),
                wait,
                f"job {job_id}: no event within {wait}s",
                "server closed the connection mid-stream",
            )
            if event["event"] == "job-done":
                return
            yield event

    def summary(self, job_id: int) -> dict[str, Any] | None:
        """The ``job-done`` event of a fully-consumed job, if it arrived."""
        with self._cond:
            return self._job_done.get(job_id)

    def status(self, job_id: int) -> dict[str, Any]:
        return self._request({"op": "status", "job": job_id})

    def wait(self, job_id: int) -> dict[str, Any]:
        """Block until the job is done server-side; returns its status event.

        When this returns, every ``result`` and the ``job-done`` event of
        the job have already been routed locally (the server orders them
        before the ``status`` response on the wire).
        """
        return self._request({"op": "wait", "job": job_id})

    def stats(self) -> dict[str, Any]:
        return self._request({"op": "stats"})

    # -- teardown -------------------------------------------------------
    def shutdown(self) -> None:
        """End the session politely (``shutdown`` op, wait for ``bye``)."""
        try:
            response = self._request({"op": "shutdown"})
            if response.get("event") != "bye":  # pragma: no cover - defensive
                raise ServerError(f"unexpected shutdown response: {response}")
        finally:
            self.close()

    def close(self) -> None:
        """Drop the connection (the server handles an abrupt close cleanly)."""
        # shutdown() before close(): on Linux, close() alone does not wake
        # a caller blocked in recv() on this socket, shutdown() does
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self._sock.close()
        except OSError:
            pass
