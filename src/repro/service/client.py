"""A line-protocol client for the TCP detection server.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol` over a socket.  A background reader thread
demultiplexes the server's event stream: asynchronous ``result`` /
``job-done`` events are routed into per-job queues, everything else
(``accepted``, ``status``, ``stats``, ``auth-ok``, ``error``, ``bye``) is
a *response* to the client's last request — the session's request loop
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
import queue
import socket
import threading
from typing import Any, Iterator, Sequence

_CLOSED = object()  # sentinel pushed to every queue when the stream ends


class ServerError(RuntimeError):
    """The server answered a request with an ``error`` event."""


class ServiceClient:
    """One connection to a :class:`~repro.service.server.DetectionServer`."""

    def __init__(self, sock: socket.socket, *, timeout: float | None = 60.0):
        self.timeout = timeout
        self._sock = sock
        self._reader_file = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._request_lock = threading.Lock()
        self._responses: "queue.Queue[Any]" = queue.Queue()
        self._job_queues: dict[int, "queue.Queue[Any]"] = {}
        self._job_done: dict[int, dict[str, Any]] = {}
        self._jobs_lock = threading.Lock()
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="service-client-reader", daemon=True
        )
        self._reader.start()

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
        sock.settimeout(None)  # the reader thread blocks; calls use queue timeouts
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client = cls(sock, timeout=timeout)
        if token is not None:
            client.authenticate(token)
        return client

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire plumbing --------------------------------------------------
    def _read_loop(self) -> None:
        try:
            for raw in self._reader_file:
                try:
                    event = json.loads(raw)
                except ValueError:
                    continue  # not ours to diagnose; skip the line
                if not isinstance(event, dict):
                    continue
                if event.get("event") in ("result", "job-done"):
                    self._job_queue(int(event.get("job", -1))).put(event)
                    if event["event"] == "job-done":
                        with self._jobs_lock:
                            self._job_done[int(event["job"])] = event
                else:
                    self._responses.put(event)
        except (OSError, ValueError):
            pass
        finally:
            self._closed = True
            self._responses.put(_CLOSED)
            with self._jobs_lock:
                for job_queue in self._job_queues.values():
                    job_queue.put(_CLOSED)

    def _job_queue(self, job_id: int) -> "queue.Queue[Any]":
        with self._jobs_lock:
            job_queue = self._job_queues.get(job_id)
            if job_queue is None:
                job_queue = queue.Queue()
                self._job_queues[job_id] = job_queue
                if self._closed:
                    job_queue.put(_CLOSED)
            return job_queue

    def _send(self, request: dict[str, Any]) -> None:
        data = (json.dumps(request) + "\n").encode("utf-8")
        with self._send_lock:
            try:
                self._sock.sendall(data)
            except OSError as error:
                raise ConnectionError(f"server connection lost: {error}") from error

    def _request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request and return its (in-order) response event."""
        with self._request_lock:
            self._send(request)
            try:
                response = self._responses.get(timeout=self.timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no response to {request.get('op')!r} within {self.timeout}s"
                ) from None
        if response is _CLOSED:
            raise ConnectionError("server closed the connection")
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
        job_queue = self._job_queue(job_id)
        wait = self.timeout if timeout is None else timeout
        while True:
            try:
                event = job_queue.get(timeout=wait)
            except queue.Empty:
                raise TimeoutError(
                    f"job {job_id}: no event within {wait}s"
                ) from None
            if event is _CLOSED:
                raise ConnectionError("server closed the connection mid-stream")
            if event["event"] == "job-done":
                return
            yield event

    def summary(self, job_id: int) -> dict[str, Any] | None:
        """The ``job-done`` event of a fully-consumed job, if it arrived."""
        with self._jobs_lock:
            return self._job_done.get(job_id)

    def status(self, job_id: int) -> dict[str, Any]:
        return self._request({"op": "status", "job": job_id})

    def wait(self, job_id: int) -> dict[str, Any]:
        """Block until the job is done server-side; returns its status event.

        When this returns, every ``result`` and the ``job-done`` event of
        the job have already been enqueued locally (the server orders them
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
        # the reader thread blocked in recv(), so the join would time out
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5)
