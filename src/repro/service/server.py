"""Multi-client TCP front-end for the detection service.

:class:`DetectionServer` puts one shared
:class:`~repro.service.service.DetectionService` on the network: a
listening socket plus an acceptor thread, and one
:class:`~repro.service.protocol.ServeSession` per accepted connection —
the *same* request-dispatch core the stdio front-end runs, so the two
transports speak byte-identical protocol by construction (the
conformance suite in ``tests/test_server.py`` replays golden scripts
against both and asserts it).

Per-connection properties:

* **its own session** — job ids are session-local, each client streams
  only its own ``result``/``job-done`` events, and a client disconnecting
  mid-stream silences only its own session (in-flight jobs still finish
  in the service; nobody else's events are lost);
* **framing enforcement** — newline-delimited UTF-8 JSON with a hard
  ``max_line_bytes`` cap; an oversized or truncated frame answers one
  ``error`` event and closes that connection only;
* **guard hooks** — an optional shared-token handshake (the first request
  must be ``{"op": "auth", "token": ...}``), a per-client submit quota,
  and an idle timeout that reaps silent connections;
* **graceful drain** — :meth:`DetectionServer.shutdown` stops accepting,
  flips every session's submit guard to refusal, lets in-flight jobs
  finish streaming, then closes the connections.

The server is thread-per-connection on purpose: sessions spend their time
blocked on socket reads or on the service's condition variables, the
worker pool underneath is already bounded, and the thread model matches
the rest of the repository (the sharded pool, one writer per session).  The
load benchmark (``benchmarks/bench_server.py``) drives hundreds of
concurrent clients through one server instance.
"""

from __future__ import annotations

import socket
import threading
from typing import Any

from repro.service.protocol import DEFAULT_MAX_LINE_BYTES, ServeSession
from repro.service.service import DetectionService

_RECV_CHUNK = 1 << 16


class _SocketLineReader:
    """File-like ``readline(limit)`` over a socket, with idle timeout
    (each session reads its requests through one; the reference client
    reads its events through one too).

    Bytes are buffered and decoded per line (UTF-8, replacement on decode
    errors — a garbage byte sequence becomes a bad-JSON line, answered by
    an ``error`` event, rather than a crash).  A recv timeout surfaces as
    ``TimeoutError``, which :class:`ServeSession` reports as an idle
    timeout; any other socket error surfaces as ``OSError`` and ends the
    session silently.
    """

    def __init__(self, sock: socket.socket, idle_timeout: float | None):
        self._sock = sock
        self._buffer = b""
        self._eof = False
        sock.settimeout(idle_timeout)

    def readline(self, limit: int = -1) -> str:
        while True:
            newline = self._buffer.find(b"\n")
            if newline != -1:
                if 0 <= limit <= newline:
                    # the line is longer than the caller accepts: hand the
                    # over-limit prefix back (no newline), signalling
                    # "oversized" exactly like io streams do
                    line, self._buffer = self._buffer[:limit], self._buffer[limit:]
                else:
                    line, self._buffer = (
                        self._buffer[: newline + 1],
                        self._buffer[newline + 1 :],
                    )
                return line.decode("utf-8", errors="replace")
            if 0 <= limit <= len(self._buffer):
                line, self._buffer = self._buffer[:limit], self._buffer[limit:]
                return line.decode("utf-8", errors="replace")
            if self._eof:
                line, self._buffer = self._buffer, b""
                return line.decode("utf-8", errors="replace")
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                self._eof = True
                continue
            self._buffer += chunk


class _SocketWriter:
    """File-like ``write``/``flush`` over a socket (sendall per event line)."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def write(self, text: str) -> int:
        self._sock.sendall(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:  # sendall already pushed the bytes
        pass


class _Connection:
    """One accepted client: a session thread plus drain/close plumbing."""

    def __init__(
        self, server: "DetectionServer", sock: socket.socket, peer: Any, conn_id: int
    ):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.conn_id = conn_id
        self.session = ServeSession(
            server.service,
            _SocketLineReader(sock, server.idle_timeout),  # type: ignore[arg-type]
            _SocketWriter(sock),  # type: ignore[arg-type]
            max_line_bytes=server.max_line_bytes,
            auth_token=server.auth_token,
            submit_quota=server.submit_quota,
            submit_guard=server._submit_guard,
            stats_extra=server._stats_extra,
        )
        self.thread = threading.Thread(
            target=self._run, name=f"serve-conn-{conn_id}", daemon=True
        )

    def _run(self) -> None:
        try:
            self.session.run()
        finally:
            try:
                self.sock.close()
            except OSError:
                pass
            self.server._forget(self)

    def drain_and_close(self, timeout: float | None) -> None:
        """Finish streaming in-flight jobs, then unblock and join the session."""
        self.session.drain(timeout)
        try:
            # EOF the read side: the session's request loop sees end of
            # input, emits its final events and exits cleanly
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already gone
        self.thread.join(timeout)
        try:
            self.sock.close()
        except OSError:
            pass


class DetectionServer:
    """A threaded-socket, multi-client server over one shared service.

    Usage::

        with DetectionService(workers=4, store=store) as service:
            with DetectionServer(service, host="127.0.0.1", port=0) as server:
                host, port = server.address
                ...                       # clients connect and submit
            # __exit__ == shutdown(): drain in-flight jobs, refuse new ones

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        service: DetectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auth_token: str | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        idle_timeout: float | None = None,
        submit_quota: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.max_line_bytes = max_line_bytes
        self.idle_timeout = idle_timeout
        self.submit_quota = submit_quota
        self.draining = False
        self.total_connections = 0
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._connections: dict[int, _Connection] = {}
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind, listen and start accepting; returns ``(host, port)``."""
        if self._started:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._started = True
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="serve-acceptor", daemon=True
        )
        self._acceptor.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — meaningful after :meth:`start`."""
        return self.host, self.port

    def __enter__(self) -> "DetectionServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self.draining:
                    sock.close()
                    continue
                self.total_connections += 1
                connection = _Connection(self, sock, peer, self.total_connections)
                self._connections[connection.conn_id] = connection
                # started under the lock so shutdown() never sees (and
                # tries to join) a registered-but-unstarted thread
                connection.thread.start()

    def _forget(self, connection: _Connection) -> None:
        with self._lock:
            self._connections.pop(connection.conn_id, None)

    def shutdown(self, *, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the server.

        With ``drain`` (the default): stop accepting, refuse new submits on
        every live session (their guard now answers an ``error`` event),
        let in-flight jobs finish streaming, then close the connections.
        Without ``drain``: connections are torn down immediately; the
        service itself still completes admitted jobs internally.
        """
        with self._lock:
            self.draining = True
            connections = list(self._connections.values())
        if self._listener is not None:
            # shutdown() before close(): close() alone does not wake a
            # thread blocked in accept() on Linux, shutdown() does
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout)
        for connection in connections:
            if drain:
                connection.drain_and_close(timeout)
            else:
                try:
                    connection.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    connection.sock.close()
                except OSError:
                    pass
                connection.thread.join(timeout)

    # -- session hooks --------------------------------------------------
    def _submit_guard(self) -> str | None:
        if self.draining:
            return "server draining: new submissions refused"
        return None

    def _stats_extra(self) -> dict[str, Any]:
        with self._lock:
            return {
                "server": {
                    "connections": len(self._connections),
                    "total_connections": self.total_connections,
                    "draining": self.draining,
                    "auth_required": self.auth_token is not None,
                    "submit_quota": self.submit_quota,
                }
            }
