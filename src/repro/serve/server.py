"""The asyncio transport of ``repro serve``.

One :class:`OverlayServer` wraps one
:class:`~repro.serve.service.OverlayService` and speaks the
newline-delimited JSON protocol (:mod:`repro.serve.protocol`) over a TCP
port or a unix socket.  Each connection is one :class:`asyncio.Protocol`
that answers every complete line inside the ``data_received`` callback
that read it, in arrival order, and writes the reply straight to the
transport: one loop turn per request, no task or future.  Request
handling and epoch ticks all run on the one event loop, so lookups
serialize against epoch advancement without locks: a lookup observes
either the pre-tick or the post-tick overlay, never a half-committed
one.

Cadence: with ``cadence > 0`` a background task ticks the service every
``cadence`` seconds; with ``cadence == 0`` epochs advance only on
explicit ``step`` requests (the mode tests and the workload generator
use, so the measured overlay is pinned).

Subscriptions: a ``subscribe`` request registers the connection for the
event stream; every tick's payload is queued per subscriber and flushed
by a writer task that waits while the connection's transport is paused,
so one slow consumer cannot stall the tick loop.  A closed connection is
unsubscribed from the service, so it leaves the stream and is never
charged another dropped event.

Backpressure and admission control: a connection whose reader does not
keep up is *held* — its transport is paused for writing, so the server
stops reading it, and the lines it already sent wait until the transport
drains.  While ``queue_limit`` connections are held, a request from any
other connection is *shed* immediately with a ``busy`` error (clients
treat it as retryable backoff pressure) instead of growing the server's
unread output further — the ``serve.shed`` counter records every shed.
Nothing a request raises ends its connection: an unexpected exception is
answered ``internal`` (counted as ``serve.internal_errors``, traceback
on stderr) and serving continues.

Shutdown: :meth:`OverlayServer.stop` — on a ``shutdown`` request, or on
SIGTERM via :func:`run_server` — closes the listener and every live
connection (each request was answered when it was read, so none is in
flight), then closes the service, which seals the mutation log with its
``close`` entry, so the next start needs no recovery replay.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import threading
import time
import traceback
from typing import Callable, Dict, Optional, Set

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    error_response,
    parse_request,
    recover_request_id,
    response,
)
from repro.serve.service import OverlayService, ServeError
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError

#: Pending epoch events per subscriber before the oldest is dropped.
SUBSCRIBER_QUEUE_LIMIT = 256

#: Connections held (transport paused for writing) before other
#: connections' requests are shed with ``busy``.
REQUEST_QUEUE_LIMIT = 1024


class _Connection(asyncio.Protocol):
    """One client connection: cuts lines and answers each as it is read.

    A line is complete at its newline; blank lines are skipped; the
    bytes after the last newline wait for the next read, and are answered
    as the final line at end of stream.  A line longer than
    :data:`MAX_LINE_BYTES` is answered ``too-large`` and ends the
    connection.  While the transport is paused for writing the
    connection is *held*: reading pauses, and lines already read wait in
    the buffer until :meth:`resume_writing`.
    """

    def __init__(self, server: "OverlayServer"):
        self.server = server
        self.number = server._next_connection
        server._next_connection += 1
        self.transport: Optional[asyncio.Transport] = None
        #: Bytes read and not yet answered: a partial line, or while held,
        #: whole lines too.
        self._buffer = bytearray()
        self._eof = False
        self._done = False
        self.held = False
        #: Set while the transport takes writes; the subscriber writer
        #: waits on it.
        self.writable = asyncio.Event()
        self.writable.set()
        self._event_writer: Optional[asyncio.Task] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer or self.held:
            buffer += data
            if self.held:
                return
            if b"\n" not in data:
                if len(buffer) > MAX_LINE_BYTES:
                    self._refuse_too_large()
                return
            data = bytes(buffer)
            buffer.clear()
        self._answer_lines(data)

    def eof_received(self) -> bool:
        self._eof = True
        if not self.held:
            self._finish()
        return True  # the transport stays open until the replies are written

    def pause_writing(self) -> None:
        self.held = True
        self.writable.clear()
        self.transport.pause_reading()
        server = self.server
        server._held.add(self)
        server._max_held = max(server._max_held, len(server._held))

    def resume_writing(self) -> None:
        self.held = False
        self.writable.set()
        self.server._held.discard(self)
        if self._done:
            return
        self.transport.resume_reading()
        if self._buffer:
            data = bytes(self._buffer)
            self._buffer.clear()
            self._answer_lines(data)
        if self._eof and not self.held:
            self._finish()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._done = True
        server = self.server
        server._connections.discard(self)
        server._held.discard(self)
        server._unsubscribe(self.number)
        if self._event_writer is not None:
            self._event_writer.cancel()

    def close(self) -> None:
        """Stop answering.  Replies the client has not read yet are
        dropped: a transport with unsent bytes is aborted, not kept open
        for a reader that may never come."""
        self._done = True
        if self.transport.get_write_buffer_size():
            self.transport.abort()
        else:
            self.transport.close()

    def _answer_lines(self, data: bytes) -> None:
        """Answer every complete line of ``data``; keep the rest."""
        start = 0
        while not (self.held or self._done):
            end = data.find(b"\n", start)
            if end < 0:
                break
            if end - start > MAX_LINE_BYTES:
                self._refuse_too_large()
                return
            line = data[start : end + 1]
            start = end + 1
            if not line.isspace():
                self._answer(line)
        if start < len(data) and not self._done:
            self._buffer += data[start:]
            if not self.held and len(self._buffer) > MAX_LINE_BYTES:
                self._refuse_too_large()

    def _finish(self) -> None:
        """At end of stream: answer the unterminated last line, then close."""
        if self._done:
            return
        line = bytes(self._buffer)
        self._buffer.clear()
        if line and not line.isspace():
            self._answer(line)
        if not self._done:
            self._done = True
            self.transport.close()

    def _answer(self, line: bytes) -> None:
        server = self.server
        if len(server._held) >= server.queue_limit:
            self.transport.write(encode(server._shed(line)))
            return
        message, subscribe, shutdown = server._dispatch(line, self.number)
        if subscribe and self._event_writer is None:
            self._event_writer = server._subscribe(self)
        self.transport.write(encode(message))
        if shutdown:
            self._done = True
            self.transport.close()
            server._shutdown.set()

    def _refuse_too_large(self) -> None:
        self._done = True
        self._buffer.clear()
        self.transport.write(
            encode(error_response(None, "too-large", "request line too large"))
        )
        self.transport.close()


class OverlayServer:
    """Serve one :class:`OverlayService` over a local socket."""

    def __init__(
        self,
        service: OverlayService,
        *,
        cadence: float = 0.0,
        queue_limit: int = REQUEST_QUEUE_LIMIT,
    ):
        self.service = service
        self.cadence = float(cadence)
        self.queue_limit = int(queue_limit)
        if self.queue_limit < 1:
            raise ValidationError("queue_limit must be at least 1")
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        #: Live connections, and those held (transport paused for writing).
        self._connections: Set[_Connection] = set()
        self._held: Set[_Connection] = set()
        #: Per subscribed connection, the callback registered with the service.
        self._subscribers: Dict[int, Callable] = {}
        self._next_connection = 0
        #: Drop-oldest backpressure ledger: events dropped in total, per
        #: subscriber connection, and the deepest queue ever observed —
        #: surfaced by ``stats``/``metrics`` so a slow consumer is
        #: visible instead of silently losing epochs.
        self._dropped_events = 0
        self._drops_by_connection: Dict[int, int] = {}
        self._max_queue_depth = 0
        #: Most connections ever held at once.
        self._max_held = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
    ) -> str:
        """Bind and start accepting; returns the bound address string."""
        if (port is None) == (socket_path is None):
            raise ValidationError("exactly one of port or socket_path is required")
        loop = asyncio.get_running_loop()
        if socket_path is not None:
            # A SIGKILL-ed predecessor leaves its socket file behind;
            # binding over it is the supervised-restart path.
            if os.path.exists(socket_path):
                try:
                    os.unlink(socket_path)
                except OSError:
                    pass
            self._server = await loop.create_unix_server(
                lambda: _Connection(self), path=socket_path
            )
            address = socket_path
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port
            )
            bound = self._server.sockets[0].getsockname()
            address = f"{bound[0]}:{bound[1]}"
        if self.cadence > 0:
            loop.create_task(self._tick_loop())
        return address

    async def start_metrics(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> str:
        """Expose the telemetry registry as Prometheus text over HTTP.

        A deliberately minimal endpoint: every request — whatever the
        path — answers ``200 text/plain`` with the current
        :meth:`~repro.telemetry.registry.MetricsRegistry.render_prometheus`
        dump (empty body when the process has no registry).  Returns the
        bound ``host:port``.
        """
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics_request, host=host, port=port
        )
        bound = self._metrics_server.sockets[0].getsockname()
        return f"{bound[0]}:{bound[1]}"

    async def _handle_metrics_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # Drain the request line and headers; the reply is the same
            # for every path, so nothing in them matters.
            while True:
                header = await reader.readline()
                if not header.strip():
                    break
            registry = telemetry.metrics()
            body = (registry.render_prometheus() if registry else "").encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request, SIGTERM or :meth:`stop`."""
        await self._shutdown.wait()
        await self.stop()

    def request_drain(self) -> None:
        """Wake :meth:`serve_until_shutdown` to stop the server.

        Signal-handler safe: only sets a flag; :meth:`stop` runs on the
        event loop.
        """
        self._shutdown.set()

    async def stop(self) -> None:
        """Stop accepting, close every connection, seal the service.

        Live connections close before the listener is awaited: since
        Python 3.12, ``Server.wait_closed`` waits for every connection
        the listener accepted.  A connection's replies were written when
        its requests were read, so closing it loses none but those its
        client has not read (:meth:`_Connection.close`).
        """
        self._shutdown.set()
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
        for connection in list(self._connections):
            connection.close()
        for server in (self._server, self._metrics_server):
            if server is not None:
                await server.wait_closed()
        self._server = self._metrics_server = None
        for connection in list(self._subscribers):
            self._unsubscribe(connection)
        if not self.service.closed:
            self.service.close()

    async def _tick_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                await asyncio.wait_for(
                    self._shutdown.wait(), timeout=self.cadence
                )
                return
            except asyncio.TimeoutError:
                pass
            if not self.service.closed:
                self.service.tick()

    # ------------------------------------------------------------------ #
    # Admission control and subscriptions
    # ------------------------------------------------------------------ #
    def _shed(self, line: bytes) -> Dict[str, object]:
        """The ``busy`` reply to a request refused while connections are held."""
        # The collector surfaces this as ``serve.shed`` at snapshot time;
        # counting it here too would double-report.
        self.service.counters["shed"] += 1
        return error_response(
            recover_request_id(line),
            "busy",
            f"{len(self._held)} connections hold unread replies (limit "
            f"{self.queue_limit}); retry with backoff",
        )

    def _subscribe(self, connection: _Connection) -> asyncio.Task:
        """Register ``connection`` for the event stream; returns its writer."""
        queue: asyncio.Queue = asyncio.Queue()
        notify = functools.partial(self._enqueue, connection.number, queue)
        self._subscribers[connection.number] = notify
        self.service.subscribe(notify)
        return asyncio.get_running_loop().create_task(
            self._drain_events(queue, connection)
        )

    def _unsubscribe(self, connection: int) -> None:
        notify = self._subscribers.pop(connection, None)
        if notify is not None:
            self.service.unsubscribe(notify)

    def _enqueue(
        self, connection: int, queue: asyncio.Queue, payload: Dict[str, object]
    ) -> None:
        if queue.qsize() >= SUBSCRIBER_QUEUE_LIMIT:
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:
                pass
            else:
                self._dropped_events += 1
                self._drops_by_connection[connection] = (
                    self._drops_by_connection.get(connection, 0) + 1
                )
                telemetry.count("serve.subscribers.dropped")
        queue.put_nowait(payload)
        depth = queue.qsize()
        if depth > self._max_queue_depth:
            self._max_queue_depth = depth

    def _subscriber_stats(self) -> Dict[str, object]:
        """The subscriber/backpressure block of ``stats`` and ``metrics``."""
        return {
            "count": len(self._subscribers),
            "queue_limit": SUBSCRIBER_QUEUE_LIMIT,
            "dropped_events": self._dropped_events,
            "dropped_by_connection": {
                str(connection): drops
                for connection, drops in sorted(self._drops_by_connection.items())
            },
            "max_depth": self._max_queue_depth,
        }

    def _admission_stats(self) -> Dict[str, object]:
        """The admission-control block of ``stats`` and ``metrics``: the
        connections held now (``depth``) and at most (``max_depth``)."""
        return {
            "queue_limit": self.queue_limit,
            "depth": len(self._held),
            "max_depth": self._max_held,
            "shed": self.service.counters.get("shed", 0),
        }

    async def _drain_events(
        self, queue: asyncio.Queue, connection: _Connection
    ) -> None:
        try:
            while True:
                payload = await queue.get()
                await connection.writable.wait()
                if connection.transport.is_closing():
                    return
                connection.transport.write(encode(payload))
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, line: bytes, connection: int):
        """Handle one request line; returns (message, subscribe?, shutdown?).

        While a metrics registry is live, every request's handling
        latency lands in the per-op ``serve.request.<op>`` histogram;
        lines that fail protocol parsing are pooled under ``invalid``.
        Nothing a request raises escapes: an exception
        :meth:`_handle_request` does not map to an error code is answered
        ``internal``, counted, and its traceback printed.  The fallback
        itself cannot raise: :func:`recover_request_id` never does,
        whatever the line.
        """
        timed = telemetry.metrics() is not None
        start = time.perf_counter() if timed else 0.0
        try:
            op, message, subscribe, shutdown = self._handle_request(line)
        except Exception as error:
            self.service.counters["internal_errors"] += 1
            traceback.print_exc()
            message = error_response(
                recover_request_id(line),
                "internal",
                f"{type(error).__name__}: {error}",
            )
            return message, False, False
        if timed:
            telemetry.observe(f"serve.request.{op}", time.perf_counter() - start)
        return message, subscribe, shutdown

    def _handle_request(self, line: bytes):
        """Dispatch one request; returns (op, message, subscribe?, shutdown?)."""
        request_id: Optional[object] = None
        op = "invalid"
        try:
            request = parse_request(line)
            request_id = request.get("id")
            op = request["op"]
            if op == "lookup":
                result = self.service.lookup(
                    request.get("src"),
                    request.get("dst"),
                    engine=request.get("engine"),
                    want_path=bool(request.get("path", False)),
                )
                return op, response(request_id, **result), False, False
            if op == "lookup_batch":
                result = self.service.lookup_batch(
                    request.get("pairs"), engine=request.get("engine")
                )
                return op, response(request_id, **result), False, False
            if op == "mutate":
                idem = request.get("idem")
                if idem is not None and not isinstance(idem, str):
                    raise ProtocolError("idem must be a string when present")
                result = self.service.mutate(request.get("mutation"), idem=idem)
                return op, response(request_id, **result), False, False
            if op == "step":
                payload = self.service.step(request.get("expect"))
                reply: Dict[str, object] = {
                    "epoch": payload["epoch"],
                    "digest": payload["digest"],
                }
                if payload.get("duplicate"):
                    reply["duplicate"] = True
                return op, response(request_id, **reply), False, False
            if op == "subscribe":
                return op, response(request_id, subscribed=True), True, False
            if op == "snapshot":
                snapshot = self.service.snapshot()
                snapshot["protocol"] = PROTOCOL_VERSION
                return op, response(request_id, **snapshot), False, False
            if op == "stats":
                stats = self.service.stats()
                stats["protocol"] = PROTOCOL_VERSION
                stats["subscribers"] = self._subscriber_stats()
                stats["admission"] = self._admission_stats()
                return op, response(request_id, **stats), False, False
            if op == "metrics":
                data = self.service.metrics()
                data["protocol"] = PROTOCOL_VERSION
                data["subscribers"] = self._subscriber_stats()
                data["admission"] = self._admission_stats()
                return op, response(request_id, **data), False, False
            # op == "shutdown" (parse_request already rejected unknown ops)
            return op, response(request_id, shutting_down=True), False, True
        except ProtocolError as error:
            if request_id is None:
                request_id = recover_request_id(line)
            return (
                op,
                error_response(request_id, "bad-request", str(error)),
                False,
                False,
            )
        except ServeError as error:
            return op, error_response(request_id, error.code, str(error)), False, False
        except ValidationError as error:
            return op, error_response(request_id, "invalid", str(error)), False, False

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #


def run_server(
    service: OverlayService,
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    socket_path: Optional[str] = None,
    cadence: float = 0.0,
    metrics_port: Optional[int] = None,
    queue_limit: int = REQUEST_QUEUE_LIMIT,
    ready: Optional[threading.Event] = None,
    announce=None,
    announce_metrics=None,
    handle_sigterm: bool = False,
) -> None:
    """Run a server until shutdown (blocking; the CLI entry point).

    ``metrics_port`` additionally binds the Prometheus-text endpoint of
    :meth:`OverlayServer.start_metrics` on ``host``;
    ``announce_metrics`` receives its bound address.  With
    ``handle_sigterm`` (the CLI's foreground mode — requires the main
    thread) SIGTERM triggers :meth:`OverlayServer.stop` instead of the
    default hard exit: the listener and the connections close, and the
    mutation log is sealed.
    """

    async def main() -> None:
        server = OverlayServer(service, cadence=cadence, queue_limit=queue_limit)
        if handle_sigterm:
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, server.request_drain
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        address = await server.start(
            host=host, port=port, socket_path=socket_path
        )
        if metrics_port is not None:
            metrics_address = await server.start_metrics(
                host=host, port=metrics_port
            )
            if announce_metrics is not None:
                announce_metrics(metrics_address)
        if announce is not None:
            announce(address)
        if ready is not None:
            ready.set()
        await server.serve_until_shutdown()

    asyncio.run(main())


__all__ = [
    "OverlayServer",
    "REQUEST_QUEUE_LIMIT",
    "SUBSCRIBER_QUEUE_LIMIT",
    "run_server",
]
