"""The asyncio transport of ``repro serve``.

One :class:`OverlayServer` wraps one
:class:`~repro.serve.service.OverlayService` and speaks the
newline-delimited JSON protocol (:mod:`repro.serve.protocol`) over a TCP
port or a unix socket.  Request handling and epoch ticks all run on the
one event loop, so lookups serialize against epoch advancement without
locks: a lookup observes either the pre-tick or the post-tick overlay,
never a half-committed one.

Cadence: with ``cadence > 0`` a background task ticks the service every
``cadence`` seconds; with ``cadence == 0`` epochs advance only on
explicit ``step`` requests (the mode tests and the workload generator
use, so the measured overlay is pinned).

Subscriptions: a ``subscribe`` request registers the connection for the
event stream; every tick's payload is queued per subscriber and flushed
by a writer task, so one slow consumer cannot stall the tick loop.  A
closed connection is unsubscribed from the service, so it leaves the
stream and is never charged another dropped event.

Admission control: every request passes through one bounded FIFO queue
drained by a single worker task.  When the queue is full the request is
*shed* immediately with a ``busy`` error (clients treat it as retryable
backoff pressure) instead of accumulating unbounded latency — the
``serve.shed`` counter records every shed.  The worker outlives any
request: an unexpected exception is answered ``internal`` (counted as
``serve.internal_errors``, traceback on stderr) and the queue keeps
draining.

Graceful drain: :meth:`OverlayServer.drain` (wired to SIGTERM by
:func:`run_server`) closes the listener, lets every queued and in-flight
request finish, then closes the service — which seals the mutation log
with its ``close`` entry, so a drained shutdown needs no recovery replay
at the next start.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import threading
import time
import traceback
from typing import Callable, Dict, Optional, Tuple

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

#: Pending requests admitted before new ones are shed with ``busy``.
REQUEST_QUEUE_LIMIT = 1024


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
        self._draining = False
        self._requests: Optional[asyncio.Queue] = None
        self._worker: Optional[asyncio.Task] = None
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
        #: Deepest request-queue backlog ever observed.
        self._max_request_depth = 0

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
        self._requests = asyncio.Queue(maxsize=self.queue_limit)
        self._worker = asyncio.get_running_loop().create_task(
            self._request_worker()
        )
        if socket_path is not None:
            # A SIGKILL-ed predecessor leaves its socket file behind;
            # binding over it is the supervised-restart path.
            if os.path.exists(socket_path):
                try:
                    os.unlink(socket_path)
                except OSError:
                    pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=socket_path, limit=MAX_LINE_BYTES
            )
            address = socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=host, port=port, limit=MAX_LINE_BYTES
            )
            bound = self._server.sockets[0].getsockname()
            address = f"{bound[0]}:{bound[1]}"
        if self.cadence > 0:
            asyncio.get_running_loop().create_task(self._tick_loop())
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
        """Block until a ``shutdown`` request (or :meth:`stop`) lands."""
        await self._shutdown.wait()
        if self._draining:
            await self.drain()
        else:
            await self.stop()

    def request_drain(self) -> None:
        """Flag a graceful drain and wake :meth:`serve_until_shutdown`.

        Signal-handler safe: only sets flags; the actual drain runs on
        the event loop.
        """
        self._draining = True
        self._shutdown.set()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, seal.

        The listener closes first (new connections are refused), queued
        requests are processed to completion, connection loops exit as
        their clients disconnect or their next read lands after the
        shutdown flag, and only then does the service close — writing
        the mutation log's ``close`` entry so the next start replays
        nothing.
        """
        self._draining = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._requests is not None:
            await self._requests.join()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, drop subscribers, close the service."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._worker is not None:
            self._worker.cancel()
            self._worker = None
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
    # Admission control
    # ------------------------------------------------------------------ #
    async def _request_worker(self) -> None:
        """Drain the admitted-request queue, one request at a time.

        This is the only task answering requests, so nothing a request
        raises may end it: an exception :meth:`_handle_request` does not
        map to an error code is answered ``internal``, counted, and the
        worker moves on to the next request.  The fallback itself cannot
        raise: :func:`recover_request_id` never does, whatever the line.
        """
        assert self._requests is not None
        try:
            while True:
                line, connection, future = await self._requests.get()
                try:
                    if future.cancelled():
                        continue
                    try:
                        result = self._dispatch(line, connection)
                    except Exception as error:
                        self.service.counters["internal_errors"] += 1
                        traceback.print_exc()
                        result = (
                            error_response(
                                recover_request_id(line),
                                "internal",
                                f"{type(error).__name__}: {error}",
                            ),
                            False,
                            False,
                        )
                    future.set_result(result)
                finally:
                    self._requests.task_done()
        except asyncio.CancelledError:
            pass

    def _admit(
        self, line: bytes, connection: int
    ) -> Tuple[Optional["asyncio.Future"], Optional[Dict[str, object]]]:
        """Queue one request, or shed it with a ``busy`` reply."""
        assert self._requests is not None
        future = asyncio.get_running_loop().create_future()
        try:
            self._requests.put_nowait((line, connection, future))
        except asyncio.QueueFull:
            # The collector surfaces this as ``serve.shed`` at snapshot
            # time; counting it here too would double-report.
            self.service.counters["shed"] += 1
            return None, error_response(
                recover_request_id(line),
                "busy",
                f"request queue is full ({self.queue_limit} pending); retry "
                "with backoff",
            )
        depth = self._requests.qsize()
        if depth > self._max_request_depth:
            self._max_request_depth = depth
        return future, None

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = self._next_connection
        self._next_connection += 1
        writer_task: Optional[asyncio.Task] = None
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    writer.write(
                        encode(error_response(None, "too-large", "request line too large"))
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                future, shed = self._admit(line, connection)
                if future is None:
                    writer.write(encode(shed))
                    await writer.drain()
                    continue
                message, subscribe, shutdown = await future
                if subscribe and connection not in self._subscribers:
                    queue: asyncio.Queue = asyncio.Queue()
                    notify = functools.partial(self._enqueue, connection, queue)
                    self._subscribers[connection] = notify
                    self.service.subscribe(notify)
                    writer_task = asyncio.get_running_loop().create_task(
                        self._drain_events(queue, writer)
                    )
                writer.write(encode(message))
                await writer.drain()
                if shutdown:
                    self._shutdown.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if writer_task is not None:
                writer_task.cancel()
            self._unsubscribe(connection)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

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
        """The admission-control block of ``stats`` and ``metrics``."""
        return {
            "queue_limit": self.queue_limit,
            "depth": self._requests.qsize() if self._requests is not None else 0,
            "max_depth": self._max_request_depth,
            "shed": self.service.counters.get("shed", 0),
        }

    async def _drain_events(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                payload = await queue.get()
                writer.write(encode(payload))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, line: bytes, connection: int):
        """Handle one request line; returns (message, subscribe?, shutdown?).

        Every request's handling latency lands in the per-op
        ``serve.request.<op>`` histogram (a no-op without a registry);
        lines that fail protocol parsing are pooled under ``invalid``.
        """
        start = time.perf_counter()
        op, message, subscribe, shutdown = self._handle_request(line)
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
    thread) SIGTERM triggers a graceful drain instead of the default
    hard exit: the listener closes, in-flight requests finish, and the
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
