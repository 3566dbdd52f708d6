"""A small blocking client for the serve protocol.

:class:`ServeClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.server` over a unix socket or TCP.  It is what the
workload generator, the CI smoke job, and the tests use — a deliberately
small socket client, not an SDK.  Lines go through
:func:`~repro.serve.protocol.encode_request` and
:func:`~repro.serve.protocol.decode_reply`, the protocol module's codec.

Pushed subscription events (lines carrying an ``event`` key, no ``id``)
arriving while a request waits for its response are buffered into
:attr:`events`, so one connection can multiplex a subscription with
request/response traffic.

Robustness (the crash-safety work): requests retry on transport
failures and ``busy`` sheds with exponential backoff plus decorrelated
jitter, bounded by ``max_retries`` and an optional per-request
``deadline``; the connection is re-established transparently between
attempts (a supervised server that crashed and recovered looks like one
slow request).  Retried *mutations* carry an idempotency key, so the
server's dedupe window applies them exactly once however many times the
wire delivered them; retried *steps* carry the client's expected epoch
count, so a step whose ack was lost advances exactly one epoch.  Safety:
a non-idempotent request (plain ``step``/``mutate`` without those
fields) is never retried after it may have reached the server — only
connect/send-phase failures re-attempt it.
"""

from __future__ import annotations

import os
import random
import socket
import time
import uuid
from typing import Dict, Iterable, List, Optional, Sequence

from repro.serve.protocol import decode_reply, encode_request
from repro.util.validation import ValidationError

#: Error codes the server sends that mean "back off and retry".
RETRYABLE_CODES = ("busy",)

#: Default cap on transparent retries per request.
DEFAULT_MAX_RETRIES = 5

#: First backoff sleep; doubles per attempt up to the cap.
BACKOFF_BASE = 0.05

#: Ceiling on one backoff sleep.
BACKOFF_CAP = 2.0


class RetryBudgetExceeded(ValidationError):
    """The request kept failing past ``max_retries`` (or its deadline)."""


def backoff_delay(attempt: int, *, rng: random.Random) -> float:
    """The sleep before retry ``attempt`` (0-based): capped exp + jitter.

    Full jitter over the exponential envelope — ``U(0, min(cap,
    base * 2**attempt))`` — so a thundering herd of clients retrying
    into a recovering server decorrelates instead of re-spiking it.
    """
    envelope = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** attempt))
    return rng.uniform(0.0, envelope)


class ServeClient:
    """Blocking request/response client for one serve connection.

    Parameters
    ----------
    host, port, socket_path:
        Where the server listens (exactly one of port/socket_path).
    timeout:
        Socket timeout per read/write, seconds.
    max_retries:
        Transparent retries per request on transport failures and
        retryable (``busy``) errors; 0 restores the old fail-fast
        behaviour.
    deadline:
        Default per-request wall-clock budget, seconds (None = only
        ``max_retries`` bounds the attempts).  Individual requests can
        override via ``request(..., deadline=...)``.
    retry_seed:
        Seeds the jitter stream — deterministic backoff for tests.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        timeout: Optional[float] = 30.0,
        max_retries: int = DEFAULT_MAX_RETRIES,
        deadline: Optional[float] = None,
        retry_seed: Optional[int] = None,
    ):
        if (port is None) == (socket_path is None):
            raise ValidationError("exactly one of port or socket_path is required")
        self._host = host
        self._port = int(port) if port is not None else None
        self._socket_path = socket_path
        self._timeout = timeout
        self.max_retries = max(0, int(max_retries))
        self.deadline = deadline
        self._rng = random.Random(retry_seed)
        self._socket: Optional[socket.socket] = None
        self._stream = None
        self._next_id = 0
        #: Buffered subscription events, oldest first.
        self.events: List[Dict[str, object]] = []
        #: Requests that were retried at least once (client-side telemetry).
        self.retried = 0
        #: ``busy`` sheds observed (each consumed one retry attempt).
        self.sheds_seen = 0
        self._connect()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        self._teardown()
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._socket_path)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        self._socket = sock
        self._stream = sock.makefile("rwb")

    def _teardown(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def request(
        self,
        op: str,
        *,
        deadline: Optional[float] = None,
        idempotent: Optional[bool] = None,
        **fields: object,
    ) -> Dict[str, object]:
        """Send one request and return its (id-matched) response.

        Retries transparently — reconnecting as needed — on connection
        failures and ``busy`` responses, within ``max_retries`` and the
        request's ``deadline``.  ``idempotent`` overrides the built-in
        classification (mutations with an ``idem`` key and steps with an
        ``expect`` count are idempotent; a bare ``step``/``mutate`` is
        not, and is only retried when the failure provably happened
        before the request reached the server).

        Raises :class:`ValidationError` when the server answers with
        ``ok`` false (after retries, for retryable codes), carrying the
        server's error message; :class:`RetryBudgetExceeded` when the
        attempts ran out.
        """
        if idempotent is None:
            if op == "mutate":
                idempotent = "idem" in fields
            elif op == "step":
                idempotent = "expect" in fields
            else:
                idempotent = True
        started = time.monotonic()
        budget = self.deadline if deadline is None else deadline
        attempt = 0
        last_error: Optional[Exception] = None
        while True:
            sent = False
            try:
                if self._stream is None:
                    self._connect()
                reply = self._exchange(op, fields)
                sent = True
                code = reply.get("error")
                if not reply.get("ok") and code in RETRYABLE_CODES:
                    self.sheds_seen += 1
                    raise _Retryable(f"{code}: {reply.get('message', '')}")
                if not reply.get("ok"):
                    raise ValidationError(
                        f"{reply.get('error', 'error')}: {reply.get('message', '')}"
                    )
                return reply
            except _Retryable as error:
                last_error = ValidationError(str(error))
            except (
                ConnectionError,
                BrokenPipeError,
                socket.timeout,
                OSError,
                ValidationError,
            ) as error:
                if isinstance(error, (RetryBudgetExceeded,)):
                    raise
                transport = not isinstance(error, ValidationError) or (
                    "closed the connection" in str(error)
                )
                if not transport:
                    raise
                self._teardown()
                # A non-idempotent request that may have reached the
                # server must not be resent: the first attempt could
                # have applied.  ``sent`` is False only when the
                # failure happened before the response wait began —
                # but a write that "succeeded" into a dead socket can
                # still have been delivered, so anything past connect
                # is treated as possibly-received.
                if not idempotent and self._attempt_reached_server(error, sent):
                    raise ValidationError(
                        f"{op} failed mid-flight and is not idempotent "
                        f"(add an idem key / expect count to retry safely): "
                        f"{error}"
                    )
                last_error = error
            if attempt >= self.max_retries:
                raise RetryBudgetExceeded(
                    f"{op} failed after {attempt + 1} attempt(s): {last_error}"
                )
            delay = backoff_delay(attempt, rng=self._rng)
            if budget is not None:
                elapsed = time.monotonic() - started
                if elapsed + delay > budget:
                    raise RetryBudgetExceeded(
                        f"{op} exceeded its {budget:.3f}s deadline after "
                        f"{attempt + 1} attempt(s): {last_error}"
                    )
            attempt += 1
            self.retried += 1 if attempt == 1 else 0
            time.sleep(delay)

    @staticmethod
    def _attempt_reached_server(error: Exception, sent: bool) -> bool:
        """Could the failed attempt have been processed server-side?

        Connect-phase refusals (``ConnectionRefusedError``,
        ``FileNotFoundError`` for a unix socket that is not there)
        provably never delivered the request; everything later might
        have.
        """
        if isinstance(error, (ConnectionRefusedError, FileNotFoundError)):
            return False
        return True

    def _exchange(self, op: str, fields: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request_id = self._next_id
        self._stream.write(encode_request({"op": op, "id": request_id, **fields}))
        self._stream.flush()
        while True:
            reply = self._read_message()
            if "event" in reply and "id" not in reply:
                self.events.append(reply)
                continue
            if reply.get("id") != request_id:
                continue
            return reply

    def _read_message(self) -> Dict[str, object]:
        line = self._stream.readline()
        if not line:
            raise ValidationError("server closed the connection")
        return decode_reply(line)

    # ------------------------------------------------------------------ #
    # Protocol helpers
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        src: int,
        dst: int,
        *,
        engine: Optional[str] = None,
        path: bool = False,
    ) -> Dict[str, object]:
        fields: Dict[str, object] = {"src": src, "dst": dst}
        if engine is not None:
            fields["engine"] = engine
        if path:
            fields["path"] = True
        return self.request("lookup", **fields)

    def lookup_batch(
        self, pairs: Iterable[Sequence[int]], *, engine: Optional[str] = None
    ) -> Dict[str, object]:
        # JSON encodes tuples as arrays already; any other iterable (a
        # generator, a NumPy ``(k, 2)`` array) is materialised as nested
        # Python ints, which JSON can encode and NumPy rows it cannot.
        if not isinstance(pairs, (list, tuple)):
            pairs = [[int(src), int(dst)] for src, dst in pairs]
        fields: Dict[str, object] = {"pairs": pairs}
        if engine is not None:
            fields["engine"] = engine
        return self.request("lookup_batch", **fields)

    def mutate(
        self, mutation: Dict[str, object], *, idem: Optional[str] = None
    ) -> Dict[str, object]:
        """Apply one mutation, exactly once.

        An idempotency key is generated when the caller does not supply
        one, so every mutation sent through this helper is safely
        retryable by default (pass ``idem=""``-like sentinels never;
        use ``request("mutate", mutation=...)`` for the raw op).
        """
        if idem is None:
            idem = f"{os.getpid():x}-{uuid.uuid4().hex}"
        return self.request("mutate", mutation=mutation, idem=idem)

    def step(self, *, expect: Optional[int] = None) -> Dict[str, object]:
        """Advance one epoch.

        With ``expect`` (the epoch count the client believes committed)
        the request is idempotent: a retry after a lost ack returns the
        committed epoch's digest instead of advancing twice.
        """
        fields: Dict[str, object] = {}
        if expect is not None:
            fields["expect"] = int(expect)
        return self.request("step", **fields)

    def subscribe(self) -> Dict[str, object]:
        return self.request("subscribe")

    def snapshot(self) -> Dict[str, object]:
        return self.request("snapshot")

    def stats(self) -> Dict[str, object]:
        return self.request("stats")

    def shutdown(self) -> Dict[str, object]:
        # Retrying shutdown against a connection the dying server just
        # closed turns a clean stop into an error; fail fast instead.
        return self.request("shutdown", idempotent=False)

    def next_event(self) -> Dict[str, object]:
        """The next subscription event (buffered, else read from the wire)."""
        if self.events:
            return self.events.pop(0)
        while True:
            reply = self._read_message()
            if "event" in reply and "id" not in reply:
                return reply

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Retryable(Exception):
    """Internal marker: the server answered with a retryable code."""


__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "DEFAULT_MAX_RETRIES",
    "RETRYABLE_CODES",
    "RetryBudgetExceeded",
    "ServeClient",
    "backoff_delay",
]
