"""Client-side robustness: backoff, busy retries, idempotency classification.

A scripted unix-socket server answers each request from a fixed action
list (``ok`` / ``busy`` / ``drop`` the connection), so every retry path
is exercised deterministically — no timing races, no real overlay.
"""

from __future__ import annotations

import json
import os
import random
import socket
import tempfile
import threading

import numpy as np
import pytest

from repro.serve.client import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    RetryBudgetExceeded,
    ServeClient,
    backoff_delay,
)
from repro.util.validation import ValidationError


class TestBackoff:
    def test_delay_is_bounded_by_the_envelope(self):
        rng = random.Random(0)
        for attempt in range(12):
            envelope = min(BACKOFF_CAP, BACKOFF_BASE * 2.0**attempt)
            for _ in range(20):
                delay = backoff_delay(attempt, rng=rng)
                assert 0.0 <= delay <= envelope

    def test_envelope_doubles_then_caps(self):
        # Full jitter: the *maximum* delay doubles per attempt until the cap.
        rng = random.Random(1)
        maxima = []
        for attempt in range(10):
            maxima.append(max(backoff_delay(attempt, rng=rng) for _ in range(400)))
        assert maxima[1] > maxima[0]
        assert all(m <= BACKOFF_CAP for m in maxima)
        assert maxima[-1] > BACKOFF_CAP * 0.8  # the cap is actually reachable

    def test_jitter_is_seedable(self):
        a = [backoff_delay(n, rng=random.Random(7)) for n in range(5)]
        b = [backoff_delay(n, rng=random.Random(7)) for n in range(5)]
        assert a == b


class _ScriptedServer:
    """A protocol-shaped unix-socket server driven by an action list.

    Actions are consumed one per request: ``ok`` answers success,
    ``busy`` answers the retryable shed error, ``drop`` closes the
    connection without replying (a mid-flight failure).
    """

    def __init__(self, actions):
        self.actions = list(actions)
        self.requests = []
        self.lines = []
        directory = tempfile.mkdtemp(prefix="scripted-", dir="/tmp")
        self.path = os.path.join(directory, "s.sock")
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen(8)
        self._sock.settimeout(0.1)
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._closing:
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                # Close the reader explicitly on exit: it holds a reference
                # to the socket, and a "drop" must reach the client as an
                # immediate EOF, not a lingering open fd.
                with conn.makefile("rb") as reader:
                    self._converse(conn, reader)

    def _converse(self, conn, reader):
        while True:
            try:
                line = reader.readline()
            except (socket.timeout, OSError):
                return
            if not line:
                return
            request = json.loads(line)
            self.lines.append(line)
            self.requests.append(request)
            action = self.actions.pop(0) if self.actions else "ok"
            if action == "drop":
                return
            if action == "busy":
                reply = {
                    "ok": False,
                    "id": request.get("id"),
                    "error": "busy",
                    "message": "request queue is full",
                }
            else:
                reply = {
                    "ok": True,
                    "id": request.get("id"),
                    "op": request.get("op"),
                }
            conn.sendall((json.dumps(reply) + "\n").encode())

    def close(self):
        self._closing = True
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.fixture
def scripted():
    servers = []

    def factory(actions):
        server = _ScriptedServer(actions)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def _client(server, **overrides):
    options = dict(socket_path=server.path, timeout=5.0, retry_seed=3)
    options.update(overrides)
    return ServeClient(**options)


class TestRetries:
    def test_busy_is_retried_until_admitted(self, scripted):
        server = scripted(["busy", "busy", "ok"])
        with _client(server) as client:
            reply = client.request("stats")
            assert reply["ok"] is True
        assert client.sheds_seen == 2
        assert client.retried == 1
        assert [r["op"] for r in server.requests] == ["stats", "stats", "stats"]

    def test_dropped_connection_retries_idempotent_requests(self, scripted):
        server = scripted(["drop", "ok"])
        with _client(server) as client:
            reply = client.step(expect=0)
            assert reply["ok"] is True
        # Same request resent on a fresh connection, not re-composed.
        assert [r.get("expect") for r in server.requests] == [0, 0]

    def test_mid_flight_failure_refuses_non_idempotent_retry(self, scripted):
        server = scripted(["drop"])
        with _client(server) as client:
            with pytest.raises(ValidationError, match="not idempotent"):
                client.request("step")
        assert len(server.requests) == 1  # never resent

    def test_retry_budget_is_bounded(self, scripted):
        server = scripted(["busy"] * 3)
        with _client(server, max_retries=2) as client:
            with pytest.raises(RetryBudgetExceeded, match="after 3 attempt"):
                client.request("stats")
        assert client.sheds_seen == 3

    def test_deadline_stops_the_retry_loop(self, scripted):
        server = scripted(["busy"] * 50)
        with _client(server, max_retries=50) as client:
            with pytest.raises(RetryBudgetExceeded, match="deadline"):
                client.request("stats", deadline=0.05)

    def test_zero_retries_restores_fail_fast(self, scripted):
        server = scripted(["busy"])
        with _client(server, max_retries=0) as client:
            with pytest.raises(RetryBudgetExceeded):
                client.request("stats")


class TestIdempotencyClassification:
    def test_mutate_helper_always_carries_an_idem_key(self, scripted):
        server = scripted(["ok", "ok"])
        with _client(server) as client:
            client.mutate({"kind": "drift", "steps": 1})
            client.mutate({"kind": "drift", "steps": 1}, idem="mine")
        first, second = server.requests
        assert isinstance(first["idem"], str) and first["idem"]
        assert second["idem"] == "mine"
        assert first["idem"] != second["idem"]

    def test_bare_mutate_is_not_retried_mid_flight(self, scripted):
        server = scripted(["drop"])
        with _client(server) as client:
            with pytest.raises(ValidationError, match="idem"):
                client.request("mutate", mutation={"kind": "drift", "steps": 1})
        assert len(server.requests) == 1

    def test_mutate_with_idem_is_retried(self, scripted):
        server = scripted(["drop", "ok"])
        with _client(server) as client:
            reply = client.request(
                "mutate", mutation={"kind": "drift", "steps": 1}, idem="retry-me"
            )
            assert reply["ok"] is True
        assert [r["idem"] for r in server.requests] == ["retry-me", "retry-me"]

    def test_shutdown_fails_fast_on_a_dead_server(self, scripted):
        server = scripted(["drop"])
        with _client(server) as client:
            with pytest.raises(ValidationError):
                client.shutdown()
        assert len(server.requests) == 1


class TestRequestLines:
    """The bytes the client writes are compact ``json.dumps`` output."""

    def test_lines_are_byte_identical_to_the_stdlib_encoder(self, scripted):
        server = scripted([])
        with _client(server) as client:
            client.lookup(3, 17)
            client.lookup(3, 17, engine="best-response@k=3", path=True)
            client.lookup_batch([[0, 1], [2, 3]])
            client.lookup_batch(np.array([[4, 5], [6, 7]]))
            client.step()
            client.step(expect=4)
            client.mutate({"kind": "leave", "nodes": [5]}, idem="bench-7-0")
            client.mutate({"kind": "drift", "steps": 1}, idem="bench-7-2")
        expected = [
            {"op": "lookup", "id": 1, "src": 3, "dst": 17},
            {
                "op": "lookup",
                "id": 2,
                "src": 3,
                "dst": 17,
                "engine": "best-response@k=3",
                "path": True,
            },
            {"op": "lookup_batch", "id": 3, "pairs": [[0, 1], [2, 3]]},
            {"op": "lookup_batch", "id": 4, "pairs": [[4, 5], [6, 7]]},
            {"op": "step", "id": 5},
            {"op": "step", "id": 6, "expect": 4},
            {
                "op": "mutate",
                "id": 7,
                "mutation": {"kind": "leave", "nodes": [5]},
                "idem": "bench-7-0",
            },
            {
                "op": "mutate",
                "id": 8,
                "mutation": {"kind": "drift", "steps": 1},
                "idem": "bench-7-2",
            },
        ]
        assert server.lines == [
            (json.dumps(message, separators=(",", ":")) + "\n").encode()
            for message in expected
        ]

    def test_non_finite_floats_are_refused_before_sending(self, scripted):
        # orjson would write null, which the server reads as an omitted field.
        server = scripted([])
        with _client(server) as client:
            with pytest.raises(ValidationError, match="NaN"):
                client.request(
                    "mutate",
                    mutation={"kind": "drift", "steps": 1},
                    idem="x",
                    epoch=float("nan"),
                )
            assert client.stats()["ok"] is True
        assert [request["op"] for request in server.requests] == ["stats"]
