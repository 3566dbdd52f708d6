"""The asyncio transport, driven through the blocking client."""

import json
import os
import socket
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.scenario.spec import ScenarioSpec
from repro.serve.client import ServeClient
from repro.serve.load import run_load
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import SUBSCRIBER_QUEUE_LIMIT, run_server
from repro.serve.service import OverlayService
from repro.util.validation import ValidationError


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        experiment="live-overlay",
        n=12,
        k_grid=(3,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=2,
        seed=13,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _start_background_server(service, socket_path):
    """Run a server on a daemon thread; returns once it is accepting.  The
    thread exits when a client sends ``shutdown``."""
    ready = threading.Event()
    thread = threading.Thread(
        target=run_server,
        args=(service,),
        kwargs=dict(socket_path=socket_path, ready=ready),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30), "overlay server failed to start within 30s"
    return thread


@pytest.fixture
def serving():
    """A served overlay on a unix socket: ``(socket path, service, the
    server's thread)``."""
    # Unix socket paths are length-limited (~104 bytes): mkdtemp in /tmp.
    sock = os.path.join(tempfile.mkdtemp(prefix="serve-", dir="/tmp"), "ovl.sock")
    service = OverlayService(_spec())
    service.tick()
    thread = _start_background_server(service, socket_path=sock)
    yield sock, service, thread
    if not service.closed:
        try:
            with ServeClient(socket_path=sock, timeout=5) as client:
                client.shutdown()
        except (ValidationError, OSError):
            pass
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def served(serving):
    """``(socket path, service)`` of :func:`serving`."""
    return serving[:2]


@pytest.fixture
def endpoint(served):
    return served[0]


class TestRequestResponse:
    def test_lookup_over_the_wire(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            reply = client.lookup(0, 5)
            assert reply["ok"] is True
            assert reply["reachable"] is True
            assert reply["epoch"] == 0

    def test_lookup_batch_and_stats(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            reply = client.lookup_batch([(0, 5), (1, 7), (2, 3)])
            assert len(reply["values"]) == 3
            stats = client.stats()
            assert stats["counters"]["lookups"] == 3

    def test_lookup_batch_accepts_arrays_and_generators(self, endpoint):
        pairs = [(0, 5), (1, 7), (2, 3), (0, 5), (11, 4)]
        with ServeClient(socket_path=endpoint) as client:
            expected = client.lookup_batch([list(pair) for pair in pairs])["values"]
            array = np.array(pairs, dtype=np.int64)
            assert array.shape == (len(pairs), 2)
            assert client.lookup_batch(array)["values"] == expected
            assert client.lookup_batch(pair for pair in pairs)["values"] == expected
            assert client.lookup_batch(tuple(pairs))["values"] == expected

    def test_snapshot_names_the_deployments(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            snapshot = client.snapshot()
            assert snapshot["protocol"] == 1
            assert snapshot["scenario"]["n"] == 12
            (deployment,) = snapshot["deployments"]
            assert deployment["label"] == "best-response@k=3"

    def test_mutate_then_step_commits(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            reply = client.mutate({"kind": "leave", "nodes": [4]})
            assert reply["applied_epoch"] == 1
            step = client.step()
            assert step["epoch"] == 1
            lookup = client.lookup(0, 4)
            assert lookup["reachable"] is False

    def test_concurrent_clients_share_the_overlay(self, endpoint):
        with ServeClient(socket_path=endpoint) as a, ServeClient(
            socket_path=endpoint
        ) as b:
            va = a.lookup(0, 5)
            vb = b.lookup(0, 5)
            assert va["value"] == vb["value"]
            assert va["version"] == vb["version"]


class TestTcpListener:
    def test_lookup_and_shutdown_over_tcp(self):
        service = OverlayService(_spec())
        service.tick()
        ready = threading.Event()
        addresses = []
        thread = threading.Thread(
            target=run_server,
            args=(service,),
            kwargs=dict(port=0, ready=ready, announce=addresses.append),
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        host, port = addresses[0].rsplit(":", 1)
        with ServeClient(host=host, port=int(port), timeout=10) as client:
            assert client.lookup(0, 5)["ok"] is True
            assert client.shutdown()["shutting_down"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestMalformedRequests:
    def _raw(self, endpoint, payload: bytes):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10)
            raw.connect(endpoint)
            raw.sendall(payload)
            return json.loads(raw.makefile("rb").readline())

    def test_bad_json_gets_an_error_line(self, endpoint):
        reply = self._raw(endpoint, b"{nope\n")
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"

    def test_unknown_op_gets_an_error_line(self, endpoint):
        reply = self._raw(endpoint, b'{"op": "teleport", "id": 3}\n')
        assert reply["ok"] is False
        assert reply["id"] == 3

    def test_invalid_lookup_arguments(self, endpoint):
        reply = self._raw(endpoint, b'{"op": "lookup", "src": 0, "dst": 0}\n')
        assert reply["ok"] is False
        assert reply["error"] == "bad-request"

    def test_error_keeps_the_connection_usable(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            with pytest.raises(ValidationError):
                client.lookup(0, 99)
            assert client.lookup(0, 5)["ok"] is True


class TestWorkerSurvives:
    """One request must never take the single request worker down."""

    def _raw_lines(self, endpoint, payload: bytes, count: int):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10)
            raw.connect(endpoint)
            raw.sendall(payload)
            reader = raw.makefile("rb")
            return [json.loads(reader.readline()) for _ in range(count)]

    def test_infinite_id_is_a_bad_request_and_serving_continues(self, endpoint):
        # JSON 1e999 / Infinity parse to float inf, which int() refuses
        # with OverflowError rather than ValueError.
        poisoned = (
            b'{"op": "lookup", "src": 1e999, "dst": 2, "id": 1}\n'
            b'{"op": "lookup_batch", "pairs": [[0, 1], [Infinity, 2]], "id": 2}\n'
            b'{"op": "step", "expect": 1e999, "id": 3}\n'
            b'{"op": "mutate", "mutation": {"kind": "leave", "nodes": [1e999]}, "id": 4}\n'
            b'{"op": "lookup", "src": 0, "dst": 5, "id": 5}\n'
        )
        replies = self._raw_lines(endpoint, poisoned, 5)
        assert [reply["id"] for reply in replies] == [1, 2, 3, 4, 5]
        for reply in replies[:4]:
            assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert replies[4]["ok"] is True
        # ... and a second connection is served too.
        with ServeClient(socket_path=endpoint, timeout=10) as client:
            assert client.lookup(0, 5)["ok"] is True
            assert client.stats()["counters"]["internal_errors"] == 0

    def test_unexpected_handler_exception_answers_internal(
        self, served, monkeypatch, capsys
    ):
        endpoint, service = served

        def explode(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(service, "snapshot", explode)
        (reply,) = self._raw_lines(endpoint, b'{"op": "snapshot", "id": "s"}\n', 1)
        assert reply == {
            "ok": False,
            "id": "s",
            "error": "internal",
            "message": "RuntimeError: injected",
        }
        with ServeClient(socket_path=endpoint, timeout=10) as client:
            assert client.lookup(0, 5)["ok"] is True
            assert client.stats()["counters"]["internal_errors"] == 1
        assert "RuntimeError: injected" in capsys.readouterr().err


class TestServingSurvivesDeepNesting:
    """A deeply nested line is one bad request, not a dead server."""

    def test_deep_lines_are_bad_requests_and_serving_continues(self, endpoint):
        depth = 100_000
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10)
            raw.connect(endpoint)
            raw.sendall(b"[" * depth + b"\n")
            raw.sendall(b"[" * depth + b"]" * depth + b"\n")
            raw.sendall(b'{"op": "lookup", "src": 0, "dst": 5, "id": 9}\n')
            reader = raw.makefile("rb")
            replies = [json.loads(reader.readline()) for _ in range(3)]
        for reply in replies[:2]:
            assert (reply["ok"], reply["error"]) == (False, "bad-request")
        assert (replies[2]["ok"], replies[2]["id"]) == (True, 9)
        with ServeClient(socket_path=endpoint, timeout=10) as client:
            assert client.lookup(0, 5)["ok"] is True
            assert client.stats()["counters"]["internal_errors"] == 0


class TestSubscribe:
    def test_events_stream_to_subscribers(self, endpoint):
        with ServeClient(socket_path=endpoint) as subscriber, ServeClient(
            socket_path=endpoint
        ) as driver:
            assert subscriber.subscribe()["subscribed"] is True
            driver.step()
            event = subscriber.next_event()
            assert event["event"] == "epoch"
            assert event["epoch"] == 1
            assert "digest" in event
            (record,) = event["records"].values()
            assert record["schema"] == 1

    def test_requests_still_answered_while_subscribed(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            client.subscribe()
            client.step()
            reply = client.lookup(0, 5)
            assert reply["ok"] is True
            # The pushed epoch event was buffered aside, not dropped.
            assert client.next_event()["event"] == "epoch"

    def test_closed_subscriber_leaves_the_stream(self, served):
        sock, service = served
        with ServeClient(socket_path=sock) as subscriber:
            subscriber.subscribe()
        with ServeClient(socket_path=sock) as driver:
            deadline = time.monotonic() + 10
            while driver.stats()["subscribers"]["count"] and time.monotonic() < deadline:
                time.sleep(0.01)
            for _ in range(SUBSCRIBER_QUEUE_LIMIT + 5):
                driver.step()
            subscribers = driver.stats()["subscribers"]
        assert (subscribers["count"], subscribers["dropped_events"]) == (0, 0)
        assert service._subscribers == []


class TestLoadGenerator:
    """``run_load``, the engine of ``repro serve-load``, end to end."""

    LOOKUPS = 3_000

    def test_multipath_load_spans_a_leave(self, endpoint):
        report = run_load(
            socket_path=endpoint,
            model="multipath",
            lookups=self.LOOKUPS,
            batch_size=256,
            seed=2008,
            mutate={"kind": "leave", "nodes": [5]},
        )
        assert report.errors == 0
        assert report.lookups == self.LOOKUPS
        assert report.mutations == 1
        # The leave committed with a step half-way: the last frames read
        # the next epoch, where node 5 is unreachable.
        assert report.epoch == 1
        assert report.unreachable > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms


class TestShutdown:
    def test_shutdown_with_idle_and_subscribed_connections_open(self, serving):
        sock, _service, thread = serving
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as idle, ServeClient(
            socket_path=sock
        ) as subscriber:
            idle.connect(sock)
            subscriber.subscribe()
            with ServeClient(socket_path=sock) as client:
                assert client.shutdown()["shutting_down"] is True
            thread.join(timeout=10)
            assert not thread.is_alive(), "the server did not exit with clients connected"

    def test_shutdown_closes_the_service(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            assert client.shutdown()["shutting_down"] is True
        with pytest.raises((ValidationError, OSError)):
            fresh = ServeClient(socket_path=endpoint, timeout=5)
            try:
                fresh.lookup(0, 5)
            finally:
                fresh.close()


class TestFraming:
    """How the server cuts the byte stream into request lines: a line is
    answered once its newline (or the peer's end of stream) arrives,
    in the order the lines were sent, whatever the send boundaries."""

    def _connect(self, endpoint):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(endpoint)
        return raw

    @staticmethod
    def _lookup(request_id) -> bytes:
        return b'{"op": "lookup", "src": 0, "dst": 5, "id": %d}\n' % request_id

    def test_a_request_split_across_two_sends(self, endpoint):
        line = self._lookup(1)
        with self._connect(endpoint) as raw:
            raw.sendall(line[:10])
            time.sleep(0.05)
            raw.sendall(line[10:])
            reply = json.loads(raw.makefile("rb").readline())
        assert (reply["ok"], reply["id"]) == (True, 1)

    def test_three_lines_in_one_send_are_answered_in_order(self, endpoint):
        with self._connect(endpoint) as raw:
            raw.sendall(self._lookup(1) + self._lookup(2) + self._lookup(3))
            reader = raw.makefile("rb")
            replies = [json.loads(reader.readline()) for _ in range(3)]
        assert [(reply["ok"], reply["id"]) for reply in replies] == [
            (True, 1), (True, 2), (True, 3)
        ]

    def test_blank_lines_are_skipped(self, endpoint):
        with self._connect(endpoint) as raw:
            raw.sendall(b"\n  \t\n" + self._lookup(7) + b"\r\n\n" + self._lookup(8))
            raw.shutdown(socket.SHUT_WR)
            lines = raw.makefile("rb").read().splitlines()
        assert [json.loads(line)["id"] for line in lines] == [7, 8]

    def test_an_oversized_line_is_refused_and_the_connection_closed(self, endpoint):
        with self._connect(endpoint) as raw:
            try:
                raw.sendall(b"x" * (MAX_LINE_BYTES + 1) + b"\n" + self._lookup(2))
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server may close before it read everything
            lines = raw.makefile("rb").read().splitlines()
        assert len(lines) == 1
        reply = json.loads(lines[0])
        assert (reply["ok"], reply["error"]) == (False, "too-large")
        with ServeClient(socket_path=endpoint, timeout=10) as client:
            assert client.lookup(0, 5)["ok"] is True

    def test_a_last_line_without_newline_is_answered_at_end_of_stream(self, endpoint):
        with self._connect(endpoint) as raw:
            raw.sendall(self._lookup(1) + self._lookup(4).rstrip(b"\n"))
            raw.shutdown(socket.SHUT_WR)
            lines = raw.makefile("rb").read().splitlines()
        assert [json.loads(line)["id"] for line in lines] == [1, 4]
