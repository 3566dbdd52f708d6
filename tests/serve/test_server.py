"""The asyncio transport, driven through the blocking client."""

import json
import os
import socket
import tempfile

import pytest

from repro.scenario.spec import ScenarioSpec
from repro.serve.client import ServeClient
from repro.serve.server import start_background_server
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


@pytest.fixture
def served():
    """A served overlay on a unix socket: ``(socket path, service)``."""
    # Unix socket paths are length-limited (~104 bytes): mkdtemp in /tmp.
    sock = os.path.join(tempfile.mkdtemp(prefix="serve-", dir="/tmp"), "ovl.sock")
    service = OverlayService(_spec())
    service.tick()
    thread = start_background_server(service, socket_path=sock)
    yield sock, service
    if not service.closed:
        try:
            with ServeClient(socket_path=sock, timeout=5) as client:
                client.shutdown()
        except (ValidationError, OSError):
            pass
    thread.join(timeout=10)
    assert not thread.is_alive()


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
            assert "hit_rate" in event["cache"]

    def test_requests_still_answered_while_subscribed(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            client.subscribe()
            client.step()
            reply = client.lookup(0, 5)
            assert reply["ok"] is True
            # The pushed epoch event was buffered aside, not dropped.
            assert client.next_event()["event"] == "epoch"


class TestShutdown:
    def test_shutdown_closes_the_service(self, endpoint):
        with ServeClient(socket_path=endpoint) as client:
            assert client.shutdown()["shutting_down"] is True
        with pytest.raises((ValidationError, OSError)):
            fresh = ServeClient(socket_path=endpoint, timeout=5)
            try:
                fresh.lookup(0, 5)
            finally:
                fresh.close()
