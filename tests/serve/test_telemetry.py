"""Serve-layer observability: drop accounting, the metrics op, Prometheus."""

from __future__ import annotations

import asyncio
import json
import os
import socket
import tempfile
import threading
import time

import pytest

from repro.scenario.spec import ScenarioSpec
from repro.serve.server import SUBSCRIBER_QUEUE_LIMIT, OverlayServer
from repro.serve.service import OverlayService
from repro.telemetry import runtime as telemetry


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    yield
    telemetry.disable()


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


def _request(server: OverlayServer, **request) -> dict:
    """Drive one request through the synchronous dispatch path."""
    message, _subscribe, _shutdown = server._dispatch(
        json.dumps(request).encode(), 0
    )
    return message


class TestDropAccounting:
    def _full_queue(self, server: OverlayServer, connection: int = 0):
        queue: asyncio.Queue = asyncio.Queue()
        for i in range(SUBSCRIBER_QUEUE_LIMIT):
            server._enqueue(connection, queue, {"event": "epoch", "epoch": i})
        return queue

    def test_drop_oldest_counts_per_connection(self):
        server = OverlayServer(object())
        queue = self._full_queue(server, connection=0)
        assert server._dropped_events == 0
        server._enqueue(0, queue, {"event": "epoch", "epoch": 999})
        server._enqueue(0, queue, {"event": "epoch", "epoch": 1000})
        assert queue.qsize() == SUBSCRIBER_QUEUE_LIMIT
        assert server._dropped_events == 2
        stats = server._subscriber_stats()
        assert stats["dropped_events"] == 2
        assert stats["dropped_by_connection"] == {"0": 2}
        assert stats["max_depth"] == SUBSCRIBER_QUEUE_LIMIT
        assert stats["queue_limit"] == SUBSCRIBER_QUEUE_LIMIT
        # The oldest events went first: the queue now starts at epoch 2.
        assert queue.get_nowait()["epoch"] == 2

    def test_drops_counted_into_registry(self):
        telemetry.enable()
        server = OverlayServer(object())
        queue = self._full_queue(server)
        server._enqueue(0, queue, {"event": "epoch", "epoch": 999})
        counters = telemetry.metrics().snapshot()["counters"]
        assert counters["serve.subscribers.dropped"] == 1


class TestStatsAndMetricsOps:
    def test_stats_carries_subscriber_block(self):
        server = OverlayServer(OverlayService(_spec()))
        server.service.tick()
        reply = _request(server, op="stats", id=7)
        assert reply["ok"] is True and reply["id"] == 7
        assert reply["subscribers"]["dropped_events"] == 0
        assert reply["subscribers"]["queue_limit"] == SUBSCRIBER_QUEUE_LIMIT

    def test_metrics_op_is_a_stats_superset(self):
        telemetry.enable()
        server = OverlayServer(OverlayService(_spec()))
        server.service.tick()
        _request(server, op="lookup", src=0, dst=5)
        stats = _request(server, op="stats")
        reply = _request(server, op="metrics")
        for key in stats:
            assert key in reply
        snapshot = reply["metrics"]
        # Service counters are folded in at snapshot time.
        assert snapshot["counters"]["serve.lookups"] == 1.0
        assert snapshot["counters"]["serve.epochs"] == 1.0

    def test_metrics_op_without_registry_reports_none(self):
        server = OverlayServer(OverlayService(_spec()))
        server.service.tick()
        reply = _request(server, op="metrics")
        assert reply["ok"] is True
        assert reply["metrics"] is None

    def test_encoded_counts_tokens_built_once_per_epoch(self):
        telemetry.enable()
        service = OverlayService(_spec())
        try:
            service.tick()
            frame = [[0, 5], [1, 7], [0, 5], [2, 3]]  # three distinct cells

            def encoded() -> float:
                counters = telemetry.metrics().snapshot()["counters"]
                return counters.get("serve.lookup_batch.encoded", 0)

            service.lookup_batch(frame)
            assert encoded() == 3
            service.lookup_batch(frame)  # every token already built
            service.lookup_batch([[1, 7], [4, 2]])  # one new cell
            assert encoded() == 4
            service.tick()  # a new view builds its own tokens
            service.lookup_batch(frame)
            assert encoded() == 7
            # The reuse share: 1 - encoded / lookups.
            assert service.counters["lookups"] == 14
        finally:
            service.close()

    def test_request_latency_histogram_per_op(self):
        telemetry.enable()
        server = OverlayServer(OverlayService(_spec()))
        server.service.tick()
        _request(server, op="stats")
        _request(server, op="lookup", src=0, dst=5)
        server._dispatch(b"not json", 0)
        histograms = telemetry.metrics().snapshot()["histograms"]
        assert histograms["serve.request.stats"]["count"] == 1
        assert histograms["serve.request.lookup"]["count"] == 1
        assert histograms["serve.request.invalid"]["count"] == 1


class TestCrashSafetyTelemetry:
    """Recovery, dedupe, and shed events land exactly once in the registry.

    The service reports its plain-int counters through the snapshot-time
    collector, so none of these paths may *also* call
    ``telemetry.count`` under the same name — that would double every
    value the moment someone scrapes ``/metrics``.
    """

    def _crashed_chain(self, tmp_path, *, epochs: int = 5):
        """A log + checkpoint dir abandoned mid-flight, SIGKILL-style."""
        log = str(tmp_path / "serve.jsonl")
        ckpt = str(tmp_path / "checkpoints")
        service = OverlayService(
            _spec(), log_path=log, checkpoint_dir=ckpt, checkpoint_every=2
        )
        for _ in range(epochs):
            service.tick()
        service.durable.log.close()
        service.durable.log = None
        service.closed = True
        return log, ckpt

    def test_recovery_counts_once_across_registry_views(self, tmp_path):
        log, ckpt = self._crashed_chain(tmp_path)
        telemetry.enable()
        service = OverlayService.recover(
            log, checkpoint_dir=ckpt, checkpoint_every=2
        )
        try:
            counters = telemetry.metrics().snapshot()["counters"]
            assert counters["serve.recoveries"] == 1.0
            text = telemetry.metrics().render_prometheus()
            assert "repro_serve_recoveries 1.0" in text
        finally:
            service.close()

    def test_recovery_emits_a_span(self, tmp_path):
        log, ckpt = self._crashed_chain(tmp_path)
        sink: list = []
        telemetry.enable(trace=sink)
        service = OverlayService.recover(
            log, checkpoint_dir=ckpt, checkpoint_every=2
        )
        service.close()
        spans = [e["name"] for e in sink if e.get("kind") == "span"]
        assert "serve.recovery" in spans

    def test_checkpoint_counter_is_single_counted(self, tmp_path):
        telemetry.enable()
        service = OverlayService(
            _spec(),
            log_path=str(tmp_path / "serve.jsonl"),
            checkpoint_dir=str(tmp_path / "checkpoints"),
            checkpoint_every=1,
        )
        try:
            service.tick()
            service.tick()
            counters = telemetry.metrics().snapshot()["counters"]
            assert counters["serve.checkpoints"] == 2.0
        finally:
            service.close()

    def test_dedupe_hits_count_retries_and_their_kind(self):
        telemetry.enable()
        service = OverlayService(_spec())
        try:
            service.tick()
            service.mutate({"kind": "drift", "steps": 1}, idem="retry-1")
            service.mutate({"kind": "drift", "steps": 1}, idem="retry-1")
            service.step(expect=1)
            service.step(expect=1)  # the retransmitted step
            counters = telemetry.metrics().snapshot()["counters"]
            # One mutate replay + one step replay: both fold into the
            # service's ``retries`` counter, each tagged by kind.
            assert counters["serve.retries"] == 2.0
            assert counters["serve.mutate.deduplicated"] == 1
            assert counters["serve.step.deduplicated"] == 1
        finally:
            service.close()

    def test_shed_is_single_counted_and_in_admission_stats(self):
        """Admission through the wire: a client that pipelines frames and
        reads nothing is held; while it is, another client is shed."""
        telemetry.enable()
        service = OverlayService(_spec())
        service.tick()
        server = OverlayServer(service, queue_limit=1)
        sock = os.path.join(tempfile.mkdtemp(prefix="serve-", dir="/tmp"), "ovl.sock")
        ready = threading.Event()

        async def serve():
            await server.start(socket_path=sock)
            ready.set()
            await server.serve_until_shutdown()

        thread = threading.Thread(target=asyncio.run, args=(serve(),), daemon=True)
        thread.start()
        assert ready.wait(timeout=30)
        pairs = [[s, d] for s in range(12) for d in range(12) if s != d] * 16
        lookup = b'{"op": "lookup", "src": 0, "dst": 5, "id": 9}\n'
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as holder, socket.socket(
            socket.AF_UNIX, socket.SOCK_STREAM
        ) as other:
            for raw in (holder, other):
                raw.settimeout(10)
                raw.connect(sock)
            sent = 0
            deadline = time.monotonic() + 30
            while server._admission_stats()["depth"] == 0:
                assert time.monotonic() < deadline, "the pipelining client was never held"
                holder.sendall(
                    json.dumps({"op": "lookup_batch", "pairs": pairs, "id": sent}).encode()
                    + b"\n"
                )
                sent += 1
                time.sleep(0.02)
            other.sendall(lookup)
            busy = json.loads(other.makefile("rb").readline())
            assert busy["ok"] is False and busy["error"] == "busy"
            assert busy["id"] == 9
            counters = telemetry.metrics().snapshot()["counters"]
            assert counters["serve.shed"] == 1.0
            admission = server._admission_stats()
            assert (admission["depth"], admission["shed"]) == (1, 1)

            replies = holder.makefile("rb")
            answered = [json.loads(replies.readline()) for _ in range(sent)]
            assert [(r["ok"], r["id"]) for r in answered] == [(True, i) for i in range(sent)]
            other.sendall(lookup)
            served = json.loads(other.makefile("rb").readline())
            assert (served["ok"], served["id"]) == (True, 9)
            admission = server._admission_stats()
            assert (admission["depth"], admission["max_depth"]) == (0, 1)
            other.sendall(b'{"op": "shutdown"}\n')
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_stats_op_reports_recovery_and_retry_counters(self, tmp_path):
        log, ckpt = self._crashed_chain(tmp_path)
        service = OverlayService.recover(
            log, checkpoint_dir=ckpt, checkpoint_every=2
        )
        server = OverlayServer(service)
        try:
            service.mutate({"kind": "drift", "steps": 1}, idem="r-1")
            service.mutate({"kind": "drift", "steps": 1}, idem="r-1")
            reply = _request(server, op="stats")
            assert reply["counters"]["recoveries"] == 1
            assert reply["counters"]["retries"] == 1
            assert reply["recovery"]["bounded"] is True
            assert reply["recovery"]["replayed_epochs"] <= 2
        finally:
            service.close()


class TestMetricsPort:
    def test_prometheus_text_over_http(self):
        telemetry.enable()
        telemetry.metrics().counter("engine.epochs").inc(3)
        server = OverlayServer(object())

        async def fetch() -> bytes:
            address = await server.start_metrics(port=0)
            host, port = address.rsplit(":", 1)
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            payload = await reader.read()
            writer.close()
            server._metrics_server.close()
            await server._metrics_server.wait_closed()
            return payload

        payload = asyncio.run(fetch())
        text = payload.decode()
        assert text.startswith("HTTP/1.1 200 OK")
        assert "Content-Type: text/plain" in text
        assert "repro_engine_epochs 3" in text
