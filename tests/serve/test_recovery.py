"""Crash recovery: checkpoint restore, bounded replay, kill-at-random-epoch.

The in-process tests simulate a SIGKILL by abandoning a service without
``close()`` — every acknowledged entry is already fsynced, so the log on
disk is exactly what a killed process leaves behind (optionally with a
torn tail appended by hand).  One test kills a real server subprocess to
prove the same protocol holds end-to-end.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.failures import FailureSpec
from repro.scenario.spec import ScenarioSpec
from repro.serve.client import ServeClient
from repro.serve.replay import replay_log
from repro.serve.service import OverlayService, RecoveryError


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        experiment="live-overlay",
        n=16,
        k_grid=(3,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=3,
        br_rounds=2,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


#: Mutations applied when ``epochs_completed`` reaches the key, with the
#: idempotency key each is sent under.  Fixed so interrupted and
#: uninterrupted runs see the same inputs.
_MUTATIONS = {
    1: ({"kind": "drift", "steps": 2}, "idem-epoch-1"),
    3: ({"kind": "rewire", "nodes": [4]}, "idem-epoch-3"),
}

_TOTAL_EPOCHS = 6


def _drive(service: OverlayService, until: int) -> dict:
    """Advance to ``until`` completed epochs, applying the fixed plan."""
    digests = {}
    while service.session.epochs_completed < until:
        done = service.session.epochs_completed
        if done in _MUTATIONS:
            mutation, idem = _MUTATIONS[done]
            service.mutate(dict(mutation), idem=idem)
        payload = service.tick()
        digests[payload["epoch"]] = payload["digest"]
    return digests


def _crash(service: OverlayService) -> None:
    """Abandon the service the way SIGKILL would: no close entry, no seal."""
    service._log.close()
    service._log = None
    service.closed = True


def _reference_digests() -> dict:
    service = OverlayService(_spec())
    try:
        return _drive(service, _TOTAL_EPOCHS)
    finally:
        service.close()


@pytest.fixture(scope="module")
def reference():
    return _reference_digests()


def _crashed_service(tmp_path, *, epochs: int, checkpoint_every: int = 2):
    log = str(tmp_path / "serve.jsonl")
    ckpt = str(tmp_path / "checkpoints")
    service = OverlayService(
        _spec(),
        log_path=log,
        checkpoint_dir=ckpt,
        checkpoint_every=checkpoint_every,
    )
    digests = _drive(service, epochs)
    _crash(service)
    return log, ckpt, digests


class TestRecover:
    def test_recovery_restores_epochs_and_digests(self, tmp_path, reference):
        log, ckpt, digests = _crashed_service(tmp_path, epochs=5)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            assert service.session.epochs_completed == 5
            report = service.last_recovery
            assert report is not None
            assert report.checkpoint_epochs == 4
            assert report.replayed_epochs == 1
            assert report.bounded
            assert "bounded=yes" in report.summary()
            assert service.counters["recoveries"] == 1
            # The pre-crash digests match the uninterrupted reference ...
            assert digests == {e: reference[e] for e in digests}
            # ... and post-recovery epochs continue the same trajectory.
            resumed = _drive(service, _TOTAL_EPOCHS)
            assert resumed == {e: reference[e] for e in resumed}
        finally:
            service.close()

    def test_loss_stream_continues_through_a_checkpoint(self, tmp_path):
        """The link-state table and its loss RNG are checkpointed state.

        Loss never shows in a digest (decisions do not read the table),
        so this compares the protocol counters directly: epochs 5-6 run
        from the epoch-4 checkpoint, not from a log replay of the whole
        chain, and must draw the losses the uninterrupted run drew.
        """
        spec = _spec(failures=FailureSpec(message_loss=0.3))

        def counters(service):
            return [
                dataclasses.astuple(engine.protocol.stats)
                for engine in service.session.engines
            ]

        uninterrupted = OverlayService(spec)
        try:
            _drive(uninterrupted, _TOTAL_EPOCHS)
            expected = counters(uninterrupted)
        finally:
            uninterrupted.close()
        assert all(lost > 0 for *_, lost in expected)

        log = str(tmp_path / "serve.jsonl")
        ckpt = str(tmp_path / "checkpoints")
        service = OverlayService(
            spec, log_path=log, checkpoint_dir=ckpt, checkpoint_every=2
        )
        _drive(service, 4)
        _crash(service)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            assert service.last_recovery.checkpoint_epochs == 4
            assert service.last_recovery.replayed_epochs == 0
            _drive(service, _TOTAL_EPOCHS)
            assert counters(service) == expected
        finally:
            service.close()

    def test_lookups_straight_after_checkpoint_recovery(self, tmp_path):
        """The served matrix is checkpointed state: a service restored
        from a checkpoint answers before any new tick, with the
        uninterrupted run's values under the same stamp."""
        pairs = [[src, dst] for src in range(16) for dst in range(16) if src != dst]
        uninterrupted = OverlayService(_spec())
        try:
            _drive(uninterrupted, 4)
            expected = uninterrupted.lookup_batch(pairs)
        finally:
            uninterrupted.close()
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=4)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            assert service.last_recovery.checkpoint_epochs == 4
            assert service.last_recovery.replayed_epochs == 0
            assert service.lookup_batch(pairs) == expected
        finally:
            service.close()

    def test_schema_1_checkpoint_is_skipped_and_the_log_replayed(
        self, tmp_path, reference
    ):
        """A checkpoint written before the view carried the route matrix
        unpickles but could not answer a lookup; the schema bump routes
        it through the ordinary skip-and-replay path."""
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=5)
        for name in os.listdir(ckpt):
            path = os.path.join(ckpt, name)
            with open(path) as handle:
                envelope = json.load(handle)
            envelope["schema"] = 1
            with open(path, "w") as handle:
                json.dump(envelope, handle)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            report = service.last_recovery
            assert report.checkpoint is None
            assert any("schema 1" in reason for reason in report.skipped_checkpoints)
            assert service.session.epochs_completed == 5
            assert service.lookup(0, 5)["epoch"] == 4
            resumed = _drive(service, _TOTAL_EPOCHS)
            assert resumed == {e: reference[e] for e in resumed}
        finally:
            service.close()

    def test_recovery_without_checkpoints_replays_the_chain(self, tmp_path, reference):
        log = str(tmp_path / "serve.jsonl")
        service = OverlayService(_spec(), log_path=log)
        _drive(service, 3)
        _crash(service)
        recovered = OverlayService.recover(log)
        try:
            assert recovered.session.epochs_completed == 3
            assert recovered.last_recovery.checkpoint is None
            assert recovered.last_recovery.replayed_epochs == 3
            resumed = _drive(recovered, _TOTAL_EPOCHS)
            assert resumed == {e: reference[e] for e in resumed}
        finally:
            recovered.close()

    def test_torn_tail_is_preserved_and_truncated(self, tmp_path):
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=3)
        with open(log, "ab") as handle:
            handle.write(b'{"kind":"mutate","mutation":{"kind":"dri')
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            report = service.last_recovery
            assert report.torn_tail_bytes == 40
            assert report.sidecar is not None and os.path.exists(report.sidecar)
            assert service.session.epochs_completed == 3
        finally:
            service.close()

    def test_acked_mutation_survives_and_stays_exactly_once(self, tmp_path):
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=5)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            for done, (mutation, idem) in _MUTATIONS.items():
                ack = service.mutate(dict(mutation), idem=idem)
                assert ack["deduplicated"] is True
                assert ack["applied_epoch"] == done
            assert service.counters["retries"] == len(_MUTATIONS)
        finally:
            service.close()

    def test_step_retry_after_recovery_is_idempotent(self, tmp_path):
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=3)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        try:
            first = service.step(expect=3)
            again = service.step(expect=3)
            assert again["duplicate"] is True
            assert again["digest"] == first["digest"]
            assert service.session.epochs_completed == 4
        finally:
            service.close()

    def test_digest_divergence_is_a_hard_error(self, tmp_path):
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=5)
        with open(log) as handle:
            lines = handle.readlines()
        for index in range(len(lines) - 1, -1, -1):
            entry = json.loads(lines[index])
            if entry["kind"] == "epoch":
                entry["digest"] = "0" * 32
                lines[index] = json.dumps(entry) + "\n"
                break
        with open(log, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(RecoveryError, match="diverged"):
            OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)

    def test_recovered_log_chain_still_replays(self, tmp_path):
        log, ckpt, _digests = _crashed_service(tmp_path, epochs=5)
        service = OverlayService.recover(log, checkpoint_dir=ckpt, checkpoint_every=2)
        _drive(service, _TOTAL_EPOCHS)
        service.close()
        result = replay_log(log)
        assert result.ok
        assert result.epochs == _TOTAL_EPOCHS
        assert result.segments > 1


class TestKillAtRandomEpoch:
    """Property: whatever epoch the crash lands on — and whatever half-written

    bytes it leaves at the log tail — recovery restores the exact
    pre-crash state and the remaining epochs are byte-identical to an
    uninterrupted run.
    """

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        crash_after=st.integers(min_value=1, max_value=_TOTAL_EPOCHS - 1),
        torn_bytes=st.integers(min_value=0, max_value=24),
    )
    def test_recovery_is_byte_identical(self, reference, crash_after, torn_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "serve.jsonl")
            ckpt = os.path.join(tmp, "checkpoints")
            service = OverlayService(
                _spec(), log_path=log, checkpoint_dir=ckpt, checkpoint_every=2
            )
            pre = _drive(service, crash_after)
            _crash(service)
            if torn_bytes:
                with open(log, "ab") as handle:
                    handle.write(b'{"kind":"epoch","epoch":99,"di'[:torn_bytes])
            recovered = OverlayService.recover(
                log, checkpoint_dir=ckpt, checkpoint_every=2
            )
            try:
                report = recovered.last_recovery
                assert recovered.session.epochs_completed == crash_after
                assert report.bounded
                assert report.replayed_epochs <= 2
                if torn_bytes:
                    assert report.torn_tail_bytes == torn_bytes
                post = _drive(recovered, _TOTAL_EPOCHS)
                combined = {**pre, **post}
                assert combined == reference
                # Acked mutations stay exactly-once across the crash.
                for done, (mutation, idem) in _MUTATIONS.items():
                    if done < crash_after:
                        ack = recovered.mutate(dict(mutation), idem=idem)
                        assert ack == {
                            "applied_epoch": done,
                            "deduplicated": True,
                        }
            finally:
                recovered.close()


class TestRealSigkill:
    """One end-to-end crash: a real server process, a real SIGKILL."""

    def _spawn(self, spec_path, socket_path, log, ckpt, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(str(cwd), "src")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--spec",
                spec_path,
                "--socket",
                socket_path,
                "--log",
                log,
                "--checkpoint-dir",
                ckpt,
                "--checkpoint-every",
                "2",
                "--warmup-epochs",
                "0",
            ],
            cwd=str(cwd),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _connect(self, socket_path, deadline=30.0):
        start = time.monotonic()
        while True:
            try:
                return ServeClient(socket_path=socket_path, timeout=10.0)
            except Exception:
                if time.monotonic() - start > deadline:
                    raise
                time.sleep(0.1)

    def test_sigkill_then_restart_recovers(self, tmp_path):
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(_spec().to_dict(), handle)
        socket_path = str(tmp_path / "serve.sock")
        log = str(tmp_path / "serve.jsonl")
        ckpt = str(tmp_path / "checkpoints")

        server = self._spawn(spec_path, socket_path, log, ckpt, repo)
        try:
            client = self._connect(socket_path)
            digests = {}
            for epoch in range(3):
                reply = client.step(expect=epoch)
                digests[reply["epoch"]] = reply["digest"]
            ack = client.request("mutate", mutation={"kind": "drift", "steps": 1},
                                 idem="kill-test-1")
            assert ack["applied_epoch"] == 3
            client.close()
        finally:
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=30)

        restarted = self._spawn(spec_path, socket_path, log, ckpt, repo)
        try:
            client = self._connect(socket_path)
            # The acked mutation survived the SIGKILL exactly once.
            again = client.request(
                "mutate", mutation={"kind": "drift", "steps": 1}, idem="kill-test-1"
            )
            assert again["deduplicated"] is True
            assert again["applied_epoch"] == 3
            reply = client.step(expect=3)
            digests[reply["epoch"]] = reply["digest"]
            stats = client.request("stats")
            assert stats["counters"]["recoveries"] == 1
            assert stats["recovery"]["bounded"] is True
            client.shutdown()
            assert restarted.wait(timeout=30) == 0
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.wait(timeout=30)
        banner = restarted.stdout.read()
        assert "RECOVERY" in banner

        # The surviving chain replays byte-identically offline: replay_log
        # recomputes every epoch through the batch kernel and compares
        # against the digests the (twice-started) server logged.
        result = replay_log(log)
        assert result.ok
        assert result.epochs == len(digests)
