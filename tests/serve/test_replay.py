"""Mutation-log replay parity: served epochs reproduce byte-identically."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.scenario.lifecycle import Session
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.serve import durable, oplog, replay
from repro.serve.checkpoint import checkpoint_name
from repro.serve.replay import read_log, replay_log
from repro.serve.service import OverlayService
from repro.util.validation import ValidationError


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        experiment="live-overlay",
        n=14,
        k_grid=(3,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=3,
        seed=23,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _serve_session(log_path, spec=None) -> None:
    """Run a service through epochs and mutations, writing its log."""
    service = OverlayService(spec or _spec(), log_path=str(log_path))
    service.tick()
    service.mutate({"kind": "leave", "nodes": [5, 7]})
    service.tick()
    service.mutate({"kind": "join", "nodes": [5]})
    service.mutate(
        {"kind": "failure", "event": {"action": "link-down", "links": [[0, 1]]}}
    )
    service.tick()
    service.mutate({"kind": "rewire", "nodes": [2]})
    service.tick()
    service.close()


class TestReplayParity:
    def test_replay_reproduces_served_digests(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        result = replay_log(str(log))
        assert result.ok
        assert result.epochs == 4
        assert result.mutations == 4
        assert result.closed_cleanly
        assert "ok" in result.summary()

    def test_replay_is_byte_identical_across_kernels(self, tmp_path):
        """A batched serving run replays cleanly on the sequential kernels:
        the served log folds, digest-checked, into a reference session."""
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        entries = read_log(str(log))
        spec = ScenarioSpec.from_dict(entries[0]["spec"])
        sequential = Session.from_session(SimulationSession(spec, batched=False))
        result = replay.ReplayResult()
        try:
            assert sequential.batch.batched is False
            replay.fold_segment(sequential, entries[1:], result, strict=True)
        finally:
            sequential.close()
        assert result.ok
        assert (result.epochs, result.mutations) == (4, 4)

    def test_tampered_log_is_detected(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        entries = [json.loads(line) for line in open(log)]
        dropped = [
            entry
            for entry in entries
            if not (entry["kind"] == "mutate" and entry["mutation"]["kind"] == "leave")
        ]
        with open(log, "w") as handle:
            for entry in dropped:
                handle.write(json.dumps(entry) + "\n")
        result = replay_log(str(log))
        assert not result.ok
        assert result.mismatches
        assert result.mismatches[0]["served"] != result.mismatches[0]["replayed"]

    def test_unsealed_log_still_replays(self, tmp_path):
        """A crashed server's log (no close entry) is replayable."""
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        lines = open(log).read().splitlines()
        assert json.loads(lines[-1])["kind"] == "close"
        with open(log, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        result = replay_log(str(log))
        assert result.ok
        assert not result.closed_cleanly


def _serve_chain(log_path, ckpt_dir, *, keep=0) -> None:
    """A checkpointing run: 5 epochs, checkpoints (and rotations) at 2 and 4."""
    service = OverlayService(
        _spec(),
        log_path=str(log_path),
        checkpoint_dir=str(ckpt_dir),
        checkpoint_every=2,
        keep_checkpoints=keep,
    )
    service.tick()
    service.tick()
    service.mutate({"kind": "drift", "steps": 1})
    service.tick()
    service.tick()
    service.tick()
    service.close()


class TestTornTailRegression:
    def test_byte_truncated_log_replays(self, tmp_path):
        """A log sheared mid-final-line (SIGKILL mid-append) still replays."""
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        lines = open(log, "rb").read().splitlines(keepends=True)
        assert json.loads(lines[-1])["kind"] == "close"
        # Drop the close entry, then cut into the final epoch line.
        with open(log, "wb") as handle:
            handle.write(b"".join(lines[:-1])[:-9])
        result = replay_log(str(log))
        assert result.ok
        assert result.epochs == 3  # the torn epoch entry is not counted
        assert not result.closed_cleanly
        assert result.torn_tail_bytes > 0
        assert "torn_tail=" in result.summary()

    def test_replay_leaves_the_torn_log_untouched(self, tmp_path):
        """Replay is read-only: it must not repair (truncate) the file."""
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        with open(log, "ab") as handle:
            handle.write(b'{"kind":"mutate","mut')
        before = open(log, "rb").read()
        result = replay_log(str(log))
        assert result.ok
        assert result.torn_tail_bytes == 21
        assert open(log, "rb").read() == before
        assert not os.path.exists(str(log) + ".corrupt")


class TestChainReplay:
    def test_rotated_chain_replays_end_to_end(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_chain(log, tmp_path / "ckpt")
        result = replay_log(str(log))
        assert result.ok
        assert result.epochs == 5
        assert result.mutations == 1
        assert result.segments == 3
        assert result.closed_cleanly
        assert "segments=3" in result.summary()

    def test_checkpoint_anchored_replay_is_bounded(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        ckpt = tmp_path / "ckpt"
        _serve_chain(log, ckpt)
        result = replay_log(str(log), checkpoint_dir=str(ckpt))
        assert result.ok
        assert result.checkpoint_epochs == 4
        assert result.epochs == 1  # only the current segment's suffix
        assert "from_checkpoint=4" in result.summary()

    def test_compacted_chain_demands_a_checkpoint(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        ckpt = tmp_path / "ckpt"
        _serve_chain(log, ckpt, keep=1)
        with pytest.raises(ValidationError, match="compacted"):
            replay_log(str(log))
        assert replay_log(str(log), checkpoint_dir=str(ckpt)).ok

    def test_unrotated_log_has_no_checkpoint_anchor(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        with pytest.raises(ValidationError, match="names no checkpoint"):
            replay_log(str(log), checkpoint_dir=str(tmp_path / "ckpt"))


class TestCheckpointAnchor:
    """``--checkpoints`` replay starts only from the checkpoint the header
    names, at the epoch count the header names — recovery's rule too."""

    def test_mis_anchored_checkpoint_is_rejected(self, tmp_path, capsys):
        log = tmp_path / "serve.jsonl"
        ckpt = tmp_path / "ckpt"
        _serve_chain(log, ckpt)
        # The header names the epoch-4 checkpoint; put epoch 2 under its name.
        shutil.copyfile(
            ckpt / checkpoint_name(2, 1), ckpt / checkpoint_name(4, 2)
        )
        with pytest.raises(ValidationError) as excinfo:
            replay_log(str(log), checkpoint_dir=str(ckpt))
        message = str(excinfo.value)
        assert checkpoint_name(4, 2) in message
        assert "epochs_completed 2 != header's 4" in message
        assert main(["serve-replay", str(log), "--checkpoints", str(ckpt)]) == 2
        assert "REPLAY" not in capsys.readouterr().out

    def test_missing_checkpoint_dir_is_not_created(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_chain(log, tmp_path / "ckpt")
        missing = tmp_path / "missing" / "ckpts"
        with pytest.raises(ValidationError, match="not found"):
            replay_log(str(log), checkpoint_dir=str(missing))
        assert not (tmp_path / "missing").exists()


class TestParseOnce:
    """Every log file is parsed once per replay or recovery."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        paths = []

        def counting(path, **kwargs):
            paths.append(os.path.basename(path))
            return oplog.read_segment(path, **kwargs)

        monkeypatch.setattr(replay, "read_segment", counting)
        monkeypatch.setattr(durable, "read_segment", counting)
        return paths

    def test_chain_replay_parses_each_segment_once(self, tmp_path, parsed):
        log = tmp_path / "serve.jsonl"
        _serve_chain(log, tmp_path / "ckpt")
        assert replay_log(str(log)).segments == 3
        assert sorted(parsed) == ["serve.jsonl", "serve.jsonl.000", "serve.jsonl.001"]

    def test_chain_fallback_recovery_parses_each_segment_once(
        self, tmp_path, parsed
    ):
        log = tmp_path / "serve.jsonl"
        ckpt = tmp_path / "ckpt"
        live = OverlayService(
            _spec(), log_path=str(log), checkpoint_dir=str(ckpt), checkpoint_every=2
        )
        for _ in range(5):
            live.tick()
        live.durable.log.close()  # a crash: no close entry, no seal
        live.durable.log = None
        live.closed = True
        shutil.rmtree(ckpt)
        recovered = OverlayService.recover(str(log), checkpoint_dir=str(ckpt))
        try:
            assert recovered.last_recovery.checkpoint is None
            assert recovered.session.epochs_completed == 5
        finally:
            recovered.close()
        assert sorted(parsed) == ["serve.jsonl", "serve.jsonl.000", "serve.jsonl.001"]


class TestLogFormat:
    def test_read_log_checks_the_header(self, tmp_path):
        log = tmp_path / "bogus.jsonl"
        log.write_text('{"kind": "epoch", "epoch": 0}\n')
        with pytest.raises(ValidationError):
            read_log(str(log))

    def test_read_log_rejects_unknown_schema(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        entries = [json.loads(line) for line in open(log)]
        entries[0]["schema"] = 99
        with open(log, "w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")
        with pytest.raises(ValidationError):
            read_log(str(log))

    def test_log_records_resolved_failure_epochs(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        _serve_session(log)
        failure_entries = [
            entry
            for entry in (json.loads(line) for line in open(log))
            if entry["kind"] == "mutate" and entry["mutation"]["kind"] == "failure"
        ]
        (entry,) = failure_entries
        # The served default (next epoch) was resolved before logging.
        assert entry["mutation"]["event"]["epoch"] == entry["applied_epoch"]
