"""Checkpoint envelope round-trips, validation, and retention."""

from __future__ import annotations

import base64
import json
import os

import pytest

from repro.serve.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    checkpoint_name,
)
from repro.util.validation import ValidationError


def _write(manager, *, epochs=3, segment=1, session=None, **overrides):
    return manager.write(
        session if session is not None else {"rng": [1, 2, 3]},
        spec=overrides.pop("spec", {"experiment": "live-overlay"}),
        batched=overrides.pop("batched", True),
        epochs_completed=epochs,
        segment=segment,
        **overrides,
    )


def _tamper(directory, name, mutate):
    path = os.path.join(directory, name)
    with open(path) as handle:
        envelope = json.load(handle)
    mutate(envelope)
    with open(path, "w") as handle:
        json.dump(envelope, handle)


class TestRoundTrip:
    def test_write_load_round_trips_all_fields(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        name = _write(
            manager,
            epochs=5,
            segment=2,
            session={"state": 42},
            epoch_digests={4: "abcd", 5: "ef01"},
            dedupe={"client-1": 3},
        )
        assert name == checkpoint_name(5, 2)
        state = manager.load(name)
        assert state.session == {"state": 42}
        assert state.spec == {"experiment": "live-overlay"}
        assert state.batched is True
        assert state.epochs_completed == 5
        assert state.segment == 2
        assert state.epoch_digests == {4: "abcd", 5: "ef01"}
        assert state.dedupe == {"client-1": 3}

    def test_names_sort_oldest_first(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        _write(manager, epochs=10, segment=3)
        _write(manager, epochs=2, segment=1)
        assert manager.names() == [checkpoint_name(2, 1), checkpoint_name(10, 3)]

    def test_load_missing_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(ValidationError, match="not found"):
            manager.load(checkpoint_name(1, 1))


class TestValidation:
    def test_schema_mismatch_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        name = _write(manager)
        _tamper(
            str(tmp_path),
            name,
            lambda env: env.update(schema=CHECKPOINT_SCHEMA_VERSION + 1),
        )
        with pytest.raises(ValidationError, match="schema"):
            manager.load(name)

    def test_payload_digest_mismatch_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        name = _write(manager)
        tampered = base64.b64encode(b"not the pickled session").decode("ascii")
        _tamper(str(tmp_path), name, lambda env: env.update(payload=tampered))
        with pytest.raises(ValidationError, match="integrity digest"):
            manager.load(name)

    def test_truncated_checkpoint_raises(self, tmp_path):
        """A half-written file fails to load; recovery then replays the
        archived chain instead of trusting it."""
        manager = CheckpointManager(str(tmp_path))
        name = _write(manager)
        with open(os.path.join(str(tmp_path), name), "w") as handle:
            handle.write("{ truncated half-written checkpoi")
        with pytest.raises(ValidationError, match="not valid JSON"):
            manager.load(name)


class TestMissingDirectory:
    """Reading never creates the checkpoint directory (the first write does)."""

    def test_reads_on_a_missing_directory_create_nothing(self, tmp_path):
        directory = tmp_path / "absent" / "ckpts"
        manager = CheckpointManager(str(directory))
        assert manager.names() == []
        assert manager.prune(1) == []
        assert manager.oldest_segment() is None
        with pytest.raises(ValidationError, match="not found"):
            manager.load(checkpoint_name(1, 1))
        assert not (tmp_path / "absent").exists()


class TestRetention:
    def test_prune_keeps_the_newest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        for epochs, segment in [(2, 1), (4, 2), (6, 3), (8, 4)]:
            _write(manager, epochs=epochs, segment=segment)
        removed = manager.prune(2)
        assert removed == [checkpoint_name(2, 1), checkpoint_name(4, 2)]
        assert manager.names() == [checkpoint_name(6, 3), checkpoint_name(8, 4)]

    def test_prune_zero_keeps_everything(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        _write(manager, epochs=2, segment=1)
        _write(manager, epochs=4, segment=2)
        assert manager.prune(0) == []
        assert len(manager.names()) == 2

    def test_oldest_segment_tracks_pruning(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert manager.oldest_segment() is None
        _write(manager, epochs=2, segment=1)
        _write(manager, epochs=4, segment=2)
        assert manager.oldest_segment() == 1
        manager.prune(1)
        assert manager.oldest_segment() == 2
