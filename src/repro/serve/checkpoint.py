"""Atomic, digest-verified session checkpoints for ``repro serve``.

A checkpoint is the crash-safety anchor of the serve stack: a byte-exact
snapshot of the live :class:`~repro.scenario.lifecycle.Session` (engines,
wirings, RNG streams — captured via pickle, which round-trips numpy
generator state bit-for-bit) wrapped in a schema-versioned JSON envelope
carrying everything recovery needs *besides* the engine state: the spec,
the kernel path, the epoch/segment coordinates, the recent epoch digests
(for idempotent ``step`` replies), and the mutation dedupe window (so a
retried mutation stays exactly-once across a crash).

Every checkpoint is written through
:func:`repro.util.durable_io.write_atomic` — content fsynced before an
atomic rename, directory fsynced after — so a reader never observes a
half-written checkpoint and a SIGKILL never destroys the previous one;
the temp file a killed writer leaves is removed by the next write.  The
pickle payload additionally carries its own
blake2b digest; :meth:`CheckpointManager.load` rejects any file that
fails schema, digest, or unpickling checks, and recovery then replays
the archived log chain instead, so one corrupt file degrades recovery
instead of blocking it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.util.durable_io import pid_alive, write_atomic
from repro.util.validation import ValidationError

#: Schema version of the checkpoint envelope.  2: the pickled engines'
#: ``EpochView`` carries the served route matrix; a schema-1 payload has
#: none, so it is skipped and recovery replays the log instead.
CHECKPOINT_SCHEMA_VERSION = 2

_NAME = re.compile(r"^ckpt-(\d{8})-(\d{4})\.json$")

#: A write's temp file, named by the writer's pid: ``.<name>.<pid>.tmp``.
_TMP = re.compile(r"^\.ckpt-\d{8}-\d{4}\.json\.(\d+)\.tmp$")


def checkpoint_name(epochs: int, segment: int) -> str:
    """Canonical file name of the checkpoint at an (epoch, segment) point."""
    return f"ckpt-{int(epochs):08d}-{int(segment):04d}.json"


def payload_digest(blob: bytes) -> str:
    """The integrity digest stored alongside the pickled session."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass
class CheckpointState:
    """One loaded (validated, unpickled) checkpoint."""

    name: str
    session: object
    spec: Dict[str, object]
    batched: bool
    epochs_completed: int
    segment: int
    #: Recent epoch digests (epoch index -> digest) at snapshot time.
    epoch_digests: Dict[int, str] = field(default_factory=dict)
    #: Idempotency-key dedupe window (key -> applied_epoch) at snapshot time.
    dedupe: Dict[str, int] = field(default_factory=dict)


class CheckpointManager:
    """Write, enumerate, validate, load, and prune checkpoints in one dir."""

    def __init__(self, directory: str):
        # The directory is created by the first write, so a read-only
        # caller never creates one.
        self.directory = Path(directory)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def write(
        self,
        session: object,
        *,
        spec: Dict[str, object],
        batched: bool = True,
        epochs_completed: int,
        segment: int,
        epoch_digests: Optional[Dict[int, str]] = None,
        dedupe: Optional[Dict[str, int]] = None,
    ) -> str:
        """Atomically persist one checkpoint; returns its file name.

        ``batched`` only fills the envelope field of the same name: serve
        runs the batched tier alone, and no reader consults it.  Temp
        files of writers that died mid-write (their pid is gone) are
        removed first, so recovery, which anchors on a fresh checkpoint,
        clears a crash's leftovers.
        """
        for path in self.directory.glob(".ckpt-*.tmp"):
            match = _TMP.match(path.name)
            if match and not pid_alive(int(match.group(1))):
                path.unlink(missing_ok=True)
        blob = pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "spec": spec,
            "batched": bool(batched),
            "epochs_completed": int(epochs_completed),
            "segment": int(segment),
            "epoch_digests": {
                str(epoch): digest
                for epoch, digest in sorted((epoch_digests or {}).items())
            },
            "dedupe": {key: int(epoch) for key, epoch in (dedupe or {}).items()},
            "payload_digest": payload_digest(blob),
            "payload": base64.b64encode(blob).decode("ascii"),
        }
        name = checkpoint_name(epochs_completed, segment)
        write_atomic(
            str(self.directory / name),
            json.dumps(envelope, separators=(",", ":"), sort_keys=True),
            str(self.directory / f".{name}.{os.getpid()}.tmp"),
        )
        return name

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Checkpoint file names present, oldest first."""
        return sorted(p.name for p in self.directory.glob("ckpt-*.json") if _NAME.match(p.name))

    def load(self, name: str) -> CheckpointState:
        """Validate and unpickle one checkpoint by file name."""
        try:
            text = (self.directory / name).read_text()
        except FileNotFoundError:
            raise ValidationError(
                f"checkpoint {name!r} not found in {str(self.directory)!r}"
            )
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"checkpoint {name!r} is not valid JSON: {error}")
        if not isinstance(envelope, dict):
            raise ValidationError(f"checkpoint {name!r} is not a JSON object")
        schema = envelope.get("schema")
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise ValidationError(
                f"checkpoint {name!r} has schema {schema!r}; this reader "
                f"supports version {CHECKPOINT_SCHEMA_VERSION}"
            )
        try:
            blob = base64.b64decode(envelope["payload"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(f"checkpoint {name!r} payload is malformed: {error}")
        if payload_digest(blob) != envelope.get("payload_digest"):
            raise ValidationError(
                f"checkpoint {name!r} failed its integrity digest "
                "(truncated or tampered payload)"
            )
        try:
            session = pickle.loads(blob)
        except Exception as error:  # noqa: BLE001 - any unpickle failure invalidates
            raise ValidationError(f"checkpoint {name!r} failed to unpickle: {error}")
        try:
            return CheckpointState(
                name=name,
                session=session,
                spec=dict(envelope["spec"]),
                batched=bool(envelope["batched"]),
                epochs_completed=int(envelope["epochs_completed"]),
                segment=int(envelope["segment"]),
                epoch_digests={
                    int(epoch): str(digest)
                    for epoch, digest in dict(envelope.get("epoch_digests", {})).items()
                },
                dedupe={
                    str(key): int(epoch)
                    for key, epoch in dict(envelope.get("dedupe", {})).items()
                },
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(f"checkpoint {name!r} envelope is malformed: {error}")

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def prune(self, keep: int) -> List[str]:
        """Delete all but the newest ``keep`` checkpoints (0 keeps all).

        Returns the deleted names.  The caller owning the mutation log
        pairs this with :func:`repro.serve.oplog.compact_segments` so
        log segments older than the oldest retained checkpoint go too.
        """
        keep = int(keep)
        if keep <= 0:
            return []
        names = self.names()
        removed = names[:-keep] if len(names) > keep else []
        for name in removed:
            (self.directory / name).unlink(missing_ok=True)
        return removed

    def oldest_segment(self) -> Optional[int]:
        """Segment index of the oldest retained checkpoint, or None."""
        names = self.names()
        if not names:
            return None
        match = _NAME.match(names[0])
        return int(match.group(2)) if match else None


__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointManager",
    "CheckpointState",
    "checkpoint_name",
    "payload_digest",
]
