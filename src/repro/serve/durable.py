"""The serve session's durable state: log, checkpoints, windows, recovery.

:class:`DurableState` is everything :class:`~repro.serve.service.OverlayService`
keeps on disk or must rebuild after a crash, and the only writer of the
serve formats: the segment header, the ``epoch`` / ``mutate`` /
``checkpoint`` / ``close`` log entries, and the checkpoint envelope's
windows.  The service keeps the read path (tick, step, mutate, lookups)
and calls in here at each durable moment.

Sessions are byte-deterministic, so recovery is "checkpoint + bounded
log-suffix replay, digest-verified" (``docs/serve_recovery.md``).  Every
log append is fsynced before the caller acts on it; every
``checkpoint_every`` epochs the session is snapshotted and the log
rotated onto the snapshot, so recovery replays at most one interval; the
dedupe window makes a retried mutation apply exactly once and the
epoch-digest window answers a retried ``step``, across crashes too.

This module writes the log; it never interprets it: recovery reads it
through :mod:`repro.serve.replay`'s one fold
(:func:`~repro.serve.replay.fold_segment`), the same code
``repro serve-replay`` runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.scenario.lifecycle import Session
from repro.scenario.spec import ScenarioSpec
from repro.serve.checkpoint import CheckpointManager
from repro.serve.oplog import (
    LOG_SCHEMA_VERSION,
    LogWriter,
    compact_segments,
    read_segment,
    segment_path,
)
from repro.serve.replay import (
    ReplayResult,
    check_header,
    fold_segment,
    load_anchor,
    replay_chain,
)
from repro.telemetry import runtime as telemetry
from repro.util.durable_io import replace_durably
from repro.util.validation import ValidationError

#: Idempotency keys remembered for mutation dedupe (FIFO window).
DEDUPE_WINDOW = 1024

#: Recent epoch digests kept for idempotent ``step`` replies.
EPOCH_DIGEST_WINDOW = 128


class RecoveryError(ValidationError):
    """Recovery could not restore a state consistent with the log."""


@dataclass
class RecoveryReport:
    """What one :meth:`DurableState.recover` run did."""

    #: Checkpoint file the session was restored from (None = replayed
    #: from scratch, either a fresh segment-0 log or the archived chain).
    checkpoint: Optional[str]
    #: Epochs already inside the restored starting state.
    checkpoint_epochs: int
    #: Epochs replayed from the crashed segment's suffix.
    replayed_epochs: int
    #: Mutations re-enqueued (committed ones replay inside their epochs).
    replayed_mutations: int
    #: Bytes of torn (crash-interrupted) final line truncated away.
    torn_tail_bytes: int
    #: Sidecar file preserving the torn tail, when one was written.
    sidecar: Optional[str]
    #: Epochs live after recovery.
    epochs_completed: int
    #: Log segment index recovery resumed writing into.
    segment: int
    #: The service's checkpoint interval (0 = checkpointing off).
    checkpoint_every: int
    #: Why the checkpoint the log header names was unusable (the state
    #: was then rebuilt from the archived chain).
    skipped_checkpoints: List[str] = field(default_factory=list)
    #: True when the crashed segment was sealed (clean-shutdown restart).
    was_sealed: bool = False

    @property
    def bounded(self) -> bool:
        """Did recovery replay at most one checkpoint interval?"""
        if self.checkpoint_every <= 0:
            return self.checkpoint is None and self.segment <= 1
        return self.replayed_epochs <= self.checkpoint_every

    def summary(self) -> str:
        """The machine-greppable recovery line CI latches onto."""
        return (
            f"RECOVERY checkpoint={self.checkpoint or 'none'} "
            f"checkpoint_epochs={self.checkpoint_epochs} "
            f"replayed_epochs={self.replayed_epochs} "
            f"replayed_mutations={self.replayed_mutations} "
            f"torn_tail={self.torn_tail_bytes} "
            f"epochs={self.epochs_completed} segment={self.segment} "
            f"bounded={'yes' if self.bounded else 'NO'}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "checkpoint": self.checkpoint,
            "checkpoint_epochs": self.checkpoint_epochs,
            "replayed_epochs": self.replayed_epochs,
            "replayed_mutations": self.replayed_mutations,
            "torn_tail_bytes": self.torn_tail_bytes,
            "sidecar": self.sidecar,
            "epochs_completed": self.epochs_completed,
            "segment": self.segment,
            "checkpoint_every": self.checkpoint_every,
            "bounded": self.bounded,
            "was_sealed": self.was_sealed,
            "skipped_checkpoints": list(self.skipped_checkpoints),
        }


class DurableState:
    """The mutation log, checkpoints and retry windows of one service.

    Parameters
    ----------
    spec:
        The scenario served (recorded in every segment header and
        checkpoint envelope).
    log_path:
        Optional mutation-log path (JSONL, append-only, fsynced per
        entry).  Without it nothing is written and the service cannot be
        replayed or recovered; the windows are still kept.
    checkpoint_dir:
        Directory for atomic session checkpoints (requires
        ``log_path``).  Enables bounded-replay recovery.
    checkpoint_every:
        Checkpoint (and rotate the log) every this many epochs; 0
        disables periodic checkpoints even with a directory attached.
    keep_checkpoints:
        Retain only the newest N checkpoints and compact away log
        segments older than the oldest retained one; 0 keeps everything
        (so ``serve-replay`` can always replay the full history).

    Nothing is written until :meth:`open`.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        log_path: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 0,
    ):
        if checkpoint_dir is not None and log_path is None:
            raise ValidationError(
                "checkpoint_dir requires log_path: checkpoints anchor log "
                "segments, there is nothing to anchor without a log"
            )
        self.spec = spec
        self.log_path = log_path
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.keep_checkpoints = max(0, int(keep_checkpoints))
        self.checkpoints = (
            CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.log: Optional[LogWriter] = None
        #: Idempotency-key dedupe window: key -> applied_epoch (FIFO).
        self.dedupe: "OrderedDict[str, int]" = OrderedDict()
        #: Recent committed-epoch digests for idempotent ``step`` replies.
        self.epoch_digests: "OrderedDict[int, str]" = OrderedDict()
        #: What :meth:`recover` did (None for a fresh start).
        self.last_recovery: Optional[RecoveryReport] = None

    def open(self, session: Session, *, segment: int = 0, resumed: bool = False) -> None:
        """Start writing log ``segment`` (its header first).

        A ``resumed`` segment (recovery) is anchored on a fresh checkpoint
        of ``session``, named in the header's ``resumed_from``.
        """
        resumed_from = self._snapshot(session, segment) if resumed else None
        if self.log_path:
            self.log = LogWriter(self.log_path, segment=segment)
            self.log.append(self._header(segment, resumed_from))

    def _header(
        self, segment: int, resumed_from: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        header: Dict[str, object] = {
            "kind": "open",
            "schema": LOG_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "segment": int(segment),
        }
        if resumed_from is not None:
            header["resumed_from"] = resumed_from
        return header

    def _append(self, entry: Dict[str, object]) -> None:
        if self.log is not None:
            self.log.append(entry)

    # ------------------------------------------------------------------ #
    # The durable moments of a live service
    # ------------------------------------------------------------------ #
    def commit_epoch(self, epoch: int, digest: str) -> None:
        """Remember a served epoch's digest and log it."""
        self.epoch_digests[epoch] = digest
        while len(self.epoch_digests) > EPOCH_DIGEST_WINDOW:
            self.epoch_digests.popitem(last=False)
        self._append({"kind": "epoch", "epoch": epoch, "digest": digest})

    def commit_mutation(
        self, applied_epoch: int, mutation: Dict[str, object], idem: Optional[str]
    ) -> None:
        """Log an accepted mutation (and remember its idempotency key).

        Returns only after the entry is fsynced: the caller acks after.
        """
        entry: Dict[str, object] = {
            "kind": "mutate",
            "applied_epoch": applied_epoch,
            "mutation": mutation,
        }
        if idem is not None:
            entry["idem"] = idem
            self.dedupe[idem] = applied_epoch
            while len(self.dedupe) > DEDUPE_WINDOW:
                self.dedupe.popitem(last=False)
        self._append(entry)

    def checkpoint_due(self, epochs_completed: int) -> bool:
        """Does the checkpoint cadence land on this epoch count?"""
        return (
            self.checkpoints is not None
            and self.checkpoint_every > 0
            and epochs_completed % self.checkpoint_every == 0
        )

    def write_checkpoint(self, session: Session) -> Optional[str]:
        """Snapshot ``session`` now and rotate the log onto it.

        The checkpoint anchors the *next* segment: its envelope records
        the state at the segment boundary, the sealed segment ends with
        a ``checkpoint`` entry naming it, and the fresh segment's header
        resumes from it — so recovery of the fresh segment replays only
        entries after this point.  Returns the checkpoint file name
        (None without a checkpoint directory or a log).
        """
        if self.checkpoints is None or self.log is None:
            return None
        with telemetry.span("serve.checkpoint", epochs=session.epochs_completed):
            next_segment = self.log.segment + 1
            resumed_from = self._snapshot(session, next_segment)
            name = resumed_from["checkpoint"]
            self.log.append(
                {
                    "kind": "checkpoint",
                    "epochs_completed": session.epochs_completed,
                    "file": name,
                }
            )
            self.log.rotate(self._header(next_segment, resumed_from))
            self._compact()
        return name

    def _snapshot(self, session: Session, segment: int) -> Dict[str, object]:
        """Checkpoint ``session`` as the anchor of log ``segment``.

        Returns the segment header's ``resumed_from`` (naming no
        checkpoint without a checkpoint directory).
        """
        name = None
        if self.checkpoints is not None:
            name = self.checkpoints.write(
                session,
                spec=self.spec.to_dict(),
                epochs_completed=session.epochs_completed,
                segment=segment,
                epoch_digests=dict(self.epoch_digests),
                dedupe=dict(self.dedupe),
            )
        return {"checkpoint": name, "epochs_completed": session.epochs_completed}

    def _compact(self) -> None:
        """Apply the retention policy after a successful checkpoint."""
        if self.keep_checkpoints <= 0 or self.checkpoints is None:
            return
        self.checkpoints.prune(self.keep_checkpoints)
        oldest = self.checkpoints.oldest_segment()
        if oldest is not None and self.log is not None:
            compact_segments(self.log.path, keep_from=oldest - 1)

    def close(self, epochs: int) -> None:
        """Seal the log with its ``close`` entry."""
        self._append({"kind": "close", "epochs": epochs})
        if self.log is not None:
            self.log.close()
            self.log = None

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def recover(
        cls,
        log_path: str,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 0,
    ) -> Tuple["DurableState", Session]:
        """Rebuild the state a crashed service left in its log.

        Every log read goes through :mod:`repro.serve.replay`: the live
        segment is read (a torn final line repaired into a ``.corrupt``
        sidecar) and its header checked; the state it resumes from is
        the checkpoint the header names (:func:`load_anchor`), or, when
        that one is unusable, a replay of the archived chain
        (:func:`replay_chain`); the segment's suffix then runs through
        :func:`fold_segment`, and a digest mismatch aborts recovery
        rather than serving diverged state.  The crashed segment is
        archived and writing continues in the next one, anchored on a
        fresh checkpoint.  :attr:`last_recovery` reports what happened;
        its ``bounded`` flag asserts the replay never exceeded one
        checkpoint interval.
        """
        read = read_segment(log_path, repair=True)
        try:
            header = check_header(log_path, read.entries)
        except ValidationError as error:
            raise RecoveryError(f"{error}; cannot recover") from error
        spec = ScenarioSpec.from_dict(header["spec"])
        segment = int(header.get("segment", 0))
        resumed = header.get("resumed_from")
        skipped: List[str] = []
        anchor = None
        try:
            anchor = load_anchor(header, checkpoint_dir)
        except ValidationError as error:
            skipped.append(str(error))
        if anchor is not None:
            session = anchor.session
            dedupe, digests = anchor.dedupe, anchor.epoch_digests
        elif resumed is not None:
            # No usable checkpoint: rebuild the state the segment
            # resumes from by replaying the archived chain.
            archives = [segment_path(log_path, index) for index in range(segment)]
            try:
                session, chain = replay_chain(archives, strict=True)
            except ValidationError as error:
                raise RecoveryError(
                    f"cannot restore the state segment {segment} resumes "
                    f"from: checkpoint unusable "
                    f"({'; '.join(skipped) or 'none named'}) and chain "
                    f"replay failed ({error})"
                ) from error
            wanted = int(resumed.get("epochs_completed", 0))
            if session.epochs_completed != wanted:
                session.close()
                raise RecoveryError(
                    f"chain replay reached {session.epochs_completed} epochs "
                    f"but segment {segment} resumes from {wanted}"
                )
            dedupe, digests = chain.dedupe, chain.digests
        else:
            session = Session.open(spec)
            dedupe, digests = {}, {}
        checkpoint_epochs = session.epochs_completed
        suffix = ReplayResult(
            dedupe=OrderedDict(sorted(dedupe.items(), key=lambda item: item[1])),
            digests=OrderedDict(sorted(digests.items())),
        )
        try:
            fold_segment(session, read.entries[1:], suffix, strict=True)
        except ValidationError as error:
            raise RecoveryError(str(error)) from error
        while len(suffix.dedupe) > DEDUPE_WINDOW:
            suffix.dedupe.popitem(last=False)
        while len(suffix.digests) > EPOCH_DIGEST_WINDOW:
            suffix.digests.popitem(last=False)

        # Archive the crashed segment; writing continues in the next.
        replace_durably(log_path, segment_path(log_path, segment))
        durable = cls(
            spec,
            log_path=log_path,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
        )
        durable.dedupe.update(suffix.dedupe)
        durable.epoch_digests.update(suffix.digests)
        durable.last_recovery = RecoveryReport(
            checkpoint=anchor.name if anchor is not None else None,
            checkpoint_epochs=checkpoint_epochs,
            replayed_epochs=suffix.epochs,
            replayed_mutations=suffix.mutations,
            torn_tail_bytes=len(read.torn_tail or b""),
            sidecar=read.sidecar,
            epochs_completed=session.epochs_completed,
            segment=segment + 1,
            checkpoint_every=durable.checkpoint_every,
            skipped_checkpoints=skipped,
            was_sealed=suffix.closed_cleanly,
        )
        durable.open(session, segment=segment + 1, resumed=True)
        return durable, session


__all__ = [
    "DEDUPE_WINDOW",
    "EPOCH_DIGEST_WINDOW",
    "DurableState",
    "RecoveryError",
    "RecoveryReport",
]
