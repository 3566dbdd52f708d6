"""Replay a serve mutation log (or log chain) through the engines.

The serve scheduler's correctness contract: because it is only a
scheduler around the existing epoch kernels (one
:meth:`~repro.scenario.lifecycle.Session.step` per tick, mutations
committed inside ``begin_epoch``), feeding its mutation log back through
a fresh batch session must reproduce every served epoch byte-for-byte.
:func:`replay_log` does exactly that and compares the codec digest of
each replayed epoch against the digest the live service recorded.

This module is the log's only reader.  :func:`replay_log` and
:meth:`DurableState.recover <repro.serve.durable.DurableState.recover>`
are both compositions of :func:`check_header`, the one fold
:func:`fold_segment`, the checkpoint-anchor loader :func:`load_anchor`
and :func:`replay_chain`.

Since the crash-safety work the log is *segmented*: checkpoints (and
crash recoveries) seal the current segment into ``<path>.NNN`` archives
and continue in a fresh file whose header names the state it resumes
from.  Replay handles both shapes:

* ``replay_log(path)`` on a log with archived siblings replays the whole
  **chain** from segment 0 — the full-history parity check CI runs;
* ``replay_log(path, checkpoint_dir=...)`` starts from the checkpoint
  the current segment's header names instead, replaying only the
  suffix — the bounded-recovery parity check;
* a torn final line (crash mid-append) is tolerated exactly the way
  recovery tolerates it: reported and skipped via
  :func:`repro.serve.oplog.read_segment`, never a crash in
  ``json.loads``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.codec import epoch_record_digest
from repro.scenario.lifecycle import Mutation, Session
from repro.scenario.spec import ScenarioSpec
from repro.serve.checkpoint import CheckpointManager, CheckpointState
from repro.serve.oplog import LOG_SCHEMA_VERSION, list_segments, read_segment
from repro.util.validation import ValidationError


@dataclass
class ReplayResult:
    """The outcome of replaying one mutation log (or chain)."""

    epochs: int = 0
    mutations: int = 0
    mismatches: List[Dict[str, object]] = field(default_factory=list)
    closed_cleanly: bool = False
    #: Log segments replayed (1 for an unrotated log).
    segments: int = 1
    #: Epochs already inside the checkpoint the replay started from.
    checkpoint_epochs: int = 0
    #: Bytes of torn final line skipped (0 for a clean log).
    torn_tail_bytes: int = 0
    #: Replayed epoch digests (epoch index -> digest), oldest first.
    digests: Dict[int, str] = field(default_factory=dict)
    #: Idempotency keys of replayed mutations (key -> applied_epoch).
    dedupe: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every served epoch replayed byte-identically."""
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatched epochs"
        sealed = "sealed" if self.closed_cleanly else "unsealed"
        extra = ""
        if self.segments > 1:
            extra += f" segments={self.segments}"
        if self.checkpoint_epochs:
            extra += f" from_checkpoint={self.checkpoint_epochs}"
        if self.torn_tail_bytes:
            extra += f" torn_tail={self.torn_tail_bytes}"
        return (
            f"REPLAY epochs={self.epochs} mutations={self.mutations} "
            f"log={sealed}{extra} {status}"
        )


def check_header(path: str, entries: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The ``open`` header a segment's parsed entries start with."""
    if not entries or entries[0].get("kind") != "open":
        raise ValidationError(f"{path}: log does not start with an open entry")
    schema = entries[0].get("schema")
    if schema not in (1, LOG_SCHEMA_VERSION):
        raise ValidationError(
            f"{path}: log schema {schema!r} is not the supported {LOG_SCHEMA_VERSION}"
        )
    return entries[0]


def read_log(path: str) -> List[Dict[str, object]]:
    """Parse one JSONL log segment, checking the header.

    Tolerates a torn final line (a crash mid-append) by dropping it —
    use :func:`repro.serve.oplog.read_segment` directly for the raw
    tail, or ``repair=True`` there to truncate it away on disk.
    """
    entries = read_segment(path).entries
    check_header(path, entries)
    return entries


def _chain_paths(path: str) -> List[str]:
    """Every segment of the log chain at ``path``, oldest first."""
    paths = [archived for _index, archived in list_segments(path)]
    if os.path.exists(path):
        paths.append(path)
    if not paths:
        raise ValidationError(f"cannot read mutation log {path!r}: no such file")
    return paths


def fold_segment(
    session: Session,
    entries: Sequence[Dict[str, object]],
    result: ReplayResult,
    *,
    strict: bool = False,
) -> None:
    """Apply one segment's entries (header excluded) to ``session``.

    Counts mutations and epochs into ``result`` and records each epoch's
    digest and each keyed mutation's ``applied_epoch`` in its windows.
    A replayed digest that differs from the logged one is recorded in
    ``result.mismatches``, or with ``strict`` raises at the first one —
    recovery must not serve a diverged state.
    """
    for entry in entries:
        kind = entry.get("kind")
        if kind == "mutate":
            session.mutate(Mutation.from_dict(entry["mutation"]))
            result.mutations += 1
            idem = entry.get("idem")
            if isinstance(idem, str):
                result.dedupe[idem] = int(entry.get("applied_epoch", 0))
        elif kind == "epoch":
            digest = epoch_record_digest(session.step())
            if digest != entry.get("digest"):
                if strict:
                    raise ValidationError(
                        f"recovered state diverged at epoch {entry.get('epoch')}: "
                        f"log sealed {entry.get('digest')!r} but replay produced "
                        f"{digest!r} — refusing to serve"
                    )
                result.mismatches.append(
                    {
                        "epoch": entry.get("epoch"),
                        "served": entry.get("digest"),
                        "replayed": digest,
                    }
                )
            result.digests[int(entry.get("epoch", 0))] = digest
            result.epochs += 1
        elif kind == "close":
            result.closed_cleanly = True
        elif kind != "checkpoint":
            # A checkpoint entry seals a segment; the next header (or a
            # recovery) anchors on it, so replay has nothing to do.
            raise ValidationError(f"unknown log entry kind {kind!r}")


def load_anchor(
    header: Dict[str, object],
    checkpoint_dir: Optional[str],
) -> Optional[CheckpointState]:
    """The checkpoint a segment header resumes from, or None.

    None when there is no directory or the header names no checkpoint.
    Raises when the named one fails to load or holds another epoch
    count than the header's: the segment does not continue from it.
    """
    resumed = header.get("resumed_from")
    if checkpoint_dir is None or not isinstance(resumed, dict):
        return None
    name = resumed.get("checkpoint")
    if not name:
        return None
    state = CheckpointManager(checkpoint_dir).load(str(name))
    wanted = int(resumed.get("epochs_completed", 0))
    if state.epochs_completed != wanted:
        raise ValidationError(
            f"{name}: epochs_completed {state.epochs_completed} != header's {wanted}"
        )
    return state


def replay_chain(
    paths: Sequence[str], *, strict: bool = False
) -> Tuple[Session, ReplayResult]:
    """Replay log segments, oldest first from segment 0, through the fold.

    Each file is parsed once.  Returns the **open** session (the caller
    closes it) and the fold's result, which carries the epoch-digest
    and dedupe windows.
    """
    result = ReplayResult(segments=len(paths))
    session: Optional[Session] = None
    try:
        for segment_file in paths:
            read = read_segment(segment_file)
            header = check_header(segment_file, read.entries)
            if session is None:
                resumed = header.get("resumed_from")
                if isinstance(resumed, dict) and int(
                    resumed.get("epochs_completed", 0)
                ):
                    raise ValidationError(
                        f"{segment_file}: the oldest surviving segment resumes "
                        f"from {resumed.get('epochs_completed')} epochs — earlier "
                        "segments were compacted away; replay with "
                        "checkpoint_dir instead"
                    )
                session = Session.open(ScenarioSpec.from_dict(header["spec"]))
            result.torn_tail_bytes += len(read.torn_tail or b"")
            # A recovered segment's entries start exactly where the
            # previous segment's replay left the session.
            result.closed_cleanly = False
            fold_segment(session, read.entries[1:], result, strict=strict)
    except BaseException:
        if session is not None:
            session.close()
        raise
    if session is None:
        raise ValidationError("no log segments to replay")
    return session, result


def replay_log(
    path: str,
    *,
    checkpoint_dir: Optional[str] = None,
) -> ReplayResult:
    """Re-run a mutation log (chain) and digest-check every epoch.

    Parameters
    ----------
    path:
        The JSONL log ``repro serve --log`` wrote.  Archived segments
        (``<path>.NNN`` siblings from checkpoints or recoveries) are
        replayed first, automatically, so the check always covers the
        full served history.
    checkpoint_dir:
        Start from the checkpoint the *current* segment's header names
        (loaded from this directory) instead of replaying the archived
        chain — the bounded-recovery parity mode.  Raises
        :class:`ValidationError` when the header names no checkpoint,
        or one that is missing, invalid, or anchored at a different
        epoch than the header says.
    """
    if checkpoint_dir is None:
        session, result = replay_chain(_chain_paths(path))
        session.close()
        return result
    read = read_segment(path)
    state = load_anchor(check_header(path, read.entries), checkpoint_dir)
    if state is None:
        raise ValidationError(
            f"{path}: segment header names no checkpoint to resume from; "
            "drop checkpoint_dir to replay the full chain"
        )
    result = ReplayResult(
        checkpoint_epochs=state.epochs_completed,
        torn_tail_bytes=len(read.torn_tail or b""),
    )
    try:
        fold_segment(state.session, read.entries[1:], result)
    finally:
        state.session.close()
    return result


__all__ = [
    "ReplayResult",
    "check_header",
    "fold_segment",
    "load_anchor",
    "read_log",
    "replay_chain",
    "replay_log",
]
