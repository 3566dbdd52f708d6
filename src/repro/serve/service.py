"""The live overlay service core: one lifecycle Session, served hot.

:class:`OverlayService` is the synchronous heart of ``repro serve`` (the
asyncio server in :mod:`repro.serve.server` is a thin transport around
it, and tests drive it directly).  It owns a
:class:`~repro.scenario.lifecycle.Session`, advances it epoch by epoch
(:meth:`tick`), answers route lookups between ticks, enqueues mutations
for the next tick, and appends every mutation — plus the digest of every
served epoch — to a replayable, durably-fsynced JSONL log.

Lookup semantics
----------------
A lookup answers "what does the best overlay route from ``src`` to
``dst`` cost (or carry) on the live overlay right now", on the announced
metric the last committed epoch wired under.  The answer is read from
the engine's :class:`~repro.core.engine.EpochView`: its ``route_values``
is the all-sources matrix the epoch was scored with, so a lookup is a
bounds-checked array read and a ``lookup_batch`` frame is one gather —
the serve path computes no route value of its own, and every served
value is bitwise the from-scratch route on the stamped version.  A frame
is validated whole before anything is counted: a rejected request bumps
no counter.

The answer is stamped with ``(epoch, version)``: the epoch that
committed the overlay and the :class:`GlobalWiring` version the matrix
was computed on.  Mutations accepted but not yet committed never leak
into an answer — they only apply inside the next ``begin_epoch``.

Crash safety
------------
Sessions are byte-deterministic, which makes recovery cheap:
"checkpoint + bounded log-suffix replay, digest-verified".

* Every log append is fsynced before the caller acts on it, so an
  *acknowledged* mutation is on disk before its ack leaves the process.
* With a :class:`~repro.serve.checkpoint.CheckpointManager` attached,
  every ``checkpoint_every`` epochs the service atomically snapshots the
  session (pickled engines — bit-exact RNG state), seals the current
  log segment, and starts a fresh one anchored at that checkpoint — so
  :meth:`recover` replays at most one checkpoint interval.
* Mutations carry optional client **idempotency keys**; a bounded
  server-side dedupe window (checkpointed, and rebuilt from the log
  suffix on recovery) makes a retried mutation apply exactly once, even
  across a crash between the ack and the retry.
* :meth:`step` accepts the client's expected epoch count and answers a
  duplicate request (a retry of a step whose ack was lost in a crash)
  with the already-committed epoch's digest instead of advancing again.

Replay parity
-------------
The serve path is a scheduler around the existing kernels, never a
second engine: ``tick`` is exactly one :meth:`Session.step`.  Replaying
the mutation log through a fresh batch Session (``repro serve-replay``)
therefore reproduces every served epoch byte-identically, which the log
digests assert — and :meth:`recover` uses the same digests to verify a
restored checkpoint before accepting connections.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codec import (
    cache_stats_to_json,
    epoch_record_digest,
    epoch_record_to_json,
)
from repro.core.cost import DISCONNECTION_COST
from repro.routing.shortest_path import shortest_path
from repro.routing.widest_path import widest_path
from repro.scenario.lifecycle import Mutation, Session
from repro.scenario.spec import ScenarioSpec
from repro.serve.checkpoint import CheckpointManager, CheckpointState
from repro.serve.oplog import (
    LOG_SCHEMA_VERSION,
    LogWriter,
    compact_segments,
    read_segment,
    segment_path,
)
from repro.telemetry import runtime as telemetry
from repro.telemetry.diagnostics import pooled_cache_stats
from repro.util.validation import ValidationError

#: Idempotency keys remembered for mutation dedupe (FIFO window).
DEDUPE_WINDOW = 1024

#: Recent epoch digests kept for idempotent ``step`` replies.
EPOCH_DIGEST_WINDOW = 128


class ServeError(ValidationError):
    """A request the service cannot serve, with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class RecoveryError(ValidationError):
    """Recovery could not restore a state consistent with the log."""


@dataclass
class RecoveryReport:
    """What one :meth:`OverlayService.recover` run did."""

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
    #: Checkpoint files skipped as invalid while hunting for a good one.
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


class OverlayService:
    """Serve lookups and session mutations over one live Session.

    Parameters
    ----------
    spec:
        The scenario to hold live (one engine per (policy, k) cell).
    batched:
        Kernel path for the underlying engines (results are identical).
    log_path:
        Optional mutation-log path (JSONL, append-only, fsynced per
        entry).  Without it the service keeps no log and cannot be
        replayed or recovered.
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
    dedupe_window:
        Idempotency keys remembered for exactly-once mutation retries.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        batched: bool = True,
        log_path: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 0,
        dedupe_window: int = DEDUPE_WINDOW,
        _restore: Optional[Dict[str, object]] = None,
    ):
        if checkpoint_dir is not None and log_path is None:
            raise ValidationError(
                "checkpoint_dir requires log_path: checkpoints anchor log "
                "segments, there is nothing to anchor without a log"
            )
        if int(dedupe_window) < 1:
            raise ValidationError("dedupe_window must be at least 1")
        self.spec = spec
        self.batched = bool(batched)
        self.checkpoint_every = max(0, int(checkpoint_every))
        self.keep_checkpoints = max(0, int(keep_checkpoints))
        self.dedupe_window = int(dedupe_window)
        self.closed = False
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        #: Per-label overlay graphs of the committed epoch (``want_path``).
        self._graphs: Dict[str, object] = {}
        #: Idempotency-key dedupe window: key -> applied_epoch (FIFO).
        self._dedupe: "OrderedDict[str, int]" = OrderedDict()
        #: Recent committed-epoch digests for idempotent ``step`` replies.
        self._epoch_digests: "OrderedDict[int, str]" = OrderedDict()
        self.counters: Dict[str, int] = {
            "lookups": 0,
            # Vestigial (0, 0, == lookups): bench/serve_workloads.py indexes
            # all three on every traced run; see ROADMAP [1].
            "rows_from_cache": 0,
            "rows_from_sweep": 0,
            "row_memo_hits": 0,
            "mutations": 0,
            "epochs": 0,
            "checkpoints": 0,
            "recoveries": 0,
            "retries": 0,
            "shed": 0,
            "internal_errors": 0,
        }
        self.last_recovery: Optional[RecoveryReport] = None
        self._checkpoints = (
            CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        )
        registry = telemetry.metrics()
        if registry is not None:
            # Snapshot-time folding, like the route caches: the service
            # keeps bumping its plain-int counters and the registry reads
            # them (prefixed ``serve.``) whenever someone snapshots.
            registry.register_collector(self._collect_counters)
        if _restore is not None:
            self.session: Session = _restore["session"]
            self._log: Optional[LogWriter] = _restore["log"]
            self._dedupe.update(_restore["dedupe"])
            self._epoch_digests.update(_restore["epoch_digests"])
            self.last_recovery = _restore["report"]
            self.counters["recoveries"] = 1
            return
        self.session = Session.open(spec, batched=batched)
        self._log = LogWriter(log_path) if log_path else None
        if self._log is not None:
            self._log.append(self._header(segment=0, resumed_from=None))

    def _header(
        self, *, segment: int, resumed_from: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        header: Dict[str, object] = {
            "kind": "open",
            "schema": LOG_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "batched": self.batched,
            "segment": int(segment),
        }
        if resumed_from is not None:
            header["resumed_from"] = resumed_from
        return header

    # ------------------------------------------------------------------ #
    # Epoch scheduling
    # ------------------------------------------------------------------ #
    def tick(self) -> Dict[str, object]:
        """Advance one epoch and notify subscribers.

        The returned payload is the ``subscribe`` stream's event line:
        the committed epoch's records (codec JSON) per deployment, the
        pooled cache diagnostics, and the epoch digest that the mutation
        log records for replay parity.  When the epoch lands on the
        checkpoint cadence, the session is snapshotted and the log
        rotated before the payload is returned.
        """
        self._check_open()
        with telemetry.span("serve.tick", epoch=self.session.epochs_completed):
            records = self.session.step()
        self._graphs.clear()
        epoch = self.session.epochs_completed - 1
        digest = epoch_record_digest(records)
        self.counters["epochs"] += 1
        self._remember_digest(epoch, digest)
        self._log_entry({"kind": "epoch", "epoch": epoch, "digest": digest})
        self._maybe_checkpoint()
        payload: Dict[str, object] = {
            "event": "epoch",
            "epoch": epoch,
            "digest": digest,
            "records": {
                label: epoch_record_to_json(record)
                for label, record in zip(self.session.labels, records)
            },
            "cache": cache_stats_to_json(
                pooled_cache_stats(e.route_cache for e in self.session.batch.engines)
            ),
        }
        for notify in list(self._subscribers):
            notify(payload)
        return payload

    def step(self, expect: Optional[int] = None) -> Dict[str, object]:
        """One :meth:`tick`, idempotent against crash-lost acks.

        ``expect`` is the number of epochs the client believes have been
        committed — "advance from ``expect`` to ``expect + 1``".  When
        the service is already one epoch ahead (the previous attempt
        committed but its ack was lost to a crash or dropped
        connection), the committed epoch's digest is returned again
        without stepping, so a retried ``step`` advances exactly one
        epoch no matter how many times it is sent.  Any other mismatch
        is an ``epoch-mismatch`` error: the client's view has diverged
        by more than a lost ack and must resynchronise via ``snapshot``.
        """
        self._check_open()
        if expect is None:
            return self.tick()
        try:
            expect = int(expect)
        except (TypeError, ValueError, OverflowError):
            raise ServeError("bad-request", "step expect must be an epoch count")
        done = self.session.epochs_completed
        if expect == done:
            return self.tick()
        if expect == done - 1:
            digest = self._epoch_digests.get(done - 1)
            if digest is None:  # pragma: no cover - window exceeded
                raise ServeError(
                    "epoch-mismatch",
                    f"epoch {done - 1} is outside the digest window",
                )
            self.counters["retries"] += 1
            telemetry.count("serve.step.deduplicated")
            return {
                "event": "epoch",
                "epoch": done - 1,
                "digest": digest,
                "duplicate": True,
            }
        raise ServeError(
            "epoch-mismatch",
            f"step expected {expect} completed epochs but the service has "
            f"{done}; resynchronise with a snapshot",
        )

    def subscribe(self, notify: Callable[[Dict[str, object]], None]) -> None:
        """Register a callback receiving every :meth:`tick` payload."""
        self._subscribers.append(notify)

    def unsubscribe(self, notify: Callable[[Dict[str, object]], None]) -> None:
        """Remove a subscriber (ignores unknown callbacks)."""
        try:
            self._subscribers.remove(notify)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    def _remember_digest(self, epoch: int, digest: str) -> None:
        self._epoch_digests[epoch] = digest
        while len(self._epoch_digests) > EPOCH_DIGEST_WINDOW:
            self._epoch_digests.popitem(last=False)

    def _maybe_checkpoint(self) -> None:
        if (
            self._checkpoints is None
            or self.checkpoint_every <= 0
            or self.session.epochs_completed % self.checkpoint_every != 0
        ):
            return
        self.write_checkpoint()

    def write_checkpoint(self) -> Optional[str]:
        """Snapshot the session now and rotate the log onto it.

        The checkpoint anchors the *next* segment: its envelope records
        the state at the segment boundary, the sealed segment ends with
        a ``checkpoint`` entry naming it, and the fresh segment's header
        resumes from it — so recovery of the fresh segment replays only
        entries after this point.  Returns the checkpoint file name
        (None when the service has no checkpoint manager).
        """
        self._check_open()
        if self._checkpoints is None or self._log is None:
            return None
        with telemetry.span(
            "serve.checkpoint", epochs=self.session.epochs_completed
        ):
            next_segment = self._log.segment + 1
            name = self._checkpoints.write(
                self.session,
                spec=self.spec.to_dict(),
                batched=self.batched,
                epochs_completed=self.session.epochs_completed,
                segment=next_segment,
                epoch_digests=dict(self._epoch_digests),
                dedupe=dict(self._dedupe),
            )
            self._log.append(
                {
                    "kind": "checkpoint",
                    "epochs_completed": self.session.epochs_completed,
                    "file": name,
                }
            )
            self._log.rotate(
                self._header(
                    segment=next_segment,
                    resumed_from={
                        "checkpoint": name,
                        "epochs_completed": self.session.epochs_completed,
                    },
                )
            )
            # Surfaced through the registry by the counter collector —
            # no telemetry.count here, which would double-report it.
            self.counters["checkpoints"] += 1
            self._compact()
        return name

    def _compact(self) -> None:
        """Apply the retention policy after a successful checkpoint."""
        if self.keep_checkpoints <= 0 or self._checkpoints is None:
            return
        self._checkpoints.prune(self.keep_checkpoints)
        oldest = self._checkpoints.oldest_segment()
        if oldest is not None and self._log is not None:
            compact_segments(self._log.path, keep_from=oldest - 1)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def recover(
        cls,
        log_path: str,
        *,
        checkpoint_dir: Optional[str] = None,
        batched: Optional[bool] = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 0,
        dedupe_window: int = DEDUPE_WINDOW,
    ) -> "OverlayService":
        """Restore a service from its mutation log (and checkpoints).

        The recovery protocol:

        1. read the current log segment, repairing a torn final line
           (the raw tail goes to a ``.corrupt`` sidecar);
        2. restore the starting state — the checkpoint the segment's
           header resumes from (digest-verified, falling back to older
           checkpoints or a full archived-chain replay when it is
           damaged), or a fresh session for a segment-0 log;
        3. replay the segment's suffix through the engines, digest-
           checking every replayed epoch against the log's sealed
           digests — a mismatch aborts recovery rather than serving
           diverged state;
        4. rebuild the idempotency dedupe window (checkpointed base plus
           suffix entries), archive the crashed segment, write a fresh
           recovery checkpoint, and open a new segment anchored on it.

        The returned service's :attr:`last_recovery` report says what
        happened; its ``bounded`` flag asserts the replay never exceeded
        one checkpoint interval.
        """
        with telemetry.span("serve.recovery"):
            return cls._recover(
                log_path,
                checkpoint_dir=checkpoint_dir,
                batched=batched,
                checkpoint_every=checkpoint_every,
                keep_checkpoints=keep_checkpoints,
                dedupe_window=dedupe_window,
            )

    @classmethod
    def _recover(
        cls,
        log_path: str,
        *,
        checkpoint_dir: Optional[str],
        batched: Optional[bool],
        checkpoint_every: int,
        keep_checkpoints: int,
        dedupe_window: int,
    ) -> "OverlayService":
        read = read_segment(log_path, repair=True)
        entries = read.entries
        if not entries or entries[0].get("kind") != "open":
            raise RecoveryError(
                f"{log_path}: log does not start with an open header; "
                "cannot recover"
            )
        header = entries[0]
        if header.get("schema") not in (1, LOG_SCHEMA_VERSION):
            raise RecoveryError(
                f"{log_path}: unsupported log schema {header.get('schema')!r}"
            )
        spec = ScenarioSpec.from_dict(header["spec"])
        if batched is None:
            batched = bool(header.get("batched", True))
        segment = int(header.get("segment", 0))
        resumed = header.get("resumed_from")
        manager = (
            CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        )

        state: Optional[CheckpointState] = None
        skipped: List[str] = []
        if resumed is not None:
            state, skipped = cls._restore_start_state(
                log_path, resumed, segment, manager, batched
            )
        if state is not None:
            session: Session = state.session
            # The pickled batch carries its own kernel flag; honour an
            # explicit override (both paths are bit-identical).
            session.batch.batched = bool(batched)
            checkpoint_name = state.name
            checkpoint_epochs = state.epochs_completed
            dedupe: "OrderedDict[str, int]" = OrderedDict(
                sorted(state.dedupe.items(), key=lambda item: item[1])
            )
            digests: "OrderedDict[int, str]" = OrderedDict(
                sorted(state.epoch_digests.items())
            )
        else:
            session = Session.open(spec, batched=bool(batched))
            checkpoint_name = None
            checkpoint_epochs = 0
            dedupe = OrderedDict()
            digests = OrderedDict()

        replayed_epochs = 0
        replayed_mutations = 0
        was_sealed = False
        for entry in entries[1:]:
            kind = entry.get("kind")
            if kind == "mutate":
                mutation = Mutation.from_dict(entry["mutation"])
                session.mutate(mutation)
                replayed_mutations += 1
                idem = entry.get("idem")
                if isinstance(idem, str):
                    dedupe[idem] = int(entry.get("applied_epoch", 0))
            elif kind == "epoch":
                records = session.step()
                digest = epoch_record_digest(records)
                if digest != entry.get("digest"):
                    raise RecoveryError(
                        f"recovered state diverged at epoch {entry.get('epoch')}: "
                        f"log sealed {entry.get('digest')!r} but replay produced "
                        f"{digest!r} — refusing to serve"
                    )
                digests[int(entry.get("epoch", 0))] = digest
                replayed_epochs += 1
            elif kind == "checkpoint":
                # Crash landed between the checkpoint entry and the
                # rotation; the snapshot (if it survived) re-anchors on
                # the next rotation anyway.
                continue
            elif kind == "close":
                was_sealed = True
            else:
                raise RecoveryError(f"unknown log entry kind {kind!r}")

        while len(dedupe) > int(dedupe_window):
            dedupe.popitem(last=False)
        while len(digests) > EPOCH_DIGEST_WINDOW:
            digests.popitem(last=False)

        # Archive the crashed segment and resume writing into a fresh
        # one, anchored on a checkpoint of the just-recovered state.
        new_segment = segment + 1
        os.replace(log_path, segment_path(log_path, segment))
        resumed_from: Optional[Dict[str, object]] = None
        if manager is not None:
            name = manager.write(
                session,
                spec=spec.to_dict(),
                batched=bool(batched),
                epochs_completed=session.epochs_completed,
                segment=new_segment,
                epoch_digests=dict(digests),
                dedupe=dict(dedupe),
            )
            resumed_from = {
                "checkpoint": name,
                "epochs_completed": session.epochs_completed,
            }
        else:
            resumed_from = {
                "checkpoint": None,
                "epochs_completed": session.epochs_completed,
            }
        log = LogWriter(log_path, segment=new_segment)

        report = RecoveryReport(
            checkpoint=checkpoint_name,
            checkpoint_epochs=checkpoint_epochs,
            replayed_epochs=replayed_epochs,
            replayed_mutations=replayed_mutations,
            torn_tail_bytes=len(read.torn_tail or b""),
            sidecar=read.sidecar,
            epochs_completed=session.epochs_completed,
            segment=new_segment,
            checkpoint_every=max(0, int(checkpoint_every)),
            skipped_checkpoints=skipped,
            was_sealed=was_sealed,
        )
        service = cls(
            spec,
            batched=bool(batched),
            log_path=log_path,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            dedupe_window=dedupe_window,
            _restore={
                "session": session,
                "log": log,
                "dedupe": dedupe,
                "epoch_digests": digests,
                "report": report,
            },
        )
        log.append(service._header(segment=new_segment, resumed_from=resumed_from))
        return service

    @classmethod
    def _restore_start_state(
        cls,
        log_path: str,
        resumed: Dict[str, object],
        segment: int,
        manager: Optional[CheckpointManager],
        batched: bool,
    ) -> Tuple[Optional[CheckpointState], List[str]]:
        """The session state the current segment starts from.

        Prefers the exact checkpoint the header names; a damaged or
        missing checkpoint falls back to replaying the archived segment
        chain from scratch (when it is complete), because a wrong
        starting state would fail every digest check anyway.
        """
        skipped: List[str] = []
        wanted_epochs = int(resumed.get("epochs_completed", 0))
        if manager is not None and resumed.get("checkpoint"):
            try:
                state = manager.load(str(resumed["checkpoint"]))
                if state.epochs_completed == wanted_epochs:
                    return state, skipped
                skipped.append(
                    f"{resumed['checkpoint']}: epochs_completed "
                    f"{state.epochs_completed} != header's {wanted_epochs}"
                )
            except ValidationError as error:
                skipped.append(str(error))
        # Chain fallback: rebuild the anchor state by replaying every
        # archived segment from the beginning.
        from repro.serve.replay import collect_windows, session_from_segments

        try:
            session = session_from_segments(
                log_path, through_segment=segment - 1, batched=batched
            )
        except ValidationError as error:
            raise RecoveryError(
                f"cannot restore the state segment {segment} resumes from: "
                f"checkpoint unusable ({'; '.join(skipped) or 'none named'}) "
                f"and chain replay failed ({error})"
            )
        if session.epochs_completed != wanted_epochs:
            raise RecoveryError(
                f"chain replay reached {session.epochs_completed} epochs but "
                f"segment {segment} resumes from {wanted_epochs}"
            )
        digests, dedupe = collect_windows(log_path, through_segment=segment - 1)
        state = CheckpointState(
            name=None,  # the report shows a from-scratch chain replay
            session=session,
            spec={},
            batched=batched,
            epochs_completed=session.epochs_completed,
            segment=segment,
            epoch_digests=digests,
            dedupe=dedupe,
        )
        return state, skipped

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def _view(self, label: Optional[str]):
        engine = self.session.engine(label)
        view = engine.last_epoch_view
        if view is None:
            raise ServeError(
                "no-epoch",
                "no epoch has been committed yet; step the session (or start "
                "the server with warmup epochs) before looking up routes",
            )
        return engine, view

    def _graph(self, label: str, engine, view):
        graph = self._graphs.get(label)
        if graph is None:
            graph = self._graphs[label] = engine.wiring.to_graph(
                active=view.active_list
            )
        return graph

    def _check_pair(self, src: int, dst: int) -> Tuple[int, int]:
        try:
            src, dst = int(src), int(dst)
        except (TypeError, ValueError, OverflowError):
            raise ServeError("bad-request", "src and dst must be node ids")
        n = self.spec.n
        if not (0 <= src < n and 0 <= dst < n):
            raise ServeError("bad-request", f"src/dst out of range for n={n}")
        if src == dst:
            raise ServeError("bad-request", "src and dst must differ")
        return src, dst

    def _check_frame(
        self, pairs: Sequence[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A whole frame as validated ``(srcs, dsts)`` index arrays.

        A frame of in-range integer pairs passes on three vector tests
        over one flat array (sources, then destinations).  Anything else
        — ragged, wrong arity, non-integer or out-of-range ids,
        ``src == dst`` — is walked pair by pair, so the first bad pair
        raises :meth:`_check_pair`'s error and ids ``int()`` accepts
        (``"3"``, ``3.0``, ``True``) keep being served.
        """
        count = len(pairs)
        flat = None
        if set(map(type, pairs)) <= {list, tuple}:
            try:
                srcs, dsts = zip(*pairs, strict=True)
                flat = np.array(srcs + dsts)
            except ValueError:  # ragged, wrong arity, nested, or empty
                pass
        if (
            flat is not None
            and flat.dtype.kind == "i"
            and 0 <= flat.min()
            and flat.max() < self.spec.n
        ):
            srcs, dsts = flat[:count], flat[count:]
            if (srcs != dsts).all():
                return srcs, dsts
        checked: List[Tuple[int, int]] = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ServeError("bad-request", "each pair must be [src, dst]")
            checked.append(self._check_pair(pair[0], pair[1]))
        frame = np.array(checked, dtype=np.intp).reshape(-1, 2)
        return frame[:, 0], frame[:, 1]

    def lookup(
        self,
        src: int,
        dst: int,
        *,
        engine: Optional[str] = None,
        want_path: bool = False,
    ) -> Dict[str, object]:
        """Route value (optionally the path) from ``src`` to ``dst``."""
        self._check_open()
        src, dst = self._check_pair(src, dst)
        eng, view = self._view(engine)
        label = engine if engine is not None else self.session.labels[0]
        value = float(view.route_values[src, dst])
        if view.announced.maximize:
            reachable = math.isfinite(value) and value > 0.0
        else:
            reachable = math.isfinite(value) and value < DISCONNECTION_COST
        self.counters["lookups"] += 1
        self.counters["row_memo_hits"] += 1
        result: Dict[str, object] = {
            "src": src,
            "dst": dst,
            "value": value if reachable else None,
            "reachable": reachable,
            "engine": label,
            "epoch": view.epoch,
            "version": view.version,
        }
        if want_path:
            graph = self._graph(label, eng, view)
            finder = widest_path if view.announced.maximize else shortest_path
            path = finder(graph, src, dst) if reachable else None
            result["path"] = list(path) if path is not None else None
        return result

    def lookup_batch(
        self, pairs: Sequence[Sequence[int]], *, engine: Optional[str] = None
    ) -> Dict[str, object]:
        """Route values for many ``(src, dst)`` pairs in one call.

        The workload generator's hot path: the frame is validated whole
        and the answer is one gather from the epoch's route matrix.
        ``values`` holds one entry per pair (None when unreachable), in
        pair order.
        """
        self._check_open()
        if not isinstance(pairs, (list, tuple)):
            raise ServeError("bad-request", "pairs must be a list of [src, dst] pairs")
        _, view = self._view(engine)
        label = engine if engine is not None else self.session.labels[0]
        srcs, dsts = self._check_frame(pairs)
        got = view.route_values[srcs, dsts]
        if view.announced.maximize:
            reachable = np.isfinite(got) & (got > 0.0)
        else:
            reachable = np.isfinite(got) & (got < DISCONNECTION_COST)
        values: List[object] = got.tolist()
        for index in np.flatnonzero(~reachable).tolist():
            values[index] = None
        self.counters["lookups"] += len(values)
        self.counters["row_memo_hits"] += len(values)
        return {
            "values": values,
            "engine": label,
            "epoch": view.epoch,
            "version": view.version,
        }

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def mutate(
        self, data: Dict[str, object], *, idem: Optional[str] = None
    ) -> Dict[str, object]:
        """Enqueue a mutation for the next epoch; logs the resolved form.

        ``idem`` is the client's idempotency key: a repeated key inside
        the dedupe window returns the original acknowledgement without
        enqueueing again, so a client retrying a mutation whose ack was
        lost (connection drop, server crash after the durable log
        append) applies it exactly once.  The ack only leaves this
        method after the log entry is fsynced — an acknowledged mutation
        is never lost to a crash.

        A ``failure`` mutation whose event omits ``epoch`` is resolved
        to the next epoch index here, *before* logging, so the log
        replays deterministically.
        """
        self._check_open()
        if idem is not None:
            if not isinstance(idem, str) or not idem or len(idem) > 128:
                raise ServeError(
                    "bad-request",
                    "idem must be a non-empty string of at most 128 characters",
                )
            if idem in self._dedupe:
                self.counters["retries"] += 1
                telemetry.count("serve.mutate.deduplicated")
                return {
                    "applied_epoch": self._dedupe[idem],
                    "deduplicated": True,
                }
        if not isinstance(data, dict):
            raise ServeError("bad-request", "mutation must be a JSON object")
        if (
            data.get("kind") == "failure"
            and isinstance(data.get("event"), dict)
            and "epoch" not in data["event"]
        ):
            data = dict(data)
            data["event"] = {**data["event"], "epoch": self.session.epochs_completed}
        try:
            mutation = Mutation.from_dict(data)
        except ValidationError as error:
            raise ServeError("bad-request", str(error))
        applied_epoch = self.session.mutate(mutation)
        self.counters["mutations"] += 1
        entry: Dict[str, object] = {
            "kind": "mutate",
            "applied_epoch": applied_epoch,
            "mutation": mutation.to_dict(),
        }
        if idem is not None:
            entry["idem"] = idem
            self._dedupe[idem] = applied_epoch
            while len(self._dedupe) > self.dedupe_window:
                self._dedupe.popitem(last=False)
        self._log_entry(entry)
        return {"applied_epoch": applied_epoch}

    # ------------------------------------------------------------------ #
    # Introspection / shutdown
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """The live session snapshot plus service identity."""
        self._check_open()
        snapshot = self.session.snapshot()
        snapshot["batched"] = self.batched
        return snapshot

    def stats(self) -> Dict[str, object]:
        """Service counters plus the pooled route-cache diagnostics."""
        self._check_open()
        return {
            "counters": dict(self.counters),
            "cache": cache_stats_to_json(
                pooled_cache_stats(e.route_cache for e in self.session.batch.engines)
            ),
            "epochs_completed": self.session.epochs_completed,
            "dedupe": {
                "window": self.dedupe_window,
                "size": len(self._dedupe),
            },
            "recovery": (
                self.last_recovery.to_dict()
                if self.last_recovery is not None
                else None
            ),
        }

    def metrics(self) -> Dict[str, object]:
        """:meth:`stats` superset: adds the telemetry registry snapshot.

        ``metrics`` is ``None`` when the process runs without a registry
        (``repro serve`` always enables one); the ``stats`` fields are
        unchanged so existing clients can upgrade by switching ops.
        """
        data = self.stats()
        registry = telemetry.metrics()
        data["metrics"] = registry.snapshot() if registry is not None else None
        return data

    def _collect_counters(self) -> Dict[str, float]:
        """The service counters as registry-snapshot entries."""
        return {
            f"serve.{name}": float(value) for name, value in self.counters.items()
        }

    def close(self) -> None:
        """Close the session and seal the mutation log."""
        if self.closed:
            return
        self.closed = True
        epochs = self.session.epochs_completed
        self.session.close()
        self._log_entry({"kind": "close", "epochs": epochs})
        if self._log is not None:
            self._log.close()
            self._log = None

    def _check_open(self) -> None:
        if self.closed:
            raise ServeError("closed", "the service is shut down")

    def _log_entry(self, entry: Dict[str, object]) -> None:
        if self._log is None:
            return
        self._log.append(entry)


__all__ = [
    "DEDUPE_WINDOW",
    "EPOCH_DIGEST_WINDOW",
    "LOG_SCHEMA_VERSION",
    "OverlayService",
    "RecoveryError",
    "RecoveryReport",
    "ServeError",
]
