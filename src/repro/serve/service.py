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

A served value's JSON token (``float.__repr__``, or ``null`` when
unreachable) is a pure function of the view it was read from, so the
service keeps one lazily filled token table per committed view and a
``lookup_batch`` answer carries its values pre-joined
(:class:`~repro.serve.protocol.EncodedValues`): each cell is formatted
at most once per epoch however many frames read it.  The table lives on
the service, never on the view, so it never reaches a checkpoint.

The answer is stamped with ``(epoch, version)``: the epoch that
committed the overlay and the :class:`GlobalWiring` version the matrix
was computed on.  Mutations accepted but not yet committed never leak
into an answer — they only apply inside the next ``begin_epoch``.

Crash safety
------------
The log, checkpoints, the retry windows and crash recovery are
:class:`~repro.serve.durable.DurableState`'s.  The service calls into it
at each durable moment and acks a mutation only once its entry is fsynced.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codec import epoch_record_digest, epoch_record_to_json
from repro.core.cost import DISCONNECTION_COST
from repro.routing.shortest_path import shortest_path
from repro.routing.widest_path import widest_path
from repro.scenario.lifecycle import Mutation, Session
from repro.scenario.spec import ScenarioSpec
from repro.serve.durable import DEDUPE_WINDOW, DurableState, RecoveryReport
from repro.serve.protocol import EncodedValues
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


class ServeError(ValidationError):
    """A request the service cannot serve, with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class OverlayService:
    """Serve lookups and session mutations over one live Session.

    Parameters
    ----------
    spec:
        The scenario to hold live (one engine per (policy, k) cell).
    log_path, checkpoint_dir, checkpoint_every, keep_checkpoints:
        The mutation log and checkpoint policy, handed to
        :class:`~repro.serve.durable.DurableState` (see there).
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
        self.durable = DurableState(
            spec,
            log_path=log_path,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
        )
        self._start(Session.open(spec))
        self.durable.open(self.session)

    def _start(self, session: Session) -> None:
        """Hold ``session`` live (``self.durable`` is already set)."""
        self.spec = self.durable.spec
        self.session = session
        self.closed = False
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        #: Per-label overlay graphs of the committed epoch (``want_path``).
        self._graphs: Dict[str, object] = {}
        #: Per-label JSON value tokens of the committed view: the view
        #: they were read from (checked by identity), the ``(n, n)``
        #: token table and its filled mask (``lookup_batch``).
        self._tokens: Dict[str, Tuple[object, np.ndarray, np.ndarray]] = {}
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
            "recoveries": 0 if self.last_recovery is None else 1,
            "retries": 0,
            "shed": 0,
            "internal_errors": 0,
        }
        registry = telemetry.metrics()
        if registry is not None:
            # Snapshot-time folding, like the route caches: the service
            # keeps bumping its plain-int counters and the registry reads
            # them (prefixed ``serve.``) whenever someone snapshots.
            registry.register_collector(self._collect_counters)

    @property
    def last_recovery(self) -> Optional[RecoveryReport]:
        """What :meth:`recover` did (None for a fresh service)."""
        return self.durable.last_recovery

    @classmethod
    def recover(
        cls,
        log_path: str,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 0,
    ) -> "OverlayService":
        """Restore a service from its mutation log (and checkpoints).

        See :meth:`repro.serve.durable.DurableState.recover`;
        :attr:`last_recovery` reports what happened.
        """
        with telemetry.span("serve.recovery"):
            service = cls.__new__(cls)
            service.durable, session = DurableState.recover(
                log_path,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                keep_checkpoints=keep_checkpoints,
            )
            service._start(session)
            return service

    # ------------------------------------------------------------------ #
    # Epoch scheduling
    # ------------------------------------------------------------------ #
    def tick(self) -> Dict[str, object]:
        """Advance one epoch and notify subscribers.

        The returned payload is the ``subscribe`` stream's event line:
        the committed epoch's records (codec JSON) per deployment and the
        epoch digest that the mutation log records for replay parity.
        When the epoch lands on the checkpoint cadence, the session is
        snapshotted and the log rotated before the payload is returned.
        """
        self._check_open()
        with telemetry.span("serve.tick", epoch=self.session.epochs_completed):
            records = self.session.step()
        self._graphs.clear()
        self._tokens.clear()
        epoch = self.session.epochs_completed - 1
        digest = epoch_record_digest(records)
        self.counters["epochs"] += 1
        self.durable.commit_epoch(epoch, digest)
        if self.durable.checkpoint_due(self.session.epochs_completed):
            self.write_checkpoint()
        payload: Dict[str, object] = {
            "event": "epoch",
            "epoch": epoch,
            "digest": digest,
            "records": {
                label: epoch_record_to_json(record)
                for label, record in zip(self.session.labels, records)
            },
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
            digest = self.durable.epoch_digests.get(done - 1)
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

    def write_checkpoint(self) -> Optional[str]:
        """Snapshot the session and rotate the log; the checkpoint's name.

        None without a checkpoint directory (see
        :meth:`repro.serve.durable.DurableState.write_checkpoint`).
        """
        self._check_open()
        name = self.durable.write_checkpoint(self.session)
        if name is not None:
            # Surfaced through the registry by the counter collector —
            # no telemetry.count here, which would double-report it.
            self.counters["checkpoints"] += 1
        return name

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
        pair order, as :class:`EncodedValues` whose JSON text is joined
        from the view's value tokens (:meth:`_values_json`).
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
        values = EncodedValues(got.tolist())
        for index in np.flatnonzero(~reachable).tolist():
            values[index] = None
        cells = srcs * view.route_values.shape[1] + dsts
        values.json = self._values_json(label, view, cells, values)
        self.counters["lookups"] += len(values)
        self.counters["row_memo_hits"] += len(values)
        return {
            "values": values,
            "engine": label,
            "epoch": view.epoch,
            "version": view.version,
        }

    def _values_json(
        self, label: str, view, cells: np.ndarray, values: List[object]
    ) -> str:
        """``values`` (read at flat ``cells`` of ``view``) as compact JSON.

        Each cell's token is built the first time a frame reads it from
        this view — exactly the text the plain JSON encoder gives it — and
        reused by every later frame until the view is replaced.
        """
        entry = self._tokens.get(label)
        if entry is None or entry[0] is not view:
            size = view.route_values.size
            entry = self._tokens[label] = (
                view,
                np.empty(size, dtype=object),
                np.zeros(size, dtype=bool),
            )
        _, tokens, filled = entry
        missing = np.flatnonzero(~filled[cells])
        if missing.size:
            fresh, first = np.unique(cells[missing], return_index=True)
            tokens[fresh] = [
                "null" if values[index] is None else repr(values[index])
                for index in missing[first].tolist()
            ]
            filled[fresh] = True
            telemetry.count("serve.lookup_batch.encoded", len(fresh))
        return "[" + ",".join(tokens[cells].tolist()) + "]"

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
            applied_epoch = self.durable.dedupe.get(idem)
            if applied_epoch is not None:
                self.counters["retries"] += 1
                telemetry.count("serve.mutate.deduplicated")
                return {"applied_epoch": applied_epoch, "deduplicated": True}
        if not isinstance(data, dict):
            raise ServeError("bad-request", "mutation must be a JSON object")
        if (
            data.get("kind") == "failure"
            and isinstance(data.get("event"), dict)
            and "epoch" not in data["event"]
        ):
            data = dict(data)
            data["event"] = {**data["event"], "epoch": self.session.epochs_completed}
        # The session rejects what it could not apply (a node or link out
        # of range, an unknown deployment) before anything is logged: an
        # acked mutation must replay.
        try:
            mutation = Mutation.from_dict(data)
            applied_epoch = self.session.mutate(mutation)
        except ValidationError as error:
            raise ServeError("bad-request", str(error))
        self.counters["mutations"] += 1
        self.durable.commit_mutation(applied_epoch, mutation.to_dict(), idem)
        return {"applied_epoch": applied_epoch}

    # ------------------------------------------------------------------ #
    # Introspection / shutdown
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """The live session snapshot."""
        self._check_open()
        return self.session.snapshot()

    def stats(self) -> Dict[str, object]:
        """Service counters, epoch count, dedupe window and recovery."""
        self._check_open()
        return {
            "counters": dict(self.counters),
            "epochs_completed": self.session.epochs_completed,
            "dedupe": {
                "window": DEDUPE_WINDOW,
                "size": len(self.durable.dedupe),
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
        self.durable.close(epochs)

    def _check_open(self) -> None:
        if self.closed:
            raise ServeError("closed", "the service is shut down")


__all__ = ["OverlayService", "ServeError"]
