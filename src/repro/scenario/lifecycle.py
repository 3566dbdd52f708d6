"""Explicit lifecycle of one live epoch-loop scenario.

:class:`Session` is the single execution planner of epoch-driven runs:
``open`` a spec into an :class:`~repro.core.engine_batch.EngineBatch`
(one deployment per (policy, k) cell, built with the same RNG discipline
as every registered runner), ``step`` it one epoch at a time, ``mutate``
it between epochs, ``snapshot`` its live state, and ``close`` it.

Batch execution — :meth:`SimulationSession.engine_sweep`, and through it
every registered epoch-loop experiment — is a thin loop over
:meth:`Session.step`, and ``repro serve`` schedules the same method on a
cadence, so there is exactly one code path that advances engines.  A
mutation enqueued via :meth:`Session.mutate` is applied at the next step
boundary, *before* ``begin_epoch`` runs — which is where the engines
commit membership, metric, and failure changes on both the fused and
sequential kernels — so a recorded (mutation, step) sequence replayed
through a fresh ``Session`` reproduces the original epoch records byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import EgoistEngine, EngineHistory, EpochRecord
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.failures import FailureEvent
from repro.scenario.spec import ScenarioSpec, parse_policy, policy_label
from repro.util.validation import ValidationError

#: Mutation kinds the session-control API accepts.
MUTATION_KINDS = ("join", "leave", "rewire", "drift", "failure")


@dataclass(frozen=True)
class Mutation:
    """One declarative session mutation, applied at the next step boundary.

    Parameters
    ----------
    kind:
        ``"join"``/``"leave"`` force nodes into/out of the active set,
        ``"rewire"`` tears down the named nodes' overlay links so they
        rebuild from scratch, ``"drift"`` advances substrate dynamics by
        ``steps`` extra steps, ``"failure"`` schedules a
        :class:`~repro.core.failures.FailureEvent`.
    nodes:
        Target node ids (join/leave/rewire).
    steps:
        Extra drift steps (drift only).
    event:
        The failure event (failure only).
    engines:
        Deployment labels the mutation targets; empty means all.
    """

    kind: str
    nodes: Tuple[int, ...] = ()
    steps: int = 1
    event: Optional[FailureEvent] = None
    engines: Tuple[str, ...] = ()

    def validate(self) -> "Mutation":
        """Check the mutation is well-formed; returns self for chaining."""
        if self.kind not in MUTATION_KINDS:
            raise ValidationError(
                f"unknown mutation kind {self.kind!r}; expected one of {MUTATION_KINDS}"
            )
        if self.kind in ("join", "leave", "rewire") and not self.nodes:
            raise ValidationError(f"{self.kind!r} mutations need at least one node")
        if self.kind == "drift" and int(self.steps) < 1:
            raise ValidationError("drift mutations need steps >= 1")
        if self.kind == "failure":
            if self.event is None:
                raise ValidationError("failure mutations need an event")
            self.event.validate()
        return self

    def to_dict(self) -> Dict[str, object]:
        """Canonical (JSON-ready, log-line) form."""
        self.validate()
        data: Dict[str, object] = {"kind": self.kind}
        if self.nodes:
            data["nodes"] = [int(v) for v in self.nodes]
        if self.kind == "drift":
            data["steps"] = int(self.steps)
        if self.event is not None:
            data["event"] = {
                "epoch": int(self.event.epoch),
                "action": self.event.action,
                "nodes": [int(v) for v in self.event.nodes],
                "links": [[int(u), int(v)] for u, v in self.event.links],
            }
        if self.engines:
            data["engines"] = list(self.engines)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Mutation":
        """Inverse of :meth:`to_dict` (validated)."""
        if not isinstance(data, dict):
            raise ValidationError(f"a mutation must be an object, got {type(data).__name__}")
        unknown = set(data) - {"kind", "nodes", "steps", "event", "engines"}
        if unknown:
            raise ValidationError(f"unknown mutation fields {sorted(unknown)}")
        event = None
        if data.get("event") is not None:
            entry = data["event"]
            try:
                event = FailureEvent(
                    epoch=int(entry["epoch"]),
                    action=str(entry["action"]),
                    nodes=tuple(int(v) for v in entry.get("nodes", ())),
                    links=tuple((int(u), int(v)) for u, v in entry.get("links", ())),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as error:
                raise ValidationError(f"malformed mutation event: {error}")
        try:
            mutation = cls(
                kind=str(data.get("kind", "")),
                nodes=tuple(int(v) for v in data.get("nodes", ())),
                steps=int(data.get("steps", 1)),
                event=event,
                engines=tuple(str(label) for label in data.get("engines", ())),
            )
        except (TypeError, ValueError, OverflowError) as error:
            raise ValidationError(f"malformed mutation: {error}")
        return mutation.validate()


def _engine_specs(sim) -> List[EngineSpec]:
    """One :class:`EngineSpec` per (policy, k) cell of ``sim``'s spec.

    Follows the runners' RNG discipline: every master-stream draw
    (preferences, the shared churn schedule) happens before the per-cell
    streams are spawned, and each cell's provider and engine consume the
    same stream — so the batched and sequential paths, and any replay,
    see identical draws per deployment.
    """
    spec = sim.spec
    rng = sim.rng()
    preferences = sim.preferences(rng)
    churn = sim.churn_schedule(rng)
    cells = list(
        enumerate(
            (descriptor, int(k))
            for descriptor in spec.policies
            for k in spec.k_grid
        )
    )
    labels = [f"{policy_label(descriptor)}@k={k}" for _, (descriptor, k) in cells]
    if len(set(labels)) != len(labels):
        labels = [f"{label}#{index}" for index, label in enumerate(labels)]

    def build(cell, stream):
        index, (descriptor, k) = cell
        provider = sim.make_provider(stream)
        return EngineSpec(
            label=labels[index],
            provider=provider,
            policy=parse_policy(descriptor),
            k=k,
            epoch_length=spec.epoch_length,
            announce_interval=spec.announce_interval,
            churn=churn,
            cheating=sim.cheating_model(provider.true_metric()),
            failures=spec.failures,
            epsilon=spec.epsilon,
            preferences=preferences,
            compute_efficiency=spec.compute_efficiency,
            seed=stream,
        )

    return sim.engine_grid(cells, rng, build)


class Session:
    """The open/step/mutate/snapshot/close lifecycle over one EngineBatch."""

    def __init__(self, spec: ScenarioSpec, batch: EngineBatch):
        self.spec = spec
        self.batch = batch
        self.labels: List[str] = [engine_spec.label for engine_spec in batch.specs]
        self._by_label: Dict[str, EgoistEngine] = {
            label: engine for label, engine in zip(self.labels, batch.engines)
        }
        self._pending: List[Mutation] = []
        self._epochs = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, spec: ScenarioSpec, *, batched: bool = True) -> "Session":
        """Open ``spec`` as a live session (one engine per (policy, k))."""
        from repro.scenario.session import SimulationSession

        return cls.from_session(SimulationSession(spec, batched=batched))

    @classmethod
    def from_session(cls, sim) -> "Session":
        """Open a session over ``sim``'s spec, registered with its batches.

        The engine batch is created through ``sim.engine_batch`` so the
        simulation session's aggregated cache diagnostics include it.
        """
        return cls(sim.spec, sim.engine_batch(_engine_specs(sim)))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engines(self) -> List[EgoistEngine]:
        """The live engines, in deployment (label) order."""
        return self.batch.engines

    @property
    def epochs_completed(self) -> int:
        """Number of epochs stepped so far."""
        return self._epochs

    def engine(self, label: Optional[str] = None) -> EgoistEngine:
        """The engine for ``label`` (default: the first deployment)."""
        self._check_open()
        if label is None:
            return self.batch.engines[0]
        engine = self._by_label.get(label)
        if engine is None:
            raise ValidationError(
                f"unknown deployment {label!r}; expected one of {self.labels}"
            )
        return engine

    def mutate(self, mutation: Mutation) -> int:
        """Enqueue ``mutation``; returns the epoch index it applies before.

        Mutations accumulate in arrival order and all apply at the next
        :meth:`step` boundary, before the epoch begins.
        """
        self._check_open()
        mutation.validate()
        for label in mutation.engines:
            if label not in self._by_label:
                raise ValidationError(
                    f"unknown deployment {label!r}; expected one of {self.labels}"
                )
        if mutation.nodes:
            max_node = max(int(v) for v in mutation.nodes)
            if max_node >= self.spec.n or min(int(v) for v in mutation.nodes) < 0:
                raise ValidationError(
                    f"mutation node out of range for n={self.spec.n}"
                )
        self._pending.append(mutation)
        return self._epochs

    def _targets(self, mutation: Mutation) -> Sequence[EgoistEngine]:
        if not mutation.engines:
            return self.batch.engines
        return [self._by_label[label] for label in mutation.engines]

    def _apply(self, mutation: Mutation) -> None:
        for engine in self._targets(mutation):
            if mutation.kind == "join":
                engine.request_join(mutation.nodes)
            elif mutation.kind == "leave":
                engine.request_leave(mutation.nodes)
            elif mutation.kind == "rewire":
                engine.reset_wiring(mutation.nodes)
            elif mutation.kind == "drift":
                engine.advance_provider(mutation.steps)
            else:  # failure
                engine.inject_failure(mutation.event)

    def step(self) -> List[EpochRecord]:
        """Apply pending mutations, then advance every engine one epoch."""
        self._check_open()
        pending, self._pending = self._pending, []
        for mutation in pending:
            self._apply(mutation)
        records = self.batch.step_epoch()
        self._epochs += 1
        return records

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary of the live session state."""
        self._check_open()
        deployments = []
        for label, engine in zip(self.labels, self.batch.engines):
            view = engine.last_epoch_view
            deployments.append(
                {
                    "label": label,
                    "k": engine.k,
                    "wiring_version": engine.wiring.version,
                    "epoch": view.epoch if view is not None else None,
                    "active_nodes": len(view.active_list) if view is not None else None,
                }
            )
        return {
            "scenario": self.spec.to_dict(),
            "epochs_completed": self._epochs,
            "pending_mutations": len(self._pending),
            "deployments": deployments,
        }

    def close(self) -> List[EngineHistory]:
        """End the session; returns the per-deployment histories."""
        self._check_open()
        self._closed = True
        return [engine.history for engine in self.batch.engines]

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("the session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.close()


__all__ = ["MUTATION_KINDS", "Mutation", "Session"]
