"""Resilience under injected failures (beyond the paper's churn story).

The paper's only resilience result is Fig. 2's churn panels; this driver
measures how a selfish overlay absorbs the failures production systems
actually see — a link cut mid-run, a correlated node outage, a partition
that later heals, a flapping link under announcement loss.  Every
(policy, k) pair is one engine deployment running the scenario's
:class:`~repro.core.failures.FailureSpec` schedule; the whole grid
advances in lockstep through
:class:`~repro.core.engine_batch.EngineBatch`, exactly like the churn
experiments (the sequential reference, ``run_spec(spec,
batched=False)``, matches it byte-for-byte, failures included).

Per series, the result's ``metadata["resilience"]`` reports:

* ``time_to_reconverge`` — epochs from the first injected event until a
  quiet (zero-re-wiring) epoch (None if the run never settles);
* ``cost_overshoot`` — relative peak of mean cost during repair over the
  pre-event baseline (None when a window is empty);
* ``routes_stuck`` — the per-epoch count of dead ordered routes from
  :class:`~repro.core.engine.EpochRecord`, plus its maximum.

``metadata["announcements_lost"]`` totals the link-state announcements
dropped by the configured message-loss rate across all deployments.
"""

from __future__ import annotations

from repro.churn.metrics import cost_overshoot, time_to_reconverge
from repro.core.engine_batch import EngineSpec
from repro.core.failures import FailureEvent, FailureSpec
from repro.experiments.harness import ExperimentResult
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import as_generator
from repro.util.validation import ValidationError

_FAILURE_POLICIES = ("k-closest", "best-response")


def _run_failures(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    failures = spec.failures
    if failures is None:
        raise ValidationError(
            "failures-resilience needs a failures spec (e.g. a link-down event)"
        )
    rng = as_generator(spec.seed)
    churn = session.churn_schedule(rng)
    preferences = session.preferences(rng)
    event_epoch = min((int(e.epoch) for e in failures.events), default=0)
    result = ExperimentResult(
        figure="failures-resilience",
        description="Mean node cost per epoch under injected failures",
        x_label="epoch",
        y_label="mean cost",
        metadata={"n": spec.n, "event_epoch": event_epoch},
    )
    policies = session.policy_map()
    cells = [
        (k, label, policy)
        for k in spec.k_grid
        for label, policy in policies.items()
    ]

    def build(cell, stream):
        k, label, policy = cell
        return EngineSpec(
            label=f"{label}@k={k}",
            provider=session.make_provider(stream),
            policy=policy,
            k=int(k),
            epoch_length=spec.epoch_length,
            announce_interval=spec.announce_interval,
            churn=churn,
            failures=failures,
            epsilon=spec.epsilon,
            preferences=preferences,
            compute_efficiency=spec.compute_efficiency,
            seed=stream,
        )

    batch = session.engine_batch(session.engine_grid(cells, rng, build))
    histories = batch.run(spec.epochs)
    resilience = {}
    for (k, label, _policy), history in zip(cells, histories):
        series = f"{label}@k={k}"
        for record in history.records:
            result.add_point(series, record.epoch, record.mean_cost)
        overshoot = cost_overshoot(history.records, event_epoch)
        resilience[series] = {
            "time_to_reconverge": time_to_reconverge(history.records, event_epoch),
            # NaN (empty window) becomes None so stored results stay
            # strict JSON.
            "cost_overshoot": float(overshoot) if overshoot == overshoot else None,
            "routes_stuck": [int(r.routes_stuck) for r in history.records],
            "max_routes_stuck": max(
                (int(r.routes_stuck) for r in history.records), default=0
            ),
        }
    result.metadata["resilience"] = resilience
    result.metadata["announcements_lost"] = int(
        sum(engine.protocol.stats.announcements_lost for engine in batch.engines)
    )
    return result


# A single-link cut-and-restore on (0, 1): valid at any n >= 2, so CLI
# overrides (--n) never invalidate the default schedule.
register_scenario(
    "failures-resilience",
    help="Resilience under injected failures: reconvergence, stuck routes, overshoot",
    default_spec=lambda: ScenarioSpec(
        experiment="failures-resilience",
        n=24,
        k_grid=(3, 5),
        policies=_FAILURE_POLICIES,
        metric="delay-true",
        epochs=10,
        failures=FailureSpec(
            events=(
                FailureEvent(epoch=2, action="link-down", links=((0, 1),)),
                FailureEvent(epoch=5, action="link-up", links=((0, 1),)),
            ),
            reannounce_delay=1,
        ),
        seed=2008,
    ),
    runner=_run_failures,
    smoke_args=("--n", "8", "--k", "2", "--epochs", "3"),
)
