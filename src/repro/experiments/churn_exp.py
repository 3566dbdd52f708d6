"""Figure 2: performance under churn.

Left panel: node efficiency (normalised by BR's) as a function of k under
trace-driven churn.  Right panel: efficiency as a function of the churn
rate for k = 5, where at sufficiently high churn HybridBR overtakes plain
BR (the crossover the paper highlights).

Both panels are epoch-loop scenarios: every (policy, k) — or (policy,
churn-rate) — pair is one engine deployment, and the whole grid advances
in lockstep through :class:`~repro.core.engine_batch.EngineBatch`
(``batched=True`` shares the residual route-value sweeps and fuses the
re-wiring scoring across deployments; ``batched=False`` preserves the
sequential engine byte-for-byte).  Dynamic membership rides the same
fused path: churned-down engines take the masked (padded) re-wiring
broadcasts, join/leave events between epochs only re-derive each
engine's active mask, and each round plans the residuals its steps read
— the results' ``metadata["cache"]`` records the sequential engines' memo
counters (all 0 on the batched path).
"""

from __future__ import annotations

from typing import Dict

from repro.core.engine_batch import EngineSpec
from repro.core.providers import DelayMetricProvider
from repro.experiments.harness import ExperimentResult, _param_list, add_normalized_sweep
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ChurnSpec, ScenarioSpec
from repro.util.rng import as_generator
from repro.util.validation import ValidationError

DEFAULT_K_VALUES = (3, 4, 5, 6, 7, 8)
DEFAULT_CHURN_RATES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

#: The policy set of both panels (HybridBR's k2 rides in the descriptor).
_CHURN_POLICIES = (
    "k-random",
    "k-regular",
    "k-closest",
    "best-response",
    "hybrid-br(k2=2)",
)


def _run_fig2_left(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    churn = session.churn_schedule(rng)
    if churn is None:
        raise ValidationError(
            "fig2-efficiency-vs-k needs a churn spec (e.g. ChurnSpec(kind='trace'))"
        )
    result = ExperimentResult(
        figure="fig2-left",
        description="Node efficiency under trace-driven churn, normalized by BR",
        x_label="k",
        y_label="node efficiency / BR efficiency",
        metadata={"n": spec.n, "churn_rate": churn.churn_rate()},
    )
    policies = session.policy_map()
    cells = [(k, label, policy) for k in spec.k_grid for label, policy in policies.items()]

    def build(cell, stream):
        k, label, policy = cell
        return EngineSpec(
            label=f"{label}@k={k}",
            provider=DelayMetricProvider(space, estimator="true", seed=stream),
            policy=policy,
            k=int(k),
            epoch_length=spec.epoch_length,
            announce_interval=spec.announce_interval,
            churn=churn,
            epsilon=spec.epsilon,
            compute_efficiency=True,
            seed=stream,
        )

    histories = session.engine_sweep(session.engine_grid(cells, rng, build))
    warmup = float(spec.param("warmup_fraction", 0.3))
    labels = list(policies)
    for index, k in enumerate(spec.k_grid):
        base = index * len(labels)
        raw: Dict[str, float] = {
            label: histories[base + offset].steady_state_efficiency(
                warmup_fraction=warmup
            )
            for offset, label in enumerate(labels)
        }
        add_normalized_sweep(result, k, raw, "best-response")
    return result


def _run_fig2_right(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    if spec.churn is None:
        raise ValidationError(
            "fig2-churn-rate needs a churn spec (ChurnSpec(kind='parametrized'))"
        )
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    k = int(spec.param("k", spec.k_grid[0]))
    result = ExperimentResult(
        figure="fig2-right",
        description=f"Node efficiency vs churn rate (k={k}), normalized by BR",
        x_label="churn rate",
        y_label="node efficiency / BR efficiency",
        metadata={"n": spec.n, "k": k},
    )
    rates = [float(rate) for rate in _param_list(spec, "churn_rates", DEFAULT_CHURN_RATES)]
    # Generate every schedule from the master stream first, then spawn the
    # per-deployment streams, so adding a policy never reshuffles churn.
    schedules = [session.churn_schedule(rng, rate=rate) for rate in rates]
    policies = session.policy_map()
    cells = [
        (rate, churn, label, policy)
        for rate, churn in zip(rates, schedules)
        for label, policy in policies.items()
    ]

    def build(cell, stream):
        rate, churn, label, policy = cell
        return EngineSpec(
            label=f"{label}@{rate:g}",
            provider=DelayMetricProvider(space, estimator="true", seed=stream),
            policy=policy,
            k=k,
            epoch_length=spec.epoch_length,
            announce_interval=spec.announce_interval,
            churn=churn,
            epsilon=spec.epsilon,
            compute_efficiency=True,
            seed=stream,
        )

    histories = session.engine_sweep(session.engine_grid(cells, rng, build))
    warmup = float(spec.param("warmup_fraction", 0.3))
    labels = list(policies)
    for index, (rate, churn) in enumerate(zip(rates, schedules)):
        base = index * len(labels)
        raw: Dict[str, float] = {
            label: histories[base + offset].steady_state_efficiency(
                warmup_fraction=warmup
            )
            for offset, label in enumerate(labels)
        }
        add_normalized_sweep(result, rate, raw, "best-response")
        result.metadata[f"realised_churn@{rate:g}"] = churn.churn_rate()
    return result


register_scenario(
    "fig2-efficiency-vs-k",
    help="Fig. 2 left: efficiency under trace-driven churn vs k",
    default_spec=lambda: ScenarioSpec(
        experiment="fig2-efficiency-vs-k",
        n=50,
        k_grid=DEFAULT_K_VALUES,
        policies=_CHURN_POLICIES,
        metric="delay-true",
        epochs=10,
        churn=ChurnSpec(kind="trace", horizon=10 * 60.0, mean_on=1500.0, mean_off=300.0),
        compute_efficiency=True,
        seed=2008,
    ),
    runner=_run_fig2_left,
    smoke_args=("--n", "10", "--k", "3", "--epochs", "2"),
)

register_scenario(
    "fig2-churn-rate",
    help="Fig. 2 right: efficiency vs churn rate at fixed k",
    default_spec=lambda: ScenarioSpec(
        experiment="fig2-churn-rate",
        n=50,
        k_grid=(5,),
        policies=_CHURN_POLICIES,
        metric="delay-true",
        epochs=10,
        churn=ChurnSpec(kind="parametrized", horizon=10 * 60.0),
        compute_efficiency=True,
        seed=2008,
        params={"churn_rates": list(DEFAULT_CHURN_RATES), "k": 5},
    ),
    runner=_run_fig2_right,
    smoke_args=("--n", "10", "--k", "3", "--epochs", "2", "--churn-rates", "0.01"),
)
