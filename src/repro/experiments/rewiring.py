"""Figure 3: re-wiring dynamics and the BR(ε) trade-off.

Left panel: total re-wirings per epoch over time (the rate drops quickly
as EGOIST reaches steady state; larger k re-wires more).  Center/right
panels: normalised cost (BR cost / full-mesh cost) against the re-wiring
rate for exact BR and for BR(ε = 10%).

Both panels are epoch-loop scenarios driven through
:class:`~repro.core.engine_batch.EngineBatch`: one engine deployment per
k (left) or per (k, ε) pair (center/right), advanced in lockstep with
shared residual route-value sweeps and fused re-wiring scoring.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost import DelayMetric
from repro.core.engine_batch import EngineSpec
from repro.core.policies import BestResponsePolicy, FullMeshPolicy, build_overlay
from repro.core.providers import DelayMetricProvider
from repro.experiments.harness import ExperimentResult
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import as_generator

DEFAULT_K_VALUES = (2, 3, 4, 5, 8)


def _run_fig3_rewirings(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    result = ExperimentResult(
        figure="fig3-left",
        description="Total re-wirings per epoch over time (delay via ping)",
        x_label="epoch",
        y_label="re-wirings per epoch",
        metadata={"n": spec.n, "drift_relative_std": spec.drift_relative_std},
    )
    def build(k, stream):
        provider = DelayMetricProvider(
            space,
            estimator="ping",
            drift_relative_std=spec.drift_relative_std,
            seed=stream,
        )
        return EngineSpec(
            label=f"k={k}",
            provider=provider,
            policy=BestResponsePolicy(),
            k=int(k),
            epoch_length=spec.epoch_length,
            announce_interval=spec.announce_interval,
            seed=stream,
        )

    histories = session.engine_sweep(session.engine_grid(spec.k_grid, rng, build))
    for k, history in zip(spec.k_grid, histories):
        for epoch, count in enumerate(history.rewirings_per_epoch()):
            result.add_point(f"k={k}", epoch, count)
    return result


def _run_fig3_epsilon(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    # The spec's epsilon is authoritative (the registered default carries
    # the paper's 0.1); epsilon = 0 legitimately compares BR with itself.
    epsilon = spec.epsilon
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    truth = DelayMetric(space.matrix)
    # Full-mesh reference cost (k = n - 1).
    full_mesh = build_overlay(FullMeshPolicy(), truth, spec.n - 1, rng=rng)
    full_costs = truth.all_node_costs(full_mesh.to_graph())
    full_mean = float(np.mean(list(full_costs.values())))

    result = ExperimentResult(
        figure="fig3-center-right",
        description="Cost normalized by full mesh and re-wirings per epoch: BR vs BR(eps)",
        x_label="k",
        y_label="normalized cost / re-wirings per epoch",
        metadata={"n": spec.n, "epsilon": epsilon, "full_mesh_mean_cost": full_mean},
    )
    variants = (("BR", 0.0), (f"BR({epsilon:g})", epsilon))
    cells = [(k, label, eps) for k in spec.k_grid for label, eps in variants]

    def build(cell, stream):
        k, label, eps = cell
        provider = DelayMetricProvider(
            space,
            estimator="ping",
            drift_relative_std=spec.drift_relative_std,
            seed=stream,
        )
        return EngineSpec(
            label=f"{label}@k={k}",
            provider=provider,
            policy=BestResponsePolicy(),
            k=int(k),
            epoch_length=spec.epoch_length,
            announce_interval=spec.announce_interval,
            epsilon=eps,
            seed=stream,
        )

    histories = session.engine_sweep(session.engine_grid(cells, rng, build))
    warmup = float(spec.param("warmup_fraction", 0.4))
    for (k, label, _eps), history in zip(cells, histories):
        steady_cost = history.steady_state_mean_cost(warmup_fraction=warmup)
        # Ignore the first epoch (initial wiring counts as n re-wirings).
        rewires = history.rewirings_per_epoch()[1:]
        mean_rewires = float(np.mean(rewires)) if rewires else 0.0
        result.add_point(f"{label} cost/full mesh", k, steady_cost / full_mean)
        result.add_point(f"{label} re-wirings", k, mean_rewires)
    return result


register_scenario(
    "fig3-rewirings",
    help="Fig. 3 left: re-wirings per epoch over time",
    default_spec=lambda: ScenarioSpec(
        experiment="fig3-rewirings",
        n=50,
        k_grid=DEFAULT_K_VALUES,
        policies=("best-response",),
        metric="delay-ping",
        epochs=10,
        drift_relative_std=0.02,
        seed=2008,
    ),
    runner=_run_fig3_rewirings,
    smoke_args=("--n", "10", "--k", "2", "--epochs", "2"),
)

register_scenario(
    "fig3-epsilon",
    help="Fig. 3 center/right: BR vs BR(eps=0.1)",
    default_spec=lambda: ScenarioSpec(
        experiment="fig3-epsilon",
        n=50,
        k_grid=(2, 3, 4, 5, 6, 7, 8),
        policies=("best-response",),
        metric="delay-ping",
        epochs=10,
        epsilon=0.1,
        drift_relative_std=0.02,
        seed=2008,
    ),
    runner=_run_fig3_epsilon,
    smoke_args=("--n", "10", "--k", "2", "--epochs", "2"),
)
