"""Figures 10 and 11: application-level benefits of EGOIST redirection.

Fig. 10: available-bandwidth gain of multipath transfer through the k
first-hop neighbours (one session per neighbour), compared with the single
direct IP path, and the ceiling when all peers allow redirection
(max-flow).  Fig. 11: number of disjoint overlay paths between a source
and a target, as a function of k.

Both are build-only scenarios: the per-k BR overlays are constructed as
one :class:`~repro.core.deployment_batch.DeploymentBatch` (shared
announced-metric fingerprints, lockstep best-response dynamics), then
the application layer analyses each overlay.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.apps.multipath import MultipathTransferApp
from repro.apps.realtime import RealTimeRedirectionApp
from repro.core.cost import BandwidthMetric, DelayMetric, Metric
from repro.core.deployment_batch import DeploymentSpec
from repro.core.policies import BestResponsePolicy
from repro.experiments.harness import ExperimentResult, mean_finite
from repro.netsim.autonomous_systems import ASTopology
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import as_generator

DEFAULT_K_VALUES = (2, 3, 4, 5, 6, 7, 8)


def _sample_pairs(n: int, count: int, rng) -> list:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if len(pairs) <= count:
        return pairs
    idx = rng.choice(len(pairs), size=count, replace=False)
    return [pairs[i] for i in idx]


def _br_overlays_for_ks(
    session: SimulationSession,
    metric: Metric,
    k_values: Sequence[int],
    rng,
    *,
    br_rounds: int,
) -> List:
    """One BR overlay per k, built as a single deployment batch.

    All k values share the same announced metric (one underlay snapshot),
    so the batch fingerprints it once and runs the best-response dynamics
    of the whole sweep in lockstep.
    """

    def build(k):
        return DeploymentSpec(
            label=f"k={k}",
            policy=BestResponsePolicy(),
            k=int(k),
            announced=metric,
            truth=metric,
            br_rounds=br_rounds,
        )

    return session.build_deployments(session.deployment_grid(k_values, rng, build))


def _run_fig10(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    rng = as_generator(spec.seed)
    bandwidth = BandwidthModel(spec.n, seed=rng)
    as_topology = ASTopology(spec.n, seed=rng)
    metric = BandwidthMetric(bandwidth.matrix())
    result = ExperimentResult(
        figure="fig10",
        description="Available bandwidth gain of multipath redirection vs k",
        x_label="k",
        y_label="available bandwidth gain",
        metadata={"n": spec.n, **as_topology.describe()},
    )
    pairs = _sample_pairs(spec.n, int(spec.param("pairs_per_k", 100)), rng)
    overlays = _br_overlays_for_ks(
        session, metric, spec.k_grid, rng, br_rounds=spec.br_rounds
    )
    for k, overlay in zip(spec.k_grid, overlays):
        app = MultipathTransferApp(overlay, bandwidth, as_topology)
        gains = []
        ceilings = []
        for source, target in pairs:
            plan = app.plan(source, target)
            if np.isfinite(plan.gain):
                gains.append(plan.gain)
            if np.isfinite(plan.maxflow_gain):
                ceilings.append(plan.maxflow_gain)
        result.add_point("source establ. parallel connections", k, mean_finite(gains))
        result.add_point("peers allow multipath redirections", k, mean_finite(ceilings))
    return result


def _run_fig11(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    metric = DelayMetric(space.matrix)
    result = ExperimentResult(
        figure="fig11",
        description="Number of disjoint overlay paths between node pairs vs k",
        x_label="k",
        y_label="number of disjoint paths",
        metadata={"n": spec.n},
    )
    pairs = _sample_pairs(spec.n, int(spec.param("pairs_per_k", 100)), rng)
    overlays = _br_overlays_for_ks(
        session, metric, spec.k_grid, rng, br_rounds=spec.br_rounds
    )
    for k, overlay in zip(spec.k_grid, overlays):
        app = RealTimeRedirectionApp(overlay)
        counts = [app.disjoint_path_count(s, t) for s, t in pairs]
        result.add_point("disjoint paths", k, mean_finite(counts))
    return result


register_scenario(
    "fig10-multipath",
    help="Fig. 10: multipath available-bandwidth gain vs k",
    default_spec=lambda: ScenarioSpec(
        experiment="fig10-multipath",
        n=50,
        k_grid=DEFAULT_K_VALUES,
        policies=("best-response",),
        metric="bandwidth",
        br_rounds=3,
        seed=2008,
        params={"pairs_per_k": 100},
    ),
    runner=_run_fig10,
    smoke_args=("--n", "12", "--k", "2,3", "--br-rounds", "1", "--param", "pairs_per_k=10"),
)

register_scenario(
    "fig11-disjoint",
    help="Fig. 11: disjoint overlay paths vs k",
    default_spec=lambda: ScenarioSpec(
        experiment="fig11-disjoint",
        n=50,
        k_grid=DEFAULT_K_VALUES,
        policies=("best-response",),
        metric="delay-true",
        br_rounds=3,
        seed=2008,
        params={"pairs_per_k": 100},
    ),
    runner=_run_fig11,
    smoke_args=("--n", "12", "--k", "2,3", "--br-rounds", "1", "--param", "pairs_per_k=10"),
)
