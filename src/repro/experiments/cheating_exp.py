"""Figure 4: robustness to free riders.

Free riders announce link costs twice as high as the real ones, hoping to
discourage other nodes from selecting them as upstream neighbours.  The
paper shows that both the free riders' and the honest nodes' costs stay
very close to the no-free-rider baseline — EGOIST is robust to this abuse
even without audits.

Left panel: one free rider, cost ratio vs k.  Right panel: many free
riders (up to one third of the population) at k = 2.

Both panels are build-only scenarios: every (k, cheated?) — or
(population, cheated?) — pair is one BR deployment wired from the cheated
announcements, and the whole grid builds in lockstep through
:class:`~repro.core.deployment_batch.DeploymentBatch`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.cheating import CheatingModel
from repro.core.cost import DelayMetric
from repro.core.deployment_batch import DeploymentSpec
from repro.core.policies import BestResponsePolicy
from repro.experiments.harness import ExperimentResult, _param_list, mean_finite
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import CheatingSpec, ScenarioSpec
from repro.util.rng import as_generator

DEFAULT_K_VALUES = (2, 3, 4, 5, 6, 7, 8)
DEFAULT_FREE_RIDER_COUNTS = (0, 2, 4, 6, 8, 10, 12, 14, 16)


def _announced_for(truth: DelayMetric, riders: Set[int], inflation: float):
    """The announced metric under ``riders``' inflated announcements."""
    if not riders:
        return truth
    return CheatingModel(truth, riders, inflation).announced_metric()


def _node_costs_grid(
    session: SimulationSession,
    truth: DelayMetric,
    rider_sets: Sequence[Set[int]],
    k_of: Sequence[int],
    inflation: float,
    rng,
) -> List[Dict[int, float]]:
    """True per-node costs of one BR deployment per (riders, k) cell."""
    spec = session.spec

    def build(cell):
        riders, k = cell
        return DeploymentSpec(
            label=f"riders={len(riders)}@k={k}",
            policy=BestResponsePolicy(),
            k=int(k),
            announced=_announced_for(truth, riders, inflation),
            truth=truth,
            br_rounds=spec.br_rounds,
        )

    deployment_specs = session.deployment_grid(list(zip(rider_sets, k_of)), rng, build)
    wirings = session.build_deployments(deployment_specs)
    return [truth.all_node_costs(wiring.to_graph()) for wiring in wirings]


def _run_fig4_one(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    cheating = spec.cheating or CheatingSpec(free_riders=(0,))
    free_rider = int(cheating.free_riders[0]) if cheating.free_riders else 0
    inflation = cheating.inflation
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    truth = DelayMetric(space.matrix)
    result = ExperimentResult(
        figure="fig4-left",
        description="Individual cost with one free rider / cost without, vs k",
        x_label="k",
        y_label="individual cost / cost without free rider",
        metadata={"n": spec.n, "inflation": inflation, "free_rider": free_rider},
    )
    rider_sets: List[Set[int]] = []
    k_of: List[int] = []
    for k in spec.k_grid:
        rider_sets.extend([set(), {free_rider}])
        k_of.extend([int(k), int(k)])
    costs = _node_costs_grid(session, truth, rider_sets, k_of, inflation, rng)
    for index, k in enumerate(spec.k_grid):
        baseline = costs[2 * index]
        cheated = costs[2 * index + 1]
        baseline_rider = baseline[free_rider]
        baseline_others = mean_finite(
            [v for node, v in baseline.items() if node != free_rider]
        )
        rider_ratio = cheated[free_rider] / baseline_rider if baseline_rider else 1.0
        others_ratio = (
            mean_finite([v for node, v in cheated.items() if node != free_rider])
            / baseline_others
            if baseline_others
            else 1.0
        )
        result.add_point("free rider", k, rider_ratio)
        result.add_point("non free riders", k, others_ratio)
    return result


def _run_fig4_many(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    inflation = spec.cheating.inflation if spec.cheating else 2.0
    k = int(spec.param("k", spec.k_grid[0]))
    counts = [
        int(c) for c in _param_list(spec, "free_rider_counts", DEFAULT_FREE_RIDER_COUNTS)
    ]
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    truth = DelayMetric(space.matrix)
    result = ExperimentResult(
        figure="fig4-right",
        description=f"Individual cost with many free riders / cost without, k={k}",
        x_label="population of free riders",
        y_label="individual cost / cost without free riders",
        metadata={"n": spec.n, "k": k, "inflation": inflation},
    )
    rider_sets: List[Set[int]] = [set()] + [set(range(count)) for count in counts]
    k_of = [k] * len(rider_sets)
    costs = _node_costs_grid(session, truth, rider_sets, k_of, inflation, rng)
    baseline = costs[0]
    for count, cheated in zip(counts, costs[1:]):
        riders = set(range(count))
        if riders:
            rider_baseline = mean_finite([baseline[r] for r in riders])
            rider_mean = mean_finite([cheated[r] for r in riders])
            rider_ratio = rider_mean / rider_baseline if rider_baseline else 1.0
        else:
            rider_ratio = 1.0
        honest = [node for node in cheated if node not in riders]
        honest_baseline = mean_finite([baseline[h] for h in honest])
        honest_ratio = (
            mean_finite([cheated[h] for h in honest]) / honest_baseline
            if honest_baseline
            else 1.0
        )
        result.add_point("free riders", count, rider_ratio)
        result.add_point("non free riders", count, honest_ratio)
    return result


register_scenario(
    "fig4-one-freerider",
    help="Fig. 4 left: one free rider",
    default_spec=lambda: ScenarioSpec(
        experiment="fig4-one-freerider",
        n=50,
        k_grid=DEFAULT_K_VALUES,
        policies=("best-response",),
        metric="delay-true",
        br_rounds=3,
        cheating=CheatingSpec(free_riders=(0,), inflation=2.0),
        seed=2008,
    ),
    runner=_run_fig4_one,
    smoke_args=("--n", "12", "--k", "2", "--br-rounds", "1"),
)

register_scenario(
    "fig4-many-freeriders",
    help="Fig. 4 right: many free riders at k=2",
    default_spec=lambda: ScenarioSpec(
        experiment="fig4-many-freeriders",
        n=50,
        k_grid=(2,),
        policies=("best-response",),
        metric="delay-true",
        br_rounds=3,
        cheating=CheatingSpec(free_riders=(), inflation=2.0),
        seed=2008,
        params={"free_rider_counts": list(DEFAULT_FREE_RIDER_COUNTS), "k": 2},
    ),
    runner=_run_fig4_many,
    smoke_args=("--n", "12", "--k", "2", "--br-rounds", "1", "--param", "free_rider_counts=0,2"),
)
