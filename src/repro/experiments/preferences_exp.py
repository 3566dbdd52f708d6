"""Ablation A3: the effect of preference skew on BR's advantage.

The paper evaluates everything under uniform routing preferences and notes
(footnote 8) that this is *conservative* for Best-Response: "unlike the
other policies we considered, BR is capable of leveraging skew in
preference to its advantage".  This ablation quantifies that claim by
sweeping a Zipf exponent over the preference matrix and measuring the
heuristics' cost relative to BR under each skew level.

The (exponent, policy) grid is one build-only scenario: all deployments
share the underlay and build in lockstep through
:class:`~repro.core.deployment_batch.DeploymentBatch`, with each
exponent's Zipf preference matrix riding on its deployments.
"""

from __future__ import annotations

from typing import Dict

from repro.core.cost import DelayMetric, zipf_preferences
from repro.core.deployment_batch import DeploymentSpec
from repro.experiments.harness import ExperimentResult, _param_list, normalize_against
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec, policy_label
from repro.util.rng import as_generator

DEFAULT_EXPONENTS = (0.0, 0.5, 1.0, 1.5)


def _plan_preferences(session: SimulationSession):
    spec = session.spec
    k = int(spec.param("k", spec.k_grid[0]))
    exponents = [float(e) for e in _param_list(spec, "exponents", DEFAULT_EXPONENTS)]
    rng = as_generator(spec.seed)
    space, _nodes = synthetic_planetlab(spec.n, seed=rng)
    metric = DelayMetric(space.matrix)
    policies = session.policy_map()
    result = ExperimentResult(
        figure="ablation-preferences",
        description="Policy cost / BR cost as routing-preference skew (Zipf exponent) grows",
        x_label="zipf exponent",
        y_label="mean cost / BR cost",
        metadata={"n": spec.n, "k": k},
    )
    # Draw every preference matrix from the master stream first, then one
    # spawned stream per deployment, so the grid builds in lockstep.
    preference_of = {
        exponent: (
            None
            if exponent == 0.0
            else zipf_preferences(spec.n, exponent=exponent, seed=rng)
        )
        for exponent in exponents
    }
    cells = [(exponent, name) for exponent in exponents for name in policies]

    def build(cell):
        exponent, name = cell
        return DeploymentSpec(
            label=f"{name}@{exponent:g}",
            policy=policies[name],
            k=k,
            announced=metric,
            truth=metric,
            br_rounds=spec.br_rounds,
            preferences=preference_of[exponent],
        )

    labels = list(policies)

    def finish(means) -> ExperimentResult:
        for index, exponent in enumerate(exponents):
            base = index * len(labels)
            raw: Dict[str, float] = {
                label: float(means[base + offset])
                for offset, label in enumerate(labels)
            }
            normalized = normalize_against(raw, "best-response")
            for name, value in normalized.items():
                result.add_point(name, exponent, value)
        return result

    return session.deployment_grid(cells, rng, build), finish


def _preferences_deployments(spec: ScenarioSpec) -> int:
    """Deployments :func:`_plan_preferences` lays out: (exponent, policy)."""
    exponents = _param_list(spec, "exponents", DEFAULT_EXPONENTS)
    return len(exponents) * len({policy_label(d) for d in spec.policies})


register_scenario(
    "ablation-preferences",
    help="Ablation: BR's advantage under skewed routing preferences",
    default_spec=lambda: ScenarioSpec(
        experiment="ablation-preferences",
        n=40,
        k_grid=(3,),
        policies=("k-random", "k-regular", "k-closest", "best-response"),
        metric="delay-true",
        br_rounds=3,
        seed=2008,
        params={"exponents": list(DEFAULT_EXPONENTS), "k": 3},
    ),
    plan=_plan_preferences,
    deployments=_preferences_deployments,
    smoke_args=("--n", "12", "--k", "3", "--br-rounds", "1", "--param", "exponents=0.0,1.0"),
)
