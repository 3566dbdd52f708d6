"""Unified scenario API: declarative specs, a session facade, a registry.

The three pieces:

* :class:`~repro.scenario.spec.ScenarioSpec` — a declarative,
  JSON-round-trippable description of one workload (topology/metric
  family, n, k-grid, policy set, churn, cheating, preference skew,
  epochs, seed);
* :class:`~repro.scenario.session.SimulationSession` — the ``run()``
  facade that plans execution, dispatching build-only sweeps to
  :class:`~repro.core.deployment_batch.DeploymentBatch` and epoch-loop
  scenarios to :class:`~repro.core.engine_batch.EngineBatch`;
* the registry (:mod:`repro.scenario.registry`) — experiment names to
  default specs and runners, shared by the CLI, sweeps and Python callers.

Quick use::

    from repro.scenario import default_spec, run_spec

    spec = default_spec("fig1-delay-ping").override(n=30, k_grid=(2, 4))
    result = run_spec(spec)            # lockstep tier; batched=False runs the sequential reference
    print(result.table())
"""

from repro.scenario.spec import (
    CheatingSpec,
    ChurnSpec,
    ScenarioSpec,
    parse_policy,
    policy_label,
)
from repro.scenario.lifecycle import Session
from repro.scenario.session import SimulationSession, run_spec
from repro.scenario.registry import (
    default_spec,
    resolve,
    scenario_names,
)

__all__ = [
    "CheatingSpec",
    "ChurnSpec",
    "ScenarioSpec",
    "Session",
    "SimulationSession",
    "default_spec",
    "parse_policy",
    "policy_label",
    "resolve",
    "run_spec",
    "scenario_names",
]
