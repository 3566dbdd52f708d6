"""The scenario registry: experiment names -> default specs + runners.

Every figure-level experiment registers itself here (the modules in
:mod:`repro.experiments` call :func:`register_scenario` at import time),
which gives the CLI and the :class:`~repro.scenario.session.SimulationSession`
one shared catalogue:

* ``repro list`` prints the registered names and help lines,
* ``repro run <name>`` starts from the registered default spec and applies
  command-line overrides — from Python,
  ``run_spec(default_spec(name).override(...))``,
* ``SimulationSession.run()`` resolves the spec's ``experiment`` field to
  the registered runner.

A build-only experiment registers a *plan* instead of a runner: a
callable ``session -> (deployments, finish)`` that lays out the spec's
:class:`~repro.core.deployment_batch.DeploymentSpec` grid and returns
``finish(means) -> ExperimentResult`` for the means of those
deployments.  The registry derives the runner from it (plan, one
``session.deployment_means``, finish), so a single spec runs the one
way every spec does, while :func:`repro.scenario.session.run_group` can
build the deployments of several planned specs as one batch.  A plan
comes with ``deployments(spec)``, the number of deployments it will lay
out, which is how wide that batch gets before anything is planned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.scenario.spec import ScenarioSpec
from repro.util.validation import ValidationError

#: Runner signature: takes the running session, returns an ExperimentResult.
Runner = Callable[["SimulationSession"], "ExperimentResult"]  # noqa: F821

#: Plan signature: takes the session, returns its deployments and the
#: ``finish(means)`` that turns their mean costs into the ExperimentResult.
Plan = Callable[["SimulationSession"], Tuple[list, Callable]]  # noqa: F821


@dataclass(frozen=True)
class ScenarioDefinition:
    """One registered experiment shape."""

    name: str
    help: str
    default_spec: Callable[[], ScenarioSpec]
    runner: Runner
    #: Extra CLI arguments that make a smoke run of this experiment tiny
    #: and fast (used by the CLI test suite).
    smoke_args: Tuple[str, ...] = field(default_factory=tuple)
    #: Build-only experiments: the plan the runner is derived from, and
    #: the number of deployments it lays out for a spec.
    plan: Optional[Plan] = None
    deployments: Optional[Callable[[ScenarioSpec], int]] = None


_REGISTRY: Dict[str, ScenarioDefinition] = {}


def register_scenario(
    name: str,
    *,
    help: str,
    default_spec: Callable[[], ScenarioSpec],
    runner: Optional[Runner] = None,
    plan: Optional[Plan] = None,
    deployments: Optional[Callable[[ScenarioSpec], int]] = None,
    smoke_args: Tuple[str, ...] = (),
) -> None:
    """Register (or re-register, e.g. on module reload) an experiment.

    Give either ``runner`` or ``plan`` with its ``deployments`` count.
    """
    if (runner is None) == (plan is None) or (plan is None) != (deployments is None):
        raise ValidationError(
            f"{name}: register a runner, or a plan with its deployments count"
        )
    _REGISTRY[name] = ScenarioDefinition(
        name=name,
        help=help,
        default_spec=default_spec,
        runner=runner if runner is not None else _planned_runner(plan),
        smoke_args=tuple(smoke_args),
        plan=plan,
        deployments=deployments,
    )


def _planned_runner(plan: Plan) -> Runner:
    """The runner of a planned experiment: plan, build and score, finish."""

    def run(session):
        deployments, finish = plan(session)
        return finish(session.deployment_means(deployments))

    return run


def _ensure_loaded() -> None:
    """Import the experiment modules so their registrations run."""
    import repro.experiments  # noqa: F401  (registration side effect)


def resolve(name: str) -> ScenarioDefinition:
    """The registered definition for ``name`` (ValidationError if absent)."""
    _ensure_loaded()
    definition = _REGISTRY.get(name)
    if definition is None:
        raise ValidationError(
            f"unknown experiment {name!r}; known: {', '.join(scenario_names())}"
        )
    return definition


def scenario_names() -> Tuple[str, ...]:
    """All registered experiment names, sorted."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY))


def default_spec(name: str) -> ScenarioSpec:
    """A fresh copy of the registered default spec for ``name``."""
    return resolve(name).default_spec()
