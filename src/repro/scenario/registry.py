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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.scenario.spec import ScenarioSpec
from repro.util.validation import ValidationError

#: Runner signature: takes the running session, returns an ExperimentResult.
Runner = Callable[["SimulationSession"], "ExperimentResult"]  # noqa: F821


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


_REGISTRY: Dict[str, ScenarioDefinition] = {}


def register_scenario(
    name: str,
    *,
    help: str,
    default_spec: Callable[[], ScenarioSpec],
    runner: Runner,
    smoke_args: Tuple[str, ...] = (),
) -> None:
    """Register (or re-register, e.g. on module reload) an experiment."""
    _REGISTRY[name] = ScenarioDefinition(
        name=name,
        help=help,
        default_spec=default_spec,
        runner=runner,
        smoke_args=tuple(smoke_args),
    )


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
