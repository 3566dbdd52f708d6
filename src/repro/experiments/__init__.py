"""The paper's experiments, each registered as a scenario.

Every figure of the paper's evaluation (and the overhead table, the
preference-skew ablation, the failure-injection and live-overlay
scenarios) is a module here that registers a default
:class:`~repro.scenario.spec.ScenarioSpec` and one runner with
:mod:`repro.scenario.registry` at import time.  There is one way to run
any of them — from the registry::

    from repro.scenario import default_spec, run_spec

    result = run_spec(default_spec("fig2-churn-rate").override(n=24, seed=7))

(``repro run fig2-churn-rate --n 24 --seed 7`` on the command line).
This package exports only the result containers.
"""

from repro.experiments.harness import ExperimentResult, Series
from repro.experiments import (  # noqa: F401 - each module registers its experiments
    apps_exp,
    baseline,
    cheating_exp,
    churn_exp,
    failures_exp,
    live_exp,
    overhead_exp,
    preferences_exp,
    rewiring,
    sampling_exp,
)

__all__ = ["ExperimentResult", "Series"]
