"""Figure-level experiment drivers.

Every figure of the paper's evaluation has a driver here that generates
the workload, runs the relevant policies, and returns the series the
figure plots.  The paper-scale shape checks
(``tests/experiments/test_drivers.py``, the ``test_paper_scale_*``
tests) and the examples (``examples/``) are thin wrappers around these
drivers, so the numbers in EXPERIMENTS.md can be regenerated from a
single place.
"""

from repro.experiments.harness import ExperimentResult, Series
from repro.experiments.baseline import (
    fig1_bandwidth,
    fig1_delay_ping,
    fig1_delay_pyxida,
    fig1_node_load,
)
from repro.experiments.churn_exp import fig2_churn_rate_sweep, fig2_efficiency_vs_k
from repro.experiments.failures_exp import failures_resilience
from repro.experiments.rewiring import fig3_epsilon_comparison, fig3_rewirings_over_time
from repro.experiments.cheating_exp import fig4_many_free_riders, fig4_one_free_rider
from repro.experiments.sampling_exp import fig5_to_8_sampling
from repro.experiments.apps_exp import fig10_multipath_gain, fig11_disjoint_paths
from repro.experiments import live_exp as _live_exp  # noqa: F401 - registers live-overlay
from repro.experiments.overhead_exp import overhead_table
from repro.experiments.preferences_exp import preference_skew_ablation

__all__ = [
    "ExperimentResult",
    "Series",
    "fig1_bandwidth",
    "fig1_delay_ping",
    "fig1_delay_pyxida",
    "fig1_node_load",
    "failures_resilience",
    "fig2_churn_rate_sweep",
    "fig2_efficiency_vs_k",
    "fig3_epsilon_comparison",
    "fig3_rewirings_over_time",
    "fig4_many_free_riders",
    "fig4_one_free_rider",
    "fig5_to_8_sampling",
    "fig10_multipath_gain",
    "fig11_disjoint_paths",
    "overhead_table",
    "preference_skew_ablation",
]
