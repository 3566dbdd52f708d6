"""repro — a reproduction of "EGOIST: Overlay Routing using Selfish Neighbor Selection".

The package is organised around the systems the paper builds on:

* :mod:`repro.core` — the EGOIST contribution: selfish (Best-Response)
  neighbour selection, the comparison policies, HybridBR, sampling,
  free riders, and the epoch-driven overlay engine.
* :mod:`repro.netsim` — the substrate that replaces PlanetLab: synthetic
  delay spaces, bandwidth and load models, virtual coordinates, and the
  AS/multihoming model.
* :mod:`repro.routing` — the overlay routing layer: link-state protocol,
  shortest/widest/disjoint paths.
* :mod:`repro.churn` — ON/OFF churn models and the efficiency metric.
* :mod:`repro.game` — the SNS game's equilibrium check, the oracle the
  tests hold converged best-response overlays against.
* :mod:`repro.apps` — the applications of Section 6: multipath transfer
  and real-time redirection.
* :mod:`repro.scenario` — one way to run an experiment: its registered
  :class:`~repro.scenario.ScenarioSpec`, through ``run_spec`` or a
  :class:`~repro.scenario.SimulationSession`.
* :mod:`repro.experiments` — the figure-level experiment code the
  scenarios run.
* :mod:`repro.sweep`, :mod:`repro.serve`, :mod:`repro.telemetry` — sweep
  orchestration, the live overlay service, and tracing.

Every module is reached from a scenario, the benchmark or an example;
``tests/test_no_test_only_code.py`` checks that, with an allowlist of the
few oracles the tests compare live code against.  ``examples/quickstart.py``
is the 60-second tour.
"""

from repro.version import __version__

__all__ = [
    "__version__",
]
