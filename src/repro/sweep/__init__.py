"""Parallel sweep orchestration over declarative scenario templates.

The paper's evaluation is a grid: every figure is one scenario family
swept over ``k``, metric, policy, and churn/cheating knobs.  This package
turns such a grid into a first-class, resumable, parallel operation:

* :mod:`repro.sweep.template` — a :class:`SweepTemplate` is a base
  :class:`~repro.scenario.spec.ScenarioSpec` plus named axes; expansion
  takes the Cartesian product and yields one fully-validated spec per
  cell (each with its own spawned seed, mirroring the per-cell stream
  discipline of ``SimulationSession.engine_grid``/``deployment_grid``).
* :mod:`repro.sweep.store` — a content-addressed on-disk
  :class:`SweepStore`: cells are keyed by the hash of their canonical
  spec JSON and persisted atomically with the spec as provenance, so an
  interrupted sweep resumes by skipping completed cells.
* :mod:`repro.sweep.executor` — :func:`run_sweep` fans the pending cells
  across a ``multiprocessing`` pool; every worker runs cells through the
  existing :class:`~repro.scenario.session.SimulationSession` facade, so
  the fused ``DeploymentBatch``/``EngineBatch`` kernels are reused inside
  each worker and ``--workers 1`` and ``--workers N`` are byte-identical.
* :mod:`repro.sweep.aggregate` — joins finished cells back into the
  existing :class:`~repro.experiments.harness.ExperimentResult`
  tables/series, one merged result per experiment group.
* :mod:`repro.sweep.dist` — multi-host execution with no coordinator:
  pluggable store backends (``local`` / ``shared-fs``), the atomic
  claim-file protocol with lease-expiry reclamation, the
  ``repro sweep-worker`` drain loop, and the ``--status`` progress view.

The ``repro sweep`` and ``repro sweep-worker`` verbs are
:mod:`repro.sweep.cli`; the checked-in paper-scale corpus lives in
``scenarios/``.
"""

from repro.sweep.aggregate import aggregate_cells
from repro.sweep.executor import run_sweep
from repro.sweep.store import SweepStore
from repro.sweep.template import (
    SweepTemplate,
    expand_corpus,
    load_templates,
    spec_key,
)

__all__ = [
    "SweepStore",
    "SweepTemplate",
    "aggregate_cells",
    "expand_corpus",
    "load_templates",
    "run_sweep",
    "spec_key",
]
