"""The simulation front door: plan and run one declarative scenario.

:class:`SimulationSession` realises a :class:`~repro.scenario.spec.ScenarioSpec`:

* it resolves the spec's ``experiment`` against the scenario registry and
  drives the registered runner,
* it offers the planning facade the runners are built on — substrate and
  metric-provider construction per metric family, policy construction
  from descriptors, preference matrices, churn schedules, cheating
  models — and dispatches the heavy lifting to the batched kernels:
  build-only sweeps to :class:`~repro.core.deployment_batch.DeploymentBatch`
  and epoch-loop scenarios to :class:`~repro.core.engine_batch.EngineBatch`,
* it stamps the produced :class:`~repro.experiments.harness.ExperimentResult`
  with the scenario's canonical dictionary as provenance metadata, so a
  result always names the spec that can regenerate it.

``batched`` is a session (execution) choice, not part of the spec: both
kernel paths produce bit-identical results, so the provenance of a result
is the same either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.churn.models import ChurnSchedule, parametrized_churn, trace_driven_churn
from repro.core.cheating import CheatingModel
from repro.core.cost import Metric, zipf_preferences
from repro.core.deployment_batch import DeploymentBatch, DeploymentSpec
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.policies import NeighborSelectionPolicy
from repro.core.providers import (
    BandwidthMetricProvider,
    DelayMetricProvider,
    LoadMetricProvider,
    MetricProvider,
)
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.load import NodeLoadModel
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario import registry
from repro.scenario.spec import ScenarioSpec, parse_policy, policy_label
from repro.telemetry.diagnostics import merge_cache_stats, pooled_cache_stats
from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.util.validation import ValidationError


class SimulationSession:
    """Plan and execute one scenario.

    Parameters
    ----------
    spec:
        The declarative scenario (validated on construction).
    batched:
        Use the stacked kernels (default) or the bit-identical sequential
        reference paths — an execution detail, deliberately *not* part of
        the spec.
    """

    def __init__(self, spec: ScenarioSpec, *, batched: bool = True):
        spec.validate()
        self.spec = spec
        self.batched = bool(batched)
        self._engine_batches: List[EngineBatch] = []

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self):
        """Run the scenario's registered experiment and stamp provenance.

        Epoch-loop scenarios also carry their aggregated residual
        route-cache statistics (hits, misses, hit rate — summed
        over every engine batch the run dispatched) as
        ``metadata["cache"]``, so cache effectiveness under churn is
        observable from any stored result (and printed by
        ``repro run --verbose``).
        """
        from repro.core.codec import cache_stats_to_json

        definition = registry.resolve(self.spec.experiment)
        result = definition.runner(self)
        result.metadata["scenario"] = self.spec.to_dict()
        if self._engine_batches:
            # One schema for every consumer of the diagnostics dict —
            # stored sweep cells, --verbose, and the serve stream.
            result.metadata["cache"] = cache_stats_to_json(
                merge_cache_stats(
                    pooled_cache_stats(engine.route_cache for engine in batch.engines)
                    for batch in self._engine_batches
                )
            )
        return result

    # ------------------------------------------------------------------ #
    # Facade: substrate + configuration builders
    # ------------------------------------------------------------------ #
    def rng(self) -> np.random.Generator:
        """A fresh master generator for the scenario seed."""
        return as_generator(self.spec.seed)

    def make_provider(self, rng: SeedLike) -> MetricProvider:
        """A metric provider of the spec's family, drawing from ``rng``."""
        spec = self.spec
        if spec.metric in ("delay-ping", "delay-pyxida", "delay-true"):
            space, _nodes = synthetic_planetlab(spec.n, seed=rng)
            estimator = {
                "delay-ping": "ping",
                "delay-pyxida": "pyxida",
                "delay-true": "true",
            }[spec.metric]
            kwargs = {}
            if estimator == "pyxida":
                kwargs["coordinate_rounds"] = int(spec.param("coordinate_rounds", 30))
            return DelayMetricProvider(
                space,
                estimator=estimator,
                drift_relative_std=spec.drift_relative_std,
                seed=rng,
                **kwargs,
            )
        if spec.metric == "load":
            load_model = NodeLoadModel(spec.n, seed=rng)
            load_model.advance(int(spec.param("load_warmup", 5)))
            return LoadMetricProvider(load_model)
        bw_model = BandwidthModel(spec.n, seed=rng)
        return BandwidthMetricProvider(bw_model, seed=rng)

    def policy_map(self) -> Dict[str, NeighborSelectionPolicy]:
        """Policies keyed by series label, in spec order."""
        policies: Dict[str, NeighborSelectionPolicy] = {}
        for descriptor in self.spec.policies:
            policies[policy_label(descriptor)] = parse_policy(descriptor)
        return policies

    def preferences(self, rng: SeedLike) -> Optional[np.ndarray]:
        """The preference matrix (None for the paper's uniform setting)."""
        if self.spec.preference_skew == 0.0:
            return None
        return zipf_preferences(
            self.spec.n, exponent=self.spec.preference_skew, seed=rng
        )

    def churn_schedule(self, rng: SeedLike, *, rate: Optional[float] = None) -> Optional[ChurnSchedule]:
        """The churn schedule described by the spec (None without churn).

        ``rate`` overrides the spec's parametrized rate — the churn-rate
        sweep generates one schedule per swept rate.
        """
        churn = self.spec.churn
        if churn is None:
            return None
        horizon = churn.horizon
        if horizon is None:
            horizon = max(1, self.spec.epochs) * self.spec.epoch_length
        if churn.kind == "parametrized" or rate is not None:
            effective = rate if rate is not None else churn.rate
            if effective is None:
                raise ValidationError(
                    "parametrized churn needs a rate (in the spec or per call)"
                )
            return parametrized_churn(
                self.spec.n,
                horizon,
                effective,
                duty_cycle=churn.duty_cycle,
                seed=rng,
            )
        return trace_driven_churn(
            self.spec.n,
            horizon,
            mean_on=churn.mean_on,
            mean_off=churn.mean_off,
            seed=rng,
        )

    def cheating_model(self, truth: Metric) -> Optional[CheatingModel]:
        """The cheating model over ``truth`` (None without cheaters)."""
        cheating = self.spec.cheating
        if cheating is None or not cheating.free_riders:
            return None
        return CheatingModel(truth, cheating.free_riders, cheating.inflation)

    # ------------------------------------------------------------------ #
    # Facade: grid construction
    # ------------------------------------------------------------------ #
    # Every sweep runner follows one RNG discipline: spawn exactly one
    # child stream per grid cell from the master generator (after all
    # master-stream draws — substrates, schedules, preference matrices —
    # have happened), and give the cell's provider and engine that same
    # stream.  The batched and sequential kernel paths then consume
    # identical draws per deployment regardless of interleaving.  These
    # helpers are the single home of that contract.

    def engine_grid(self, cells: Sequence, rng: SeedLike, build) -> List[EngineSpec]:
        """One :class:`EngineSpec` per cell; ``build(cell, stream)`` makes it.

        ``build`` must seed both the cell's provider and the spec with the
        given stream.
        """
        streams = spawn_generators(rng, len(cells))
        return [build(cell, stream) for cell, stream in zip(cells, streams)]

    def deployment_grid(
        self, cells: Sequence, rng: SeedLike, build
    ) -> List[DeploymentSpec]:
        """One :class:`DeploymentSpec` per cell; the helper assigns streams."""
        streams = spawn_generators(rng, len(cells))
        specs = []
        for cell, stream in zip(cells, streams):
            spec = build(cell)
            spec.rng = stream
            specs.append(spec)
        return specs

    # ------------------------------------------------------------------ #
    # Facade: batched execution planners
    # ------------------------------------------------------------------ #
    def deployment_batch(self, specs: Sequence[DeploymentSpec]) -> DeploymentBatch:
        """A build-only sweep over ``specs`` on the session's kernel path."""
        return DeploymentBatch(specs, batched=self.batched)

    def build_deployments(self, specs: Sequence[DeploymentSpec]):
        """Build every deployment's overlay wiring."""
        return self.deployment_batch(specs).build()

    def deployment_means(self, specs: Sequence[DeploymentSpec]) -> np.ndarray:
        """Mean true-metric cost per deployment (one fused sweep)."""
        return self.deployment_batch(specs).run()

    def engine_batch(self, specs: Sequence[EngineSpec]) -> EngineBatch:
        """An epoch-loop sweep over ``specs`` on the session's kernel path."""
        batch = EngineBatch(specs, batched=self.batched)
        self._engine_batches.append(batch)
        return batch

    def engine_sweep(self, specs: Sequence[EngineSpec], epochs: Optional[int] = None) -> List:
        """Run the engines for ``epochs`` (default: the spec's) in lockstep.

        A thin loop over the lifecycle API: every batch run steps the
        same :meth:`repro.scenario.lifecycle.Session.step` the serve
        scheduler does, so there is exactly one execution planner.
        """
        from repro.scenario.lifecycle import Session

        if epochs is None:
            epochs = self.spec.epochs
        session = Session(self.spec, self.engine_batch(specs))
        for _ in range(int(epochs)):
            session.step()
        return session.close()


def run_spec(spec: ScenarioSpec, *, batched: bool = True):
    """Convenience: run a spec through a fresh session."""
    return SimulationSession(spec, batched=batched).run()
