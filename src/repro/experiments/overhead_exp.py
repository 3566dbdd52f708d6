"""Section 4.3 overhead accounting as an experiment table.

Produces, for a range of k, the per-node measurement and protocol loads
predicted by the paper's formulas, together with the scalability gain of
monitoring ``n k`` rather than ``n (n - 1)`` links — and, optionally,
cross-checks the link-state figure against the traffic actually accounted
by a short engine run (dispatched, like every epoch-loop scenario,
through :class:`~repro.core.engine_batch.EngineBatch`).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine_batch import EngineSpec
from repro.core.overhead import overhead_report
from repro.core.policies import BestResponsePolicy
from repro.core.providers import DelayMetricProvider
from repro.experiments.harness import ExperimentResult
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import as_generator

DEFAULT_K_VALUES = (2, 3, 4, 5, 6, 7, 8)


def _run_overheads(session: SimulationSession) -> ExperimentResult:
    spec = session.spec
    result = ExperimentResult(
        figure="section-4.3",
        description="Per-node measurement and link-state overheads (bps)",
        x_label="k",
        y_label="bits per second per node",
        metadata={
            "n": spec.n,
            "epoch_length_s": spec.epoch_length,
            "announce_interval_s": spec.announce_interval,
        },
    )
    for k in spec.k_grid:
        report = overhead_report(
            spec.n,
            int(k),
            epoch_length_s=spec.epoch_length,
            announce_interval_s=spec.announce_interval,
        )
        result.add_point("ping measurement (bps)", k, report.ping_bps)
        result.add_point("coordinate measurement (bps)", k, report.coordinate_bps)
        result.add_point("link-state protocol (bps)", k, report.linkstate_bps)
        result.add_point("monitored links (EGOIST)", k, report.monitored_links)
        result.add_point("monitored links (full mesh)", k, report.fullmesh_monitored_links)
        result.add_point("scalability gain", k, report.scalability_gain)

    if bool(spec.param("validate_with_engine", False)):
        # The epoch count rides on the spec; a spec that asked for engine
        # validation without epochs (e.g. `--param validate_with_engine=true`
        # on the build-only default) still gets a short run.
        epochs = spec.epochs if spec.epochs > 0 else 3
        rng = as_generator(spec.seed)
        space, _nodes = synthetic_planetlab(spec.n, seed=rng)

        def build(k, stream):
            return EngineSpec(
                label=f"k={k}",
                provider=DelayMetricProvider(space, estimator="true", seed=stream),
                policy=BestResponsePolicy(),
                k=int(k),
                epoch_length=spec.epoch_length,
                announce_interval=spec.announce_interval,
                seed=stream,
            )

        histories = session.engine_sweep(
            session.engine_grid(spec.k_grid, rng, build), epochs=epochs
        )
        for k, history in zip(spec.k_grid, histories):
            # Announcements are flooded once per epoch in the simulation;
            # scale to the announce interval for an apples-to-apples rate.
            bits_per_epoch = float(
                np.mean([record.linkstate_bits for record in history.records])
            )
            per_node_bps = bits_per_epoch / spec.n / spec.epoch_length
            result.add_point("link-state measured (bps, simulated)", k, per_node_bps)
    return result


register_scenario(
    "overheads",
    help="Section 4.3: measurement and link-state overheads",
    default_spec=lambda: ScenarioSpec(
        experiment="overheads",
        n=50,
        k_grid=DEFAULT_K_VALUES,
        policies=("best-response",),
        metric="delay-true",
        epoch_length=60.0,
        announce_interval=20.0,
        seed=2008,
        params={"validate_with_engine": False},
    ),
    runner=_run_overheads,
    smoke_args=("--n", "12", "--k", "2,3"),
)
