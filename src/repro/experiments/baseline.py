"""Figure 1: baseline policy comparison on a 50-node overlay.

Four panels, all plotting the mean individual cost of each neighbour
selection policy normalised by BR's cost, as a function of the neighbour
budget ``k``:

* top-left: delay measured via ping (plus the full-mesh lower bound),
* top-right: delay estimated via the virtual coordinate system (pyxida),
* bottom-left: node (CPU) load,
* bottom-right: available bandwidth (there, the ratio of aggregate
  bandwidth to BR's — larger is better, so the ratios sit below 1).

Every panel is a registered :class:`~repro.scenario.spec.ScenarioSpec`
(experiment names ``fig1-*``) planned by :func:`_plan_fig1`; from Python,
``run_spec(default_spec("fig1-delay-ping").override(n=30))``.

Performance
-----------
A k-sweep is a batch of independent deployments — one per (policy, k)
pair — over one underlay, and :func:`_plan_fig1` lays out the whole
batch for :class:`~repro.core.deployment_batch.DeploymentBatch` (the
session's ``batched=True``, the default; a sweep's cells of one ``n``
may share one batch, see :func:`repro.scenario.session.run_group`):

* the per-k underlay snapshots (announced + true metrics) are taken up
  front, every deployment gets its own spawned RNG stream, and the
  best-response deployments of the whole sweep run their dynamics in
  lockstep with residual sweeps and re-wiring opportunities fused into
  shared kernel calls;
* scoring stacks the built overlays' per-deployment route-value matrices
  into a single 3-D ``(deployments x hops x destinations)`` tensor and
  reduces every node cost of every panel point in one
  preference-weighted broadcast.

``batched=False`` preserves the sequential reference path (one
:func:`~repro.core.policies.build_overlay` plus one ``all_node_costs``
per deployment).  Both paths are bitwise identical series-for-series —
parity is tested, and the paper-scale kernel-call budget is
``tests/core/test_deployment_batch.py::TestFig1SweepParity::test_four_panel_sweep_batched_call_budget``.
"""

from __future__ import annotations

from typing import List

from repro.core.deployment_batch import DeploymentSpec
from repro.core.policies import FullMeshPolicy
from repro.experiments.harness import ExperimentResult, add_normalized_sweep
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec, policy_label
from repro.util.rng import as_generator, spawn_generators

DEFAULT_K_VALUES = (2, 3, 4, 5, 6, 7, 8)

#: Per-panel metric family, presentation and full-mesh default.
_FIG1_PANELS = {
    "fig1-delay-ping": {
        "metric": "delay-ping",
        "description": "Delay (via ping): individual cost / BR cost vs k",
        "help": "Fig. 1 top-left: delay via ping, cost/BR vs k (with full mesh)",
        "include_full_mesh": True,
    },
    "fig1-delay-pyxida": {
        "metric": "delay-pyxida",
        "description": "Delay (via pyxida coordinates): individual cost / BR cost vs k",
        "help": "Fig. 1 top-right: delay via virtual coordinates",
        "include_full_mesh": False,
    },
    "fig1-node-load": {
        "metric": "load",
        "description": "Node load: individual cost / BR cost vs k",
        "help": "Fig. 1 bottom-left: node CPU load",
        "include_full_mesh": False,
    },
    "fig1-bandwidth": {
        "metric": "bandwidth",
        "description": "Available bandwidth: total policy bandwidth / BR bandwidth vs k",
        "help": "Fig. 1 bottom-right: available bandwidth",
        "include_full_mesh": False,
        "y_label": "total avail. bw / BR avail. bw",
    },
}


def _plan_fig1(session: SimulationSession):
    """Registered plan shared by all four Fig. 1 panels.

    Wirings are chosen from the *announced* metric (what nodes measured)
    and evaluated on the *true* metric, as in a real deployment; the
    whole (k, policy) grid is one deployment batch, and ``finish`` turns
    its mean costs into the normalised series.
    """
    spec = session.spec
    panel = _FIG1_PANELS[spec.experiment]
    rng = as_generator(spec.seed)
    provider = session.make_provider(rng)
    policies = session.policy_map()
    if spec.param("include_full_mesh", False):
        policies["full-mesh"] = FullMeshPolicy()
    result = ExperimentResult(
        figure=spec.experiment,
        description=panel["description"],
        x_label="k",
        y_label=panel.get("y_label", "individual cost / BR cost"),
        metadata={"n": provider.size, "maximize": provider.true_metric().maximize},
    )
    # Snapshot the underlay for every k up front (advancing the provider
    # exactly as the sequential loop did), then give every deployment its
    # own RNG stream so batched and sequential builds draw identically.
    deployments: List[DeploymentSpec] = []
    for k in spec.k_grid:
        announced = provider.announced_metric()
        truth = provider.true_metric()
        for name, policy in policies.items():
            deployments.append(
                DeploymentSpec(
                    label=name,
                    policy=policy,
                    k=int(k),
                    announced=announced,
                    truth=truth,
                    br_rounds=spec.br_rounds,
                )
            )
        provider.advance(1)
    for deployment, stream in zip(deployments, spawn_generators(rng, len(deployments))):
        deployment.rng = stream
    labels = list(policies)

    def finish(means) -> ExperimentResult:
        for index, k in enumerate(spec.k_grid):
            base = index * len(labels)
            raw = {
                label: float(means[base + offset])
                for offset, label in enumerate(labels)
            }
            add_normalized_sweep(result, k, raw, "best-response")
        return result

    return deployments, finish


def _fig1_deployments(spec: ScenarioSpec) -> int:
    """Deployments :func:`_plan_fig1` lays out: one per (k, policy)."""
    labels = {policy_label(descriptor) for descriptor in spec.policies}
    if spec.param("include_full_mesh", False):
        labels.add("full-mesh")
    return len(spec.k_grid) * len(labels)


def _fig1_spec(experiment: str) -> ScenarioSpec:
    """The registered default spec of one Fig. 1 panel."""
    panel = _FIG1_PANELS[experiment]
    return ScenarioSpec(
        experiment=experiment,
        n=50,
        k_grid=DEFAULT_K_VALUES,
        metric=panel["metric"],
        br_rounds=4,
        seed=2008,
        params={"include_full_mesh": panel["include_full_mesh"]},
    )


def _register() -> None:
    for name, panel in _FIG1_PANELS.items():
        register_scenario(
            name,
            help=panel["help"],
            default_spec=lambda name=name: _fig1_spec(name),
            plan=_plan_fig1,
            deployments=_fig1_deployments,
            smoke_args=("--n", "12", "--k", "2,3", "--br-rounds", "1"),
        )


_register()
