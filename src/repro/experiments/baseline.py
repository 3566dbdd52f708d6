"""Figure 1: baseline policy comparison on a 50-node overlay.

Four panels, all plotting the mean individual cost of each neighbour
selection policy normalised by BR's cost, as a function of the neighbour
budget ``k``:

* top-left: delay measured via ping (plus the full-mesh lower bound),
* top-right: delay estimated via the virtual coordinate system (pyxida),
* bottom-left: node (CPU) load,
* bottom-right: available bandwidth (there, the ratio of aggregate
  bandwidth to BR's — larger is better, so the ratios sit below 1).

Every panel is a declarative :class:`~repro.scenario.spec.ScenarioSpec`
(experiment names ``fig1-*``) realised through
:class:`~repro.scenario.session.SimulationSession`; the public
``fig1_*`` functions below are thin spec constructions kept for direct
Python use.

Performance
-----------
A k-sweep is a batch of independent deployments — one per (policy, k)
pair — over one underlay, and :func:`policy_comparison` runs the whole
batch through :class:`~repro.core.deployment_batch.DeploymentBatch`
(``batched=True``, the default):

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

from typing import Dict, List, Optional, Sequence

from repro.core.deployment_batch import DeploymentBatch, DeploymentSpec
from repro.core.policies import (
    BestResponsePolicy,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    NeighborSelectionPolicy,
)
from repro.core.providers import MetricProvider
from repro.experiments.harness import ExperimentResult, add_normalized_sweep
from repro.scenario.registry import register_scenario
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec, coerce_seed
from repro.util.rng import SeedLike, as_generator, spawn_generators

#: The policies compared in Fig. 1 (full mesh is added where the paper does).
COMPARISON_POLICIES: Dict[str, NeighborSelectionPolicy] = {
    "k-random": KRandomPolicy(),
    "k-regular": KRegularPolicy(),
    "k-closest": KClosestPolicy(),
    "best-response": BestResponsePolicy(),
}

DEFAULT_K_VALUES = (2, 3, 4, 5, 6, 7, 8)

#: Per-panel presentation of the generic comparison result.
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


def policy_comparison(
    provider: MetricProvider,
    k_values: Sequence[int],
    *,
    include_full_mesh: bool = False,
    seed: SeedLike = None,
    br_rounds: int = 4,
    policies: Optional[Dict[str, NeighborSelectionPolicy]] = None,
    batched: bool = True,
) -> ExperimentResult:
    """Generic Fig.-1-style comparison over one metric provider.

    Wirings are chosen from the *announced* metric (what nodes measured)
    and evaluated on the *true* metric, as in a real deployment.  The
    whole (policy, k) grid is dispatched as one
    :class:`~repro.core.deployment_batch.DeploymentBatch`; ``batched``
    selects the stacked kernels or the bit-identical sequential
    reference path (see the module docstring's Performance section).
    """
    rng = as_generator(seed)
    policies = dict(policies) if policies is not None else dict(COMPARISON_POLICIES)
    if include_full_mesh:
        policies["full-mesh"] = FullMeshPolicy()
    result = ExperimentResult(
        figure="fig1",
        description="Individual cost of neighbor selection policies normalized by BR",
        x_label="k",
        y_label="individual cost / BR cost",
        metadata={"n": provider.size, "maximize": provider.true_metric().maximize},
    )
    # Snapshot the underlay for every k up front (advancing the provider
    # exactly as the sequential loop did), then give every deployment its
    # own RNG stream so batched and sequential builds draw identically.
    specs: List[DeploymentSpec] = []
    for k in k_values:
        announced = provider.announced_metric()
        truth = provider.true_metric()
        for name, policy in policies.items():
            specs.append(
                DeploymentSpec(
                    label=name,
                    policy=policy,
                    k=int(k),
                    announced=announced,
                    truth=truth,
                    br_rounds=br_rounds,
                )
            )
        provider.advance(1)
    for spec, stream in zip(specs, spawn_generators(rng, len(specs))):
        spec.rng = stream
    means = DeploymentBatch(specs, batched=batched).run()
    labels = list(policies)
    for index, k in enumerate(k_values):
        base = index * len(labels)
        raw = {
            label: float(means[base + offset])
            for offset, label in enumerate(labels)
        }
        add_normalized_sweep(result, k, raw, "best-response")
    return result


def _run_fig1(session: SimulationSession) -> ExperimentResult:
    """Registered runner shared by all four Fig. 1 panels."""
    spec = session.spec
    panel = _FIG1_PANELS[spec.experiment]
    rng = as_generator(spec.seed)
    provider = session.make_provider(rng)
    result = policy_comparison(
        provider,
        spec.k_grid,
        include_full_mesh=bool(spec.param("include_full_mesh", False)),
        seed=rng,
        br_rounds=spec.br_rounds,
        policies=session.policy_map(),
        batched=session.batched,
    )
    result.figure = spec.experiment
    result.description = panel["description"]
    if "y_label" in panel:
        result.y_label = panel["y_label"]
    return result


def _fig1_spec(
    experiment: str,
    n: int,
    k_values: Sequence[int],
    seed: SeedLike,
    br_rounds: int,
    **params,
) -> ScenarioSpec:
    panel = _FIG1_PANELS[experiment]
    merged = {"include_full_mesh": panel["include_full_mesh"], **params}
    return ScenarioSpec(
        experiment=experiment,
        n=int(n),
        k_grid=tuple(int(k) for k in k_values),
        metric=panel["metric"],
        br_rounds=int(br_rounds),
        seed=coerce_seed(seed),
        params=merged,
    )


def fig1_delay_ping(
    n: int = 50,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    *,
    seed: SeedLike = 0,
    br_rounds: int = 4,
    include_full_mesh: bool = True,
    batched: bool = True,
) -> ExperimentResult:
    """Fig. 1 top-left: delay via ping, including the full-mesh bound."""
    spec = _fig1_spec(
        "fig1-delay-ping", n, k_values, seed, br_rounds,
        include_full_mesh=bool(include_full_mesh),
    )
    return SimulationSession(spec, batched=batched).run()


def fig1_delay_pyxida(
    n: int = 50,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    *,
    seed: SeedLike = 0,
    br_rounds: int = 4,
    coordinate_rounds: int = 30,
    batched: bool = True,
) -> ExperimentResult:
    """Fig. 1 top-right: delay estimated by the virtual coordinate system."""
    spec = _fig1_spec(
        "fig1-delay-pyxida", n, k_values, seed, br_rounds,
        coordinate_rounds=int(coordinate_rounds),
    )
    return SimulationSession(spec, batched=batched).run()


def fig1_node_load(
    n: int = 50,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    *,
    seed: SeedLike = 0,
    br_rounds: int = 4,
    batched: bool = True,
) -> ExperimentResult:
    """Fig. 1 bottom-left: node (CPU) load as the cost metric."""
    spec = _fig1_spec("fig1-node-load", n, k_values, seed, br_rounds)
    return SimulationSession(spec, batched=batched).run()


def fig1_bandwidth(
    n: int = 50,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    *,
    seed: SeedLike = 0,
    br_rounds: int = 4,
    batched: bool = True,
) -> ExperimentResult:
    """Fig. 1 bottom-right: available bandwidth (larger is better).

    The y-axis is the policy's aggregate available bandwidth divided by
    BR's, so values sit in (0, 1] with BR at 1.
    """
    spec = _fig1_spec("fig1-bandwidth", n, k_values, seed, br_rounds)
    return SimulationSession(spec, batched=batched).run()


def _register() -> None:
    for name, panel in _FIG1_PANELS.items():
        def default_spec(name=name):
            return _fig1_spec(name, 50, DEFAULT_K_VALUES, 2008, 4)

        register_scenario(
            name,
            help=panel["help"],
            default_spec=default_spec,
            runner=_run_fig1,
            smoke_args=("--n", "12", "--k", "2,3", "--br-rounds", "1"),
        )


_register()
