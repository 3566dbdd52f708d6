"""Figures 5-8: scalability via sampling.

An ``n = 295``-node overlay is constructed incrementally under one of the
base wiring strategies (BR for Fig. 5, k-Random for Fig. 6, k-Regular for
Fig. 7, k-Closest for Fig. 8).  A newcomer then joins using each of the
candidate strategies *restricted to a sample* of the residual graph —
k-Random / k-Regular / k-Closest with random sampling, BR with random
sampling, and BR with topology-based biased sampling (BRtp) — and its
resulting cost is normalised by the cost it would have achieved running BR
with no sampling at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.best_response import WiringEvaluator
from repro.core.cost import DelayMetric, Metric
from repro.core.policies import (
    BestResponsePolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    NeighborSelectionPolicy,
)
from repro.core.sampling import (
    random_sample,
    sampled_best_response,
    topology_biased_sample,
)
from repro.core.wiring import GlobalWiring, Wiring
from repro.experiments.harness import ExperimentResult, _param_list
from repro.netsim.planetlab import synthetic_planetlab_trace
from repro.routing.graph import OverlayGraph
from repro.scenario.registry import register_scenario
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError

DEFAULT_SAMPLE_SIZES = (6, 8, 10, 12, 14, 16, 18, 20)


def incremental_overlay(
    metric: Metric,
    k: int,
    policy_name: str,
    *,
    nodes: Optional[Sequence[int]] = None,
    rng: SeedLike = None,
    ensure_connected: bool = True,
) -> GlobalWiring:
    """Grow an overlay incrementally: each arrival wires by ``policy_name``.

    This mirrors the paper's simulation setup, in which the base network is
    "constructed incrementally using the BR strategy (without sampling)" —
    or one of the heuristics, for Figs. 6-8.
    """
    rng = as_generator(rng)
    n = metric.size
    node_list = list(nodes) if nodes is not None else list(range(n))
    policies: Dict[str, NeighborSelectionPolicy] = {
        "best-response": BestResponsePolicy(),
        "k-random": KRandomPolicy(),
        "k-regular": KRegularPolicy(),
        "k-closest": KClosestPolicy(),
    }
    if policy_name not in policies:
        raise ValidationError(f"unknown base policy {policy_name!r}")
    policy = policies[policy_name]
    wiring = GlobalWiring(n)
    joined: list = []
    for node in node_list:
        joined.append(node)
        if len(joined) == 1:
            continue
        residual = wiring.to_graph(active=joined)
        budget = min(k, len(joined) - 1)
        chosen = policy.select(
            node,
            budget,
            metric,
            residual,
            candidates=[c for c in joined if c != node],
            rng=rng,
            destinations=[d for d in joined if d != node],
        )
        weights = {v: metric.link_weight(node, v) for v in chosen}
        wiring.set_wiring(Wiring.of(node, chosen), weights)
    if ensure_connected:
        # Late arrivals have no in-links (nobody re-wires after joining in
        # this incremental construction), which would leave parts of the
        # overlay unreachable and swamp every newcomer's cost with the
        # disconnection penalty.  A live system heals this through
        # re-wiring; we enforce the same ring the empirical policies use.
        from repro.core.policies import enforce_connectivity_cycle

        enforce_connectivity_cycle(wiring, metric, nodes=node_list)
    return wiring


def _newcomer_cost(
    metric: Metric,
    residual_graph: OverlayGraph,
    newcomer: int,
    neighbors: Sequence[int],
    existing: Sequence[int],
) -> float:
    """True cost of the newcomer once wired to ``neighbors``."""
    evaluator = WiringEvaluator(
        node=newcomer,
        metric=metric,
        residual_graph=residual_graph,
        candidates=[c for c in existing if c != newcomer],
        destinations=[d for d in existing if d != newcomer],
    )
    return evaluator.evaluate(neighbors)


def _run_sampling(session) -> ExperimentResult:
    """Newcomer cost vs sample size on a base-policy graph (Figs. 5-8).

    The spec's params: ``base_policy`` (``"best-response"`` for Fig. 5,
    ``"k-random"``, ``"k-regular"``, ``"k-closest"`` for Figs. 6-8),
    ``k`` and ``radius`` (degree and BRtp neighbourhood radius; paper: 3
    and 2, at n = 295), ``sample_sizes`` (the x-axis sweep of sample
    sizes ``m``), ``trials`` (newcomers averaged per sample size) and
    ``oversample``.
    """
    spec = session.spec
    n = spec.n
    base_policy = str(spec.param("base_policy", "best-response"))
    k = int(spec.param("k", spec.k_grid[0]))
    radius = int(spec.param("radius", 2))
    sample_sizes = [int(m) for m in _param_list(spec, "sample_sizes", DEFAULT_SAMPLE_SIZES)]
    trials = int(spec.param("trials", 5))
    if trials < 1:
        raise ValidationError(f"{spec.experiment}: param 'trials' must be >= 1")
    oversample = int(spec.param("oversample", 3))
    rng = as_generator(spec.seed)
    space = synthetic_planetlab_trace(n, seed=rng)
    metric = DelayMetric(space.matrix)
    newcomer = n - 1
    existing = [v for v in range(n) if v != newcomer]
    base = incremental_overlay(
        metric, k, base_policy, nodes=existing, rng=rng
    )
    residual = base.to_graph(active=existing)

    # Reference: the newcomer's cost under BR with *no* sampling.
    reference = sampled_best_response(newcomer, metric, residual, k, existing)
    reference_cost = _newcomer_cost(
        metric, residual, newcomer, sorted(reference.neighbors), existing
    )

    figure_by_policy = {
        "best-response": "fig5",
        "k-random": "fig6",
        "k-regular": "fig7",
        "k-closest": "fig8",
    }
    result = ExperimentResult(
        figure=figure_by_policy.get(base_policy, "fig5"),
        description=(
            f"Newcomer cost / BR-no-sampling cost vs sample size on a {base_policy} graph"
        ),
        x_label="size of the sample",
        y_label="newcomer's cost / BR-no-sampling cost",
        metadata={
            "n": n,
            "k": k,
            "radius": radius,
            "base_policy": base_policy,
            "reference_cost": reference_cost,
        },
    )

    heuristics: Dict[str, NeighborSelectionPolicy] = {
        "k-random": KRandomPolicy(),
        "k-regular": KRegularPolicy(),
        "k-closest": KClosestPolicy(),
    }

    for m in sample_sizes:
        sums: Dict[str, float] = {label: 0.0 for label in list(heuristics) + ["BR", "BRtp"]}
        for _trial in range(trials):
            sample = random_sample(existing, m, rng=rng)
            # Heuristics restricted to the random sample.
            for label, policy in heuristics.items():
                chosen = policy.select(
                    newcomer,
                    k,
                    metric,
                    residual,
                    candidates=sample,
                    rng=rng,
                    destinations=sample,
                )
                sums[label] += _newcomer_cost(
                    metric, residual, newcomer, sorted(chosen), existing
                )
            # BR with random sampling.
            br_random = sampled_best_response(newcomer, metric, residual, k, sample)
            sums["BR"] += _newcomer_cost(
                metric, residual, newcomer, sorted(br_random.neighbors), existing
            )
            # BR with topology-based biased sampling.
            biased = topology_biased_sample(
                newcomer,
                metric,
                residual,
                m,
                oversample=oversample,
                radius=radius,
                candidates=existing,
                rng=rng,
            )
            br_biased = sampled_best_response(newcomer, metric, residual, k, biased)
            sums["BRtp"] += _newcomer_cost(
                metric, residual, newcomer, sorted(br_biased.neighbors), existing
            )
        for label, total in sums.items():
            mean_cost = total / trials
            result.add_point(label, m, mean_cost / reference_cost)
    return result


_SAMPLING_EXPERIMENTS = {
    "fig5-sampling-br": ("best-response", "Fig. 5: newcomer cost vs sample size on a BR graph"),
    "fig6-sampling-random": ("k-random", "Fig. 6: sampling on a k-Random graph"),
    "fig7-sampling-regular": ("k-regular", "Fig. 7: sampling on a k-Regular graph"),
    "fig8-sampling-closest": ("k-closest", "Fig. 8: sampling on a k-Closest graph"),
}


def _sampling_spec(experiment: str) -> ScenarioSpec:
    """The registered default spec of one sampling figure."""
    base_policy = _SAMPLING_EXPERIMENTS[experiment][0]
    return ScenarioSpec(
        experiment=experiment,
        n=295,
        k_grid=(3,),
        policies=(base_policy,),
        metric="delay-true",
        seed=2008,
        params={"base_policy": base_policy, "k": 3},
    )


def _register() -> None:
    for name, (_policy, help_text) in _SAMPLING_EXPERIMENTS.items():
        register_scenario(
            name,
            help=help_text,
            default_spec=lambda name=name: _sampling_spec(name),
            runner=_run_sampling,
            smoke_args=(
                "--n", "24", "--k", "2", "--trials", "1",
                "--param", "sample_sizes=4,6",
            ),
        )


_register()
