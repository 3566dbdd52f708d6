#!/usr/bin/env python3
"""Scaling EGOIST with sampling: a newcomer joins a large overlay.

Reproduces the Section 5 scenario (Figs. 5-8): an overlay is grown
incrementally under a base wiring strategy, and a newcomer then computes
its best response using only a small sample of the residual graph —
unbiased random sampling versus topology-based biased sampling (BRtp).

Run with::

    python examples/scaling_sampling.py [n] [k] [base_policy]

where ``base_policy`` is one of best-response, k-random, k-regular,
k-closest.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.best_response import WiringEvaluator
from repro.core.cost import DelayMetric
from repro.core.sampling import (
    random_sample,
    sampled_best_response,
    sampling_message_cost,
    topology_biased_sample,
)
from repro.experiments.sampling_exp import incremental_overlay
from repro.netsim.planetlab import synthetic_planetlab_trace

SAMPLE_SIZES = (6, 10, 14, 20)


def main(n: int = 150, k: int = 3, base_policy: str = "best-response", seed: int = 2008) -> None:
    rng = np.random.default_rng(seed)
    print(f"Growing a {n}-node overlay incrementally under '{base_policy}' (k = {k})...")
    space = synthetic_planetlab_trace(n, seed=rng)
    metric = DelayMetric(space.matrix)
    newcomer = n - 1
    existing = [v for v in range(n) if v != newcomer]
    base = incremental_overlay(metric, k, base_policy, nodes=existing, rng=rng)
    residual = base.to_graph(active=existing)

    evaluator = WiringEvaluator(
        newcomer, metric, residual, candidates=existing, destinations=existing
    )
    reference = sampled_best_response(newcomer, metric, residual, k, existing)
    reference_cost = evaluator.evaluate(reference.neighbors)
    print(f"Newcomer's BR cost with the full residual graph: {reference_cost:.1f} ms\n")

    print(f"{'sample size m':>14} {'BR random sampling':>20} {'BRtp (r=2)':>12} {'walk messages':>14}")
    for m in SAMPLE_SIZES:
        uniform = random_sample(existing, m, rng=rng)
        br_uniform = sampled_best_response(newcomer, metric, residual, k, uniform)
        cost_uniform = evaluator.evaluate(br_uniform.neighbors) / reference_cost

        biased = topology_biased_sample(
            newcomer, metric, residual, m, oversample=3, radius=2,
            candidates=existing, rng=rng,
        )
        br_biased = sampled_best_response(newcomer, metric, residual, k, biased)
        cost_biased = evaluator.evaluate(br_biased.neighbors) / reference_cost

        messages = sampling_message_cost(3 * m, n, k)
        print(f"{m:>14} {cost_uniform:>20.3f} {cost_biased:>12.3f} {messages:>14.0f}")

    print(
        "\nCosts are normalised by BR over the full residual graph: even with a "
        "sample of a few percent of the overlay, the newcomer's cost stays close "
        "to 1, and topology-biased sampling needs smaller samples to get there."
    )


if __name__ == "__main__":
    argv = sys.argv[1:]
    n = int(argv[0]) if len(argv) > 0 else 150
    k = int(argv[1]) if len(argv) > 1 else 3
    base = argv[2] if len(argv) > 2 else "best-response"
    main(n, k, base)
