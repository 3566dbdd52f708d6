"""Tests for random and topology-biased sampling."""

import numpy as np
import pytest

from repro.core.best_response import WiringEvaluator
from repro.core.cost import DelayMetric
from repro.core.policies import BestResponsePolicy, build_overlay
from repro.core.sampling import (
    bias_rank,
    neighborhood,
    random_sample,
    sampled_best_response,
    sampling_message_cost,
    topology_biased_sample,
)
from repro.experiments.sampling_exp import incremental_overlay
from repro.netsim.planetlab import synthetic_planetlab_trace
from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError


@pytest.fixture
def base_overlay(planetlab20_metric):
    """A BR overlay over the first 19 nodes; node 19 is the newcomer."""
    metric = planetlab20_metric
    existing = list(range(19))
    wiring = build_overlay(
        BestResponsePolicy(), metric, 3, nodes=existing, rng=0, br_rounds=2
    )
    return metric, wiring.to_graph(active=existing), existing


class TestRandomSample:
    def test_size_and_distinct(self):
        sample = random_sample(list(range(50)), 10, rng=0)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_capped_at_pool_size(self):
        assert len(random_sample([1, 2, 3], 10, rng=0)) == 3

    def test_empty_for_nonpositive_m(self):
        assert random_sample([1, 2, 3], 0, rng=0) == []


class TestNeighborhood:
    def test_radius_one_is_successors(self):
        graph = OverlayGraph(5)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 3, 1.0)
        assert neighborhood(graph, 0, 1) == {1, 2}

    def test_radius_two_extends(self):
        graph = OverlayGraph(5)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(2, 3, 1.0)
        assert neighborhood(graph, 0, 2) == {1, 2}
        assert neighborhood(graph, 0, 3) == {1, 2, 3}

    def test_radius_zero_empty(self):
        graph = OverlayGraph(3)
        graph.add_edge(0, 1, 1.0)
        assert neighborhood(graph, 0, 0) == set()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            neighborhood(OverlayGraph(3), 0, -1)


class TestBiasRank:
    def test_prefers_large_close_neighborhoods(self, base_overlay):
        metric, graph, existing = base_overlay
        newcomer = 19
        ranks = {c: bias_rank(newcomer, c, metric, graph, 2) for c in existing}
        best = max(ranks, key=ranks.get)
        worst = min(ranks, key=ranks.get)
        best_f = neighborhood(graph, best, 2)
        worst_f = neighborhood(graph, worst, 2)
        # The top-ranked candidate has no smaller a neighbourhood-per-distance
        # score; sanity-check that the ordering is meaningful.
        assert ranks[best] >= ranks[worst]
        assert len(best_f) >= 1

    def test_empty_neighborhood_ranks_zero(self, planetlab20_metric):
        graph = OverlayGraph(20)
        assert bias_rank(0, 5, planetlab20_metric, graph, 2) == 0.0


class TestTopologyBiasedSample:
    def test_size(self, base_overlay):
        metric, graph, existing = base_overlay
        sample = topology_biased_sample(
            19, metric, graph, 8, candidates=existing, rng=0
        )
        assert len(sample) == 8
        assert len(set(sample)) == 8

    def test_biased_sample_ranks_higher_on_average(self, base_overlay):
        metric, graph, existing = base_overlay
        rng = np.random.default_rng(0)
        biased = topology_biased_sample(
            19, metric, graph, 6, candidates=existing, rng=rng, oversample=3
        )
        uniform = random_sample(existing, 6, rng=rng)
        rank = lambda nodes: np.mean(
            [bias_rank(19, c, metric, graph, 2) for c in nodes]
        )
        assert rank(biased) >= rank(uniform) * 0.9

    def test_sampling_radius_ablation(self):
        """Ablation: the paper fixes the neighbourhood radius r = 2.  Sweep
        r in {1, 2, 3} and the oversampling factor in {1, 3} for a newcomer
        joining a 99-node BR overlay from m = 10 candidates; its cost is
        normalised by BR without sampling."""
        n, k, m, trials = 100, 3, 10, 4
        rng = np.random.default_rng(2008)
        metric = DelayMetric(synthetic_planetlab_trace(n, seed=rng).matrix)
        newcomer = n - 1
        existing = list(range(newcomer))
        base = incremental_overlay(metric, k, "best-response", nodes=existing, rng=rng)
        residual = base.to_graph(active=existing)
        evaluator = WiringEvaluator(
            newcomer, metric, residual, candidates=existing, destinations=existing
        )
        reference = sampled_best_response(newcomer, metric, residual, k, existing)
        reference_cost = evaluator.evaluate(reference.neighbors)
        ratio = {}
        for radius in (1, 2, 3):
            for oversample in (1, 3):
                costs = []
                for _ in range(trials):
                    sample = topology_biased_sample(
                        newcomer,
                        metric,
                        residual,
                        m,
                        oversample=oversample,
                        radius=radius,
                        candidates=existing,
                        rng=rng,
                    )
                    join = sampled_best_response(
                        newcomer, metric, residual, k, sample
                    )
                    costs.append(evaluator.evaluate(join.neighbors))
                ratio[radius, oversample] = float(np.mean(costs)) / reference_cost
        assert all(value < 2.0 for value in ratio.values())
        # Oversampling (m' = 3m) never hurts materially at r = 2 ...
        assert ratio[2, 3] <= ratio[2, 1] * 1.15
        # ... and the paper's r = 2 is no worse than r = 1 with it.
        assert ratio[2, 3] <= ratio[1, 3] * 1.15


class TestSampledBestResponse:
    def test_neighbors_within_sample(self, base_overlay):
        metric, graph, existing = base_overlay
        sample = random_sample(existing, 8, rng=1)
        result = sampled_best_response(19, metric, graph, 3, sample)
        assert result.neighbors <= set(sample)
        assert len(result.neighbors) == 3

    def test_empty_sample_rejected(self, base_overlay):
        metric, graph, _existing = base_overlay
        with pytest.raises(ValidationError):
            sampled_best_response(19, metric, graph, 3, [])

    def test_full_sample_matches_unsampled_br(self, base_overlay):
        metric, graph, existing = base_overlay
        from repro.core.best_response import best_response

        full = sampled_best_response(19, metric, graph, 3, existing)
        evaluator = WiringEvaluator(
            19, metric, graph, candidates=existing, destinations=existing
        )
        direct = best_response(evaluator, 3)
        assert evaluator.evaluate(full.neighbors) == pytest.approx(
            direct.cost, rel=0.05
        )


class TestMessageCost:
    def test_formula(self):
        assert sampling_message_cost(10, 1000, 4) == pytest.approx(
            10 * np.log(1000) / np.log(4)
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            sampling_message_cost(5, 1, 4)
        with pytest.raises(ValidationError):
            sampling_message_cost(5, 100, 1)
