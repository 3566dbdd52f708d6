"""Tests for the batched multi-deployment sweep kernels.

The heart of the suite is bitwise parity: every seeded sweep must return
byte-identical results under ``batched=True`` (stacked kernels, lockstep
best-response dynamics, fused broadcasts) and ``batched=False`` (the
preserved pre-batching sequential implementation).
"""

import numpy as np
import pytest

from repro.core import (
    BandwidthMetricProvider,
    BestResponsePolicy,
    DelayMetricProvider,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    metric_fingerprint,
)
from repro.core.deployment_batch import DeploymentBatch, DeploymentSpec
from repro.experiments import fig1_bandwidth, fig1_delay_ping, fig1_node_load
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.util.rng import spawn_generators
from repro.util.validation import ValidationError

POLICY_FACTORIES = (
    ("k-random", KRandomPolicy),
    ("k-closest", KClosestPolicy),
    ("k-regular", KRegularPolicy),
    ("best-response", BestResponsePolicy),
    ("full-mesh", FullMeshPolicy),
)


def _delay_provider(n, *, jitter=1.0, seed=5):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(5.0, 150.0, size=(n, n))
    np.fill_diagonal(matrix, 0.0)
    return DelayMetricProvider(
        DelaySpace(matrix, jitter_std=jitter), estimator="ping", seed=rng
    )


def _bandwidth_provider(n, *, seed=11):
    return BandwidthMetricProvider(BandwidthModel(n, seed=seed), seed=seed + 1)


def _sweep_specs(provider, k_values, seed, *, br_rounds=3):
    """The Fig.-1-style (policy, k) grid over one provider."""
    specs = []
    for k in k_values:
        announced = provider.announced_metric()
        truth = provider.true_metric()
        for _name, factory in POLICY_FACTORIES:
            specs.append(
                DeploymentSpec(
                    label=_name,
                    policy=factory(),
                    k=int(k),
                    announced=announced,
                    truth=truth,
                    br_rounds=br_rounds,
                )
            )
        provider.advance(1)
    streams = spawn_generators(np.random.default_rng(seed), len(specs))
    for spec, stream in zip(specs, streams):
        spec.rng = stream
    return specs


class TestBatchedSequentialParity:
    """batched=True and batched=False must agree bit for bit."""

    @pytest.mark.parametrize(
        "provider_factory,n",
        [
            # n - 1 > exact_threshold: the fused local-search broadcasts.
            (_delay_provider, 18),
            (_bandwidth_provider, 18),
            # n - 1 <= exact_threshold: the per-deployment exact fallback.
            (_delay_provider, 12),
            (_bandwidth_provider, 12),
        ],
    )
    def test_mean_costs_bitwise_equal(self, provider_factory, n):
        batched = DeploymentBatch(
            _sweep_specs(provider_factory(n), (1, 2, 3), 42), batched=True
        ).run()
        sequential = DeploymentBatch(
            _sweep_specs(provider_factory(n), (1, 2, 3), 42), batched=False
        ).run()
        assert np.array_equal(batched, sequential)

    @pytest.mark.parametrize("provider_factory", [_delay_provider, _bandwidth_provider])
    def test_built_wirings_identical(self, provider_factory):
        built_a = DeploymentBatch(
            _sweep_specs(provider_factory(16), (2, 4), 7), batched=True
        ).build()
        built_b = DeploymentBatch(
            _sweep_specs(provider_factory(16), (2, 4), 7), batched=False
        ).build()
        assert len(built_a) == len(built_b)
        for wiring_a, wiring_b in zip(built_a, built_b):
            for node in range(wiring_a.n):
                a = wiring_a.wiring_of(node)
                b = wiring_b.wiring_of(node)
                assert (a.neighbors if a else None) == (b.neighbors if b else None)
                assert wiring_a.weights_of(node) == wiring_b.weights_of(node)

    def test_zero_rounds_keeps_seed_wiring(self):
        specs_a = _sweep_specs(_delay_provider(14), (3,), 1, br_rounds=0)
        specs_b = _sweep_specs(_delay_provider(14), (3,), 1, br_rounds=0)
        a = DeploymentBatch(specs_a, batched=True).run()
        b = DeploymentBatch(specs_b, batched=False).run()
        assert np.array_equal(a, b)

    def test_epsilon_policy_parity(self):
        """BR(eps) thresholds flow through the fused adopt rule."""

        def specs(seed):
            provider = _delay_provider(16)
            announced = provider.announced_metric()
            truth = provider.true_metric()
            out = [
                DeploymentSpec(
                    label=f"eps-{eps}",
                    policy=BestResponsePolicy(eps),
                    k=3,
                    announced=announced,
                    truth=truth,
                    br_rounds=3,
                )
                for eps in (0.0, 0.1, 0.5)
            ]
            for spec, stream in zip(
                out, spawn_generators(np.random.default_rng(seed), len(out))
            ):
                spec.rng = stream
            return out

        assert np.array_equal(
            DeploymentBatch(specs(3), batched=True).run(),
            DeploymentBatch(specs(3), batched=False).run(),
        )


class TestFig1SweepParity:
    """Seeded Fig. 1 panels are byte-identical under both paths."""

    @pytest.mark.parametrize(
        "driver,kwargs",
        [
            (fig1_delay_ping, {"include_full_mesh": True}),
            (fig1_node_load, {}),
            (fig1_bandwidth, {}),
        ],
    )
    def test_series_byte_identical(self, driver, kwargs):
        batched = driver(n=20, k_values=(2, 4), seed=11, br_rounds=2, batched=True, **kwargs)
        sequential = driver(
            n=20, k_values=(2, 4), seed=11, br_rounds=2, batched=False, **kwargs
        )
        assert batched.as_dict() == sequential.as_dict()


class TestRouteValueTensor:
    def test_matches_per_deployment_route_values(self):
        specs = _sweep_specs(_delay_provider(15), (2, 3), 9)
        batch = DeploymentBatch(specs, batched=True)
        wirings = batch.build()
        graphs = [w.to_graph() for w in wirings]
        tensor = batch.route_value_tensor(graphs)
        assert tensor.shape == (len(specs), 15, 15)
        for spec, graph, matrix in zip(specs, graphs, tensor):
            expected = spec.truth.route_values_rows(graph, range(15))
            assert np.array_equal(matrix, expected)

    def test_bandwidth_tensor_matches_reference_loop(self):
        specs = _sweep_specs(_bandwidth_provider(12), (2,), 13)
        batch = DeploymentBatch(specs, batched=True)
        graphs = [w.to_graph() for w in batch.build()]
        tensor = batch.route_value_tensor(graphs)
        from repro.routing.widest_path import widest_path_bandwidths_multi

        for graph, matrix in zip(graphs, tensor):
            reference = widest_path_bandwidths_multi(
                graph, list(range(12)), batched=False
            )
            assert np.array_equal(matrix, reference)

    def test_requires_one_graph_per_spec(self):
        specs = _sweep_specs(_delay_provider(10), (2,), 1)
        batch = DeploymentBatch(specs)
        with pytest.raises(ValidationError):
            batch.route_value_tensor([])


class TestFingerprintSharing:
    def test_announced_fingerprint_computed_once_per_snapshot(self):
        provider = _delay_provider(12)
        announced = provider.announced_metric()
        truth = provider.true_metric()
        specs = [
            DeploymentSpec(
                label=f"k={k}",
                policy=BestResponsePolicy(),
                k=k,
                announced=announced,
                truth=truth,
                br_rounds=1,
            )
            for k in (2, 3, 4)
        ]
        for spec, stream in zip(
            specs, spawn_generators(np.random.default_rng(0), len(specs))
        ):
            spec.rng = stream
        batch = DeploymentBatch(specs)
        fp_first = batch.announced_fingerprint(announced)
        assert batch.announced_fingerprint(announced) is fp_first
        assert fp_first == metric_fingerprint(announced)
        batch.build()
        # Still the single shared snapshot entry.
        assert list(batch._metric_fps.values()) == [fp_first]

    def test_identical_matrices_share_fingerprint_value(self):
        provider = _delay_provider(10, jitter=0.0)
        a = provider.true_metric()
        b = provider.true_metric()
        assert a is not b
        assert metric_fingerprint(a) == metric_fingerprint(b)


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            DeploymentBatch([])

    def test_mismatched_sizes_rejected(self):
        small = _delay_provider(8)
        large = _delay_provider(12)
        specs = [
            DeploymentSpec(
                label="a",
                policy=KRandomPolicy(),
                k=2,
                announced=small.announced_metric(),
                truth=small.true_metric(),
            ),
            DeploymentSpec(
                label="b",
                policy=KRandomPolicy(),
                k=2,
                announced=large.announced_metric(),
                truth=large.true_metric(),
            ),
        ]
        with pytest.raises(ValidationError):
            DeploymentBatch(specs)

    @pytest.mark.parametrize(
        "preferences",
        [
            np.ones((8, 7)),
            np.where(np.eye(8, dtype=bool), np.nan, 1.0),
            np.where(np.eye(8, dtype=bool), -1.0, 1.0),
        ],
        ids=["wrong-shape", "not-finite", "negative"],
    )
    def test_invalid_preferences_rejected_at_construction(self, preferences):
        provider = _delay_provider(8)
        with pytest.raises(ValidationError):
            DeploymentSpec(
                label="a",
                policy=KRandomPolicy(),
                k=2,
                announced=provider.announced_metric(),
                truth=provider.true_metric(),
                preferences=preferences,
            )
