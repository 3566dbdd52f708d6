"""Tests for the batched multi-deployment sweep kernels.

The heart of the suite is bitwise parity: every seeded sweep must return
byte-identical results under ``batched=True`` (stacked kernels, lockstep
best-response dynamics, fused broadcasts) and ``batched=False`` (the
preserved pre-batching sequential implementation).
"""

import gc
import importlib
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    BandwidthMetricProvider,
    BestResponsePolicy,
    DelayMetricProvider,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    LoadMetricProvider,
    ResidualRouteCache,
    deployment_batch,
    metric_fingerprint,
)
from repro.core.codec import history_digest
from repro.core.deployment_batch import DeploymentBatch, DeploymentSpec
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.netsim.load import NodeLoadModel
from repro.scenario import default_spec, run_spec
from repro.util.rng import spawn_generators
from repro.util.validation import ValidationError

#: Every module that reads the dense-closure cutoff.
CUTOFF_READERS = tuple(
    importlib.import_module(name)
    for name in ("repro.routing.widest_path", "repro.core.lockstep")
)

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


def _load_provider(n, *, seed=13):
    return LoadMetricProvider(NodeLoadModel(n, seed=seed))


class _MixedProvider:
    """Delay and bandwidth metrics by turns, one family per k of the grid:
    one batch then runs both planners and two fused groups every round."""

    def __init__(self, n):
        self._providers = [_delay_provider(n), _bandwidth_provider(n)]

    def announced_metric(self):
        return self._providers[0].announced_metric()

    def true_metric(self):
        return self._providers[0].true_metric()

    def advance(self, epochs=1):
        self._providers[0].advance(epochs)
        self._providers.reverse()


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
            (_load_provider, 18),
            (_MixedProvider, 18),
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

    @pytest.mark.parametrize("batch", ["build", "engine"])
    def test_past_the_closure_cutoff(self, batch, monkeypatch):
        """A bandwidth overlay past CLOSURE_MAX_NODES still gets its
        planned residual, from the per-source search inside
        ``batched_route_matrices`` instead of a dense closure: the steps
        stay fused, bitwise the sequential path."""
        for module in CUTOFF_READERS:
            monkeypatch.setattr(module, "CLOSURE_MAX_NODES", 8)

        def run(batched):
            if batch == "build":
                specs = _sweep_specs(_bandwidth_provider(18), (2, 3), 42, br_rounds=2)
                return DeploymentBatch(specs, batched=batched).run().tolist()
            streams = spawn_generators(np.random.default_rng(5), 2)
            specs = [
                EngineSpec(
                    label=f"br@k={k}",
                    provider=_bandwidth_provider(18),
                    policy=BestResponsePolicy(),
                    k=k,
                    seed=stream,
                )
                for k, stream in zip((2, 3), streams)
            ]
            histories = EngineBatch(specs, batched=batched).run(2)
            return history_digest(r for history in histories for r in history.records)

        registry = telemetry.enable()
        try:
            batched = run(True)
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert batched == run(False)
        assert counters["batch.steps.fused"] > 0
        assert counters.get("batch.steps.sequential", 0) == 0
        assert counters.get("kernel.widest.closure_fw.calls", 0) == 0


class TestFig1SweepParity:
    """Seeded Fig. 1 panels are byte-identical under both paths."""

    #: ``kernel.batched_route_matrices.dijkstra.calls`` of the batched
    #: paper-scale four-panel sweep (140 deployments, seed 2008).
    DIJKSTRA_CALL_BUDGET = 453
    #: ``kernel.widest.closure_fw.rows``; only the bandwidth panel reaches
    #: the widest-path kernels, so the four-panel total is that panel's:
    #: its builds' residual closures, one per stepping build per round,
    #: and its scoring.
    CLOSURE_ROW_BUDGET = 53_250
    #: The sequential side's ``kernel.shortest.multi.calls`` (3241 here) must
    #: exceed the batched Dijkstra calls by at least this factor.
    REQUIRED_CALL_RATIO = 5

    @pytest.mark.parametrize(
        "experiment",
        [
            # Ids kept from when these cases were parametrized by function.
            pytest.param("fig1-delay-ping", id="fig1_delay_ping-kwargs0"),
            pytest.param("fig1-node-load", id="fig1_node_load-kwargs1"),
            pytest.param("fig1-bandwidth", id="fig1_bandwidth-kwargs2"),
        ],
    )
    def test_series_byte_identical(self, experiment):
        spec = default_spec(experiment).override(n=20, k_grid=(2, 4), seed=11, br_rounds=2)
        batched = run_spec(spec, batched=True)
        sequential = run_spec(spec, batched=False)
        assert batched.as_dict() == sequential.as_dict()

    def test_four_panel_sweep_batched_call_budget(
        self, fig1_paper_scale, fig1_paper_scale_sequential
    ):
        """What stacking buys, as exact kernel-call counts: the batched
        sweep's stacked Dijkstra calls stay within the budget pinned at
        seed 2008, far below the one sweep per opportunity the sequential
        side pays, and the bandwidth panel closes only the residual graphs
        its steps read."""
        batched_results, batched_counters = fig1_paper_scale
        scalar_results, scalar_counters = fig1_paper_scale_sequential
        for batched_result, scalar_result in zip(batched_results, scalar_results):
            assert batched_result.as_dict() == scalar_result.as_dict(), (
                f"{batched_result.figure}: batched and sequential series diverged"
            )
        dijkstra_calls = batched_counters["kernel.batched_route_matrices.dijkstra.calls"]
        closure_rows = batched_counters["kernel.widest.closure_fw.rows"]
        sequential_calls = scalar_counters["kernel.shortest.multi.calls"]
        assert 0 < dijkstra_calls <= self.DIJKSTRA_CALL_BUDGET
        assert 0 < closure_rows <= self.CLOSURE_ROW_BUDGET
        assert sequential_calls >= self.REQUIRED_CALL_RATIO * dijkstra_calls

    def test_builds_report_the_step_ledger(self, fig1_paper_scale):
        """Builds run on the epoch loop's driver, so its step ledger counts
        every opportunity of the 28 best-response deployments (four panels
        x k = 2..8, 50 nodes, three rounds each), and the additive panels'
        stacked membership puts them on the maintained planner."""
        _results, counters = fig1_paper_scale
        steps = sum(
            counters.get(f"batch.steps.{kind}", 0)
            for kind in ("fused", "sequential", "skipped")
        )
        assert steps == 28 * 50 * 3
        assert counters["batch.prefill.derived"] > 0


class TestRouteValueTensor:
    def test_matches_per_deployment_route_values(self):
        specs = _sweep_specs(_delay_provider(15), (2, 3), 9)
        batch = DeploymentBatch(specs, batched=True)
        wirings = batch.build()
        graphs = [w.to_graph() for w in wirings]
        tensor = deployment_batch._route_values(batch.specs, graphs, batch.n)
        assert tensor.shape == (len(specs), 15, 15)
        for spec, graph, matrix in zip(specs, graphs, tensor):
            expected = spec.truth.route_values_rows(graph, range(15))
            assert np.array_equal(matrix, expected)

    def test_bandwidth_tensor_matches_reference_loop(self):
        specs = _sweep_specs(_bandwidth_provider(12), (2,), 13)
        batch = DeploymentBatch(specs, batched=True)
        graphs = [w.to_graph() for w in batch.build()]
        tensor = deployment_batch._route_values(batch.specs, graphs, batch.n)
        from repro.routing.widest_path import widest_path_bandwidths_multi

        for graph, matrix in zip(graphs, tensor):
            reference = widest_path_bandwidths_multi(
                graph, list(range(12)), batched=False
            )
            assert np.array_equal(matrix, reference)

    def test_scoring_stacks_at_most_the_score_block(self, monkeypatch):
        """Scoring a 35-deployment sweep of 50 nodes (the default
        fig1-delay-ping grid's size) never hands csgraph more stacked
        nodes than the scoring cap: its dense output is quadratic in them."""
        from repro.core import lockstep

        provider = _delay_provider(50)
        announced, truth = provider.announced_metric(), provider.true_metric()
        specs = [
            DeploymentSpec(
                label="k-random", policy=KRandomPolicy(), k=k, announced=announced,
                truth=truth, rng=stream,
            )
            for k, stream in zip(
                [2, 3, 4, 5, 6, 7, 8] * 5, spawn_generators(np.random.default_rng(3), 35)
            )
        ]
        batch = DeploymentBatch(specs)
        wirings = batch.build()
        stacked, dijkstra = [], lockstep._csgraph_dijkstra

        def spy(graph, **kwargs):
            stacked.append(graph.shape[0])
            return dijkstra(graph, **kwargs)

        monkeypatch.setattr(lockstep, "_csgraph_dijkstra", spy)
        means = batch.mean_true_costs(wirings)
        assert sum(stacked) == 35 * 50
        assert max(stacked) <= deployment_batch._SCORE_BLOCK_NODES
        monkeypatch.setattr(lockstep, "_csgraph_dijkstra", dijkstra)
        assert np.array_equal(means, DeploymentBatch(specs, batched=False).mean_true_costs(wirings))

    def test_requires_one_graph_per_spec(self):
        specs = _sweep_specs(_delay_provider(10), (2,), 1)
        batch = DeploymentBatch(specs)
        with pytest.raises(ValidationError):
            batch.mean_true_costs([])


class TestDeferredBuilds:
    """Structural overlays are built as their score chunk is scored, after
    the best-response rounds, and the order changes no output bit."""

    N = 24  # 10 deployments a score chunk: 30 specs span 3 chunks

    def _specs(self):
        return _sweep_specs(_MixedProvider(self.N), (2, 3, 4, 5, 6, 7), 17, br_rounds=2)

    def test_run_equals_sequential_and_scored_build(self):
        specs = self._specs()
        assert len(specs) > 2 * (deployment_batch._SCORE_BLOCK_NODES // self.N)
        batched = DeploymentBatch(specs).run()
        sequential = DeploymentBatch(self._specs(), batched=False).run()
        batch = DeploymentBatch(self._specs())
        assert np.array_equal(batched, sequential)
        assert np.array_equal(batched, batch.mean_true_costs(batch.build()))

    def test_at_most_one_chunk_of_structural_overlays_alive(self, monkeypatch):
        build, alive, most = deployment_batch._sequential_overlay, [], [0]

        def spy(spec):
            wiring = build(spec)
            gc.collect()
            alive[:] = [ref for ref in alive if ref() is not None]
            alive.append(weakref.ref(wiring))
            most[0] = max(most[0], len(alive))
            return wiring

        monkeypatch.setattr(deployment_batch, "_sequential_overlay", spy)
        specs = self._specs()
        structural = sum(not isinstance(s.policy, BestResponsePolicy) for s in specs)
        DeploymentBatch(specs).run()
        assert structural > 10
        assert most[0] <= deployment_batch._SCORE_BLOCK_NODES // self.N

    def test_every_planned_residual_is_read_in_its_round(self, residual_ledger):
        """The delay builds (maintained) and the bandwidth builds (stacked
        closures) of one batch: each round's steps read exactly the
        residuals it planned."""
        DeploymentBatch(self._specs()).run()
        assert residual_ledger.all_read() > 0


class TestMailbox:
    @pytest.mark.parametrize(
        "provider_factory,n",
        [
            (_delay_provider, 18),
            (_bandwidth_provider, 18),
            (_delay_provider, 12),
            (_bandwidth_provider, 12),
        ],
    )
    def test_a_batched_build_constructs_no_route_cache(
        self, provider_factory, n, monkeypatch
    ):
        """Each round hands its planned residuals to the steps that read
        them — fused steps and the exact-enumeration fallback alike — so
        no ResidualRouteCache is ever built."""
        constructed = []
        original = ResidualRouteCache.__init__

        def spy(cache, *args, **kwargs):
            constructed.append(cache)
            original(cache, *args, **kwargs)

        monkeypatch.setattr(ResidualRouteCache, "__init__", spy)
        batched = DeploymentBatch(
            _sweep_specs(provider_factory(n), (1, 2, 3), 42), batched=True
        ).run()
        assert constructed == []
        sequential = DeploymentBatch(
            _sweep_specs(provider_factory(n), (1, 2, 3), 42), batched=False
        ).run()
        assert np.array_equal(batched, sequential)


class TestFingerprintSharing:
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

    def test_a_shared_generator_is_rejected(self):
        """Two deployments drawing from one Generator interleave their draws
        differently in lockstep than one after another."""
        provider = _delay_provider(18)
        announced, truth = provider.announced_metric(), provider.true_metric()

        def specs(rng):
            return [
                DeploymentSpec(
                    label=f"br@k={k}",
                    policy=BestResponsePolicy(),
                    k=k,
                    announced=announced,
                    truth=truth,
                    rng=rng,
                )
                for k in (2, 3)
            ]

        with pytest.raises(ValidationError, match="'br@k=2' and 'br@k=3'"):
            DeploymentBatch(specs(np.random.default_rng(99)))
        # Seeds (and None) make a fresh stream per deployment.
        assert np.array_equal(
            DeploymentBatch(specs(99), batched=True).run(),
            DeploymentBatch(specs(99), batched=False).run(),
        )

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
