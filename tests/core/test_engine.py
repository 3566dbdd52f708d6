"""Tests for the epoch-driven overlay engine."""

import numpy as np
import pytest

from repro.churn.models import trace_driven_churn
from repro.core.cheating import CheatingModel
from repro.core.cost import DelayMetric
from repro.core.engine import EgoistEngine
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.failures import FailureEvent, FailureSpec
from repro.core.hybrid import HybridBRPolicy
from repro.core.policies import BestResponsePolicy, KClosestPolicy, KRandomPolicy
from repro.core.providers import BandwidthMetricProvider, DelayMetricProvider
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.planetlab import synthetic_planetlab
from repro.util.validation import ValidationError


@pytest.fixture
def provider12():
    space, _nodes = synthetic_planetlab(12, seed=5)
    return DelayMetricProvider(space, estimator="true", seed=5)


class TestEngineBasics:
    def test_run_produces_records(self, provider12):
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, seed=0)
        history = engine.run(3)
        assert len(history.records) == 3
        assert all(r.active_nodes == 12 for r in history.records)

    def test_first_epoch_wires_everyone(self, provider12):
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, seed=0)
        record = engine.run_epoch()
        assert record.rewirings == 12
        graph = engine.current_graph()
        assert all(graph.out_degree(i) == 3 for i in range(12))

    def test_stable_substrate_reaches_quiescence(self, provider12):
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, seed=0)
        history = engine.run(4)
        # With a noiseless, static substrate the dynamics settle quickly.
        assert history.rewirings_per_epoch()[-1] <= 2

    def test_mean_cost_finite_and_positive(self, provider12):
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, seed=0)
        history = engine.run(3)
        assert all(np.isfinite(r.mean_cost) and r.mean_cost > 0 for r in history.records)

    def test_br_cost_below_random(self, provider12):
        space, _nodes = synthetic_planetlab(12, seed=5)
        br = EgoistEngine(
            DelayMetricProvider(space, estimator="true"), BestResponsePolicy(), 3, seed=1
        ).run(3)
        rnd = EgoistEngine(
            DelayMetricProvider(space, estimator="true"), KRandomPolicy(), 3, seed=1
        ).run(3)
        assert br.steady_state_mean_cost() < rnd.steady_state_mean_cost()

    def test_linkstate_bits_accounted(self, provider12):
        engine = EgoistEngine(provider12, KClosestPolicy(), 3, seed=0)
        record = engine.run_epoch()
        # 12 nodes each announcing 3 links: 12 * (192 + 96) bits.
        assert record.linkstate_bits == 12 * (192 + 32 * 3)

    def test_node_costs_accessor(self, provider12):
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, seed=0)
        engine.run(2)
        costs = engine.node_costs()
        assert set(costs) == set(range(12))
        assert all(v > 0 for v in costs.values())

    @pytest.mark.parametrize(
        "preferences",
        [
            np.ones((12, 11)),
            np.ones((11, 11)),
            np.where(np.eye(12, dtype=bool), np.nan, 1.0),
            np.where(np.eye(12, dtype=bool), np.inf, 1.0),
            np.where(np.eye(12, dtype=bool), -0.5, 1.0),
        ],
        ids=["not-square", "wrong-size", "nan", "inf", "negative"],
    )
    def test_invalid_preferences_rejected_at_construction(self, provider12, preferences):
        with pytest.raises(ValidationError):
            EgoistEngine(provider12, BestResponsePolicy(), 3, preferences=preferences)

    def test_valid_preferences_are_kept_as_given(self, provider12):
        preferences = np.full((12, 12), 0.5)
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, preferences=preferences)
        assert engine.preferences is preferences


class TestEngineChurn:
    def test_active_set_follows_schedule(self):
        space, _nodes = synthetic_planetlab(10, seed=2)
        churn = trace_driven_churn(
            10, 10 * 60.0, mean_on=300.0, mean_off=300.0, seed=3,
            initial_on_probability=0.5,
        )
        engine = EgoistEngine(
            DelayMetricProvider(space, estimator="true"),
            BestResponsePolicy(),
            3,
            churn=churn,
            compute_efficiency=True,
            seed=0,
        )
        history = engine.run(5)
        for record in history.records:
            expected = len(churn.active_at(record.time))
            assert record.active_nodes == expected

    def test_offline_nodes_hold_no_links(self):
        space, _nodes = synthetic_planetlab(10, seed=2)
        churn = trace_driven_churn(
            10, 10 * 60.0, mean_on=200.0, mean_off=400.0, seed=1,
            initial_on_probability=0.5,
        )
        engine = EgoistEngine(
            DelayMetricProvider(space, estimator="true"),
            BestResponsePolicy(),
            3,
            churn=churn,
            seed=0,
        )
        engine.run(4)
        active = churn.active_at(engine.clock.now - engine.clock.epoch_length)
        graph = engine.wiring.to_graph()
        for u, v, _w in graph.edges():
            assert engine.nodes[u].wiring is not None

    def test_efficiency_computed_under_churn(self):
        space, _nodes = synthetic_planetlab(10, seed=2)
        churn = trace_driven_churn(10, 600.0, seed=5)
        engine = EgoistEngine(
            DelayMetricProvider(space, estimator="true"),
            HybridBRPolicy(k2=2),
            4,
            churn=churn,
            compute_efficiency=True,
            seed=0,
        )
        history = engine.run(3)
        assert all(0 <= r.mean_efficiency <= 1 or np.isnan(r.mean_efficiency) for r in history.records)

    def test_churn_size_mismatch_rejected(self, provider12):
        churn = trace_driven_churn(5, 600.0, seed=0)
        with pytest.raises(Exception):
            EgoistEngine(provider12, BestResponsePolicy(), 3, churn=churn)


class TestEngineCheating:
    def test_free_rider_distorts_announcements_not_truth(self):
        space, _nodes = synthetic_planetlab(10, seed=4)
        provider = DelayMetricProvider(space, estimator="true")
        cheating = CheatingModel(
            DelayMetric(space.matrix), free_riders=[0], inflation_factor=2.0
        )
        engine = EgoistEngine(
            provider, BestResponsePolicy(), 3, cheating=cheating, seed=0
        )
        history = engine.run(2)
        # Costs are evaluated on the true metric, so they stay finite and sane.
        assert all(np.isfinite(r.mean_cost) for r in history.records)

    def test_history_helpers(self, provider12):
        engine = EgoistEngine(provider12, BestResponsePolicy(), 3, seed=0)
        history = engine.run(4)
        assert history.total_rewirings() >= 12
        assert len(history.mean_costs()) == 4
        assert np.isfinite(history.steady_state_mean_cost())


class TestStepSpan:
    """``step_span`` is the shardable epoch entry point: cutting an epoch
    into spans must not change a single decision vs ``run_epoch``."""

    def _engine(self):
        space, _nodes = synthetic_planetlab(12, seed=5)
        provider = DelayMetricProvider(
            space, estimator="ping", drift_relative_std=0.02, seed=5
        )
        return EgoistEngine(
            provider, BestResponsePolicy(), 3, compute_efficiency=True, seed=11
        )

    def test_sharded_epochs_byte_identical_to_run_epoch(self):
        whole = self._engine()
        sharded = self._engine()
        for _ in range(3):
            expected = whole.run_epoch()
            plan = sharded.begin_epoch()
            while not plan.done:
                sharded.step_span(plan, 5)  # uneven spans across 12 nodes
            record = sharded.finish_epoch(plan)
            assert record == expected

    def test_step_span_returns_span_rewirings(self):
        engine = self._engine()
        plan = engine.begin_epoch()
        first = engine.step_span(plan, 4)
        rest = engine.step_span(plan)
        assert plan.done
        # Epoch 0 wires every node exactly once.
        assert first == 4 and rest == 8
        assert plan.rewirings == 12

    def test_step_span_overrun_and_zero_are_safe(self):
        engine = self._engine()
        plan = engine.begin_epoch()
        assert engine.step_span(plan, 0) == 0
        assert engine.step_span(plan, 10_000) == 12  # clamped at epoch end
        assert plan.done

    def test_negative_span_rejected(self):
        engine = self._engine()
        plan = engine.begin_epoch()
        with pytest.raises(ValidationError):
            engine.step_span(plan, -1)


class TestEpochViewRouteMatrix:
    """``last_epoch_view.route_values`` — the object ``repro serve``
    reads — is the from-scratch all-sources sweep of the committed
    overlay, on both execution tiers, for both metric families."""

    N = 12

    def _batch(self, family: str, efficiency: bool, batched: bool) -> EngineBatch:
        if family == "bandwidth":
            provider = BandwidthMetricProvider(BandwidthModel(self.N, seed=3), seed=4)
        else:
            space, _nodes = synthetic_planetlab(self.N, seed=2)
            provider = DelayMetricProvider(space, estimator="ping", seed=4)
        spec = EngineSpec(
            label=family,
            provider=provider,
            policy=BestResponsePolicy(exact_threshold=2),
            k=3,
            churn=trace_driven_churn(
                self.N, 6 * 60.0, mean_on=200.0, mean_off=150.0, seed=1,
                initial_on_probability=0.7,
            ),
            failures=FailureSpec(
                events=(FailureEvent(epoch=2, action="link-down", links=((0, 1),)),)
            ),
            # With efficiency on, an additive epoch scores from the
            # all-pairs sweep; without, from the multi-source one.
            compute_efficiency=efficiency,
            seed=9,
        )
        return EngineBatch([spec], batched=batched)

    @pytest.mark.parametrize(
        "family, efficiency", [("delay", True), ("delay", False), ("bandwidth", True)]
    )
    def test_matrix_is_the_from_scratch_sweep_on_both_tiers(self, family, efficiency):
        fused = self._batch(family, efficiency, True)
        plain = self._batch(family, efficiency, False)
        saw_inactive = False
        for _ in range(5):
            fused.run(1)
            plain.run(1)
            engine = fused.engines[0]
            view = engine.last_epoch_view
            active = view.active_list
            graph = engine.wiring.to_graph(active=active)
            assert view.version == engine.wiring.version
            assert np.array_equal(
                view.route_values[active],
                view.announced.route_values_rows(graph, active),
            )
            inactive = sorted(set(range(self.N)) - set(active))
            saw_inactive |= bool(inactive)
            unreachable = 0.0 if view.announced.maximize else np.inf
            assert (view.route_values[inactive] == unreachable).all()
            assert np.array_equal(
                view.route_values, plain.engines[0].last_epoch_view.route_values
            )
        assert saw_inactive
