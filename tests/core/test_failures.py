"""Unit tests for the failure-injection layer.

Spec validation and round-trips, the epoch-by-epoch
:class:`~repro.core.failures.FailureState` transitions, the
:class:`~repro.core.failures.LinkMaskMetric` wrapper, the resilience
metrics, and a hand-computable four-node single-link-cut scenario whose
every epoch is pinned.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.churn.metrics import cost_overshoot, time_to_reconverge
from repro.churn.models import trace_driven_churn
from repro.core.cost import DISCONNECTION_BANDWIDTH, DISCONNECTION_COST
from repro.core.engine import EgoistEngine, EpochRecord
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.failures import (
    FailureEvent,
    FailureSpec,
    FailureState,
    LinkMaskMetric,
)
from repro.core.policies import BestResponsePolicy, KClosestPolicy
from repro.core.providers import BandwidthMetricProvider, DelayMetricProvider
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.scenario.spec import ScenarioSpec
from repro.util.validation import ValidationError


def _record(epoch, rewirings=0, mean_cost=10.0):
    return EpochRecord(
        epoch=epoch,
        time=epoch * 60.0,
        active_nodes=4,
        rewirings=rewirings,
        mean_cost=mean_cost,
        mean_efficiency=float("nan"),
        social_cost=4 * mean_cost,
        linkstate_bits=0,
    )


class TestSpecValidation:
    def test_event_requires_known_action(self):
        with pytest.raises(ValidationError, match="unknown failure action"):
            FailureEvent(epoch=0, action="meteor-strike").validate()

    def test_link_actions_need_links_and_reject_self_loops(self):
        with pytest.raises(ValidationError, match="at least one link"):
            FailureEvent(epoch=0, action="link-down").validate()
        with pytest.raises(ValidationError, match="self-loop"):
            FailureEvent(epoch=0, action="link-down", links=((2, 2),)).validate()

    def test_node_actions_need_nodes(self):
        for action in ("node-down", "node-up", "partition"):
            with pytest.raises(ValidationError, match="at least one node"):
                FailureEvent(epoch=0, action=action).validate()

    def test_spec_bounds(self):
        with pytest.raises(ValidationError, match="message_loss"):
            FailureSpec(message_loss=1.0).validate()
        with pytest.raises(ValidationError, match="reannounce_delay"):
            FailureSpec(reannounce_delay=-1).validate()
        with pytest.raises(ValidationError, match="epoch"):
            FailureSpec(
                events=(FailureEvent(epoch=-1, action="heal"),)
            ).validate()

    def test_from_dict_round_trip(self):
        spec = FailureSpec(
            events=(
                FailureEvent(epoch=2, action="link-down", links=((0, 1),)),
                FailureEvent(epoch=4, action="node-down", nodes=(3,)),
            ),
            reannounce_delay=1,
            message_loss=0.25,
        )
        assert FailureSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown failure spec fields"):
            FailureSpec.from_dict({"events": [], "severity": "high"})

    def test_scenario_spec_round_trip_and_range_checks(self):
        spec = ScenarioSpec(
            experiment="failures-resilience",
            n=8,
            k_grid=(2,),
            policies=("k-closest",),
            metric="delay-true",
            epochs=4,
            failures=FailureSpec(
                events=(FailureEvent(epoch=1, action="link-down", links=((0, 7),)),)
            ),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        bad = spec.override(
            failures=FailureSpec(
                events=(FailureEvent(epoch=1, action="node-down", nodes=(99,)),)
            )
        )
        with pytest.raises(ValidationError, match="out of range"):
            bad.validate()


class TestFailureState:
    def test_link_cut_restore_and_reannounce_window(self):
        spec = FailureSpec(
            events=(
                FailureEvent(epoch=1, action="link-down", links=((3, 0),)),
                FailureEvent(epoch=3, action="link-up", links=((0, 3),)),
            ),
            reannounce_delay=2,
        )
        state = FailureState(spec, 6)
        state.advance_to(0)
        assert state.down_links == set()
        state.advance_to(1)
        # Links canonicalise to (min, max) regardless of declared order.
        assert state.down_links == {(0, 3)}
        assert state.announced_masked_links(1) == {(0, 3)}
        state.advance_to(3)
        assert state.down_links == set()  # truth unmasks immediately
        assert state.truth_masked_links() == set()
        # ... but the announced metric stays masked through the window.
        assert state.announced_masked_links(3) == {(0, 3)}
        assert state.announced_masked_links(4) == {(0, 3)}
        state.advance_to(5)
        assert state.announced_masked_links(5) == set()

    def test_partition_expands_to_cross_links_and_heal_clears(self):
        spec = FailureSpec(
            events=(
                FailureEvent(epoch=0, action="partition", nodes=(0, 1)),
                FailureEvent(epoch=1, action="node-down", nodes=(2,)),
                FailureEvent(epoch=2, action="heal"),
            )
        )
        state = FailureState(spec, 4)
        state.advance_to(0)
        assert state.down_links == {(0, 2), (0, 3), (1, 2), (1, 3)}
        state.advance_to(1)
        assert state.down_nodes == {2}
        state.advance_to(2)
        assert state.down_links == set()
        assert state.down_nodes == set()

    def test_out_of_range_events_rejected(self):
        spec = FailureSpec(
            events=(FailureEvent(epoch=0, action="link-down", links=((0, 9),)),)
        )
        with pytest.raises(ValidationError, match="out of range"):
            FailureState(spec, 4)


class TestLinkMaskMetric:
    def _delay_metric(self, n=4):
        d = np.arange(1.0, n * n + 1).reshape(n, n)
        np.fill_diagonal(d, 0.0)
        d = (d + d.T) / 2
        return DelayMetricProvider(
            DelaySpace(d, jitter_std=0.0), estimator="true", seed=0
        ).true_metric()

    def test_masks_both_directions_in_weight_row_matrix(self):
        base = self._delay_metric()
        masked = LinkMaskMetric(base, {(1, 2)})
        assert masked.link_weight(1, 2) == DISCONNECTION_COST
        assert masked.link_weight(2, 1) == DISCONNECTION_COST
        assert masked.link_weight(0, 1) == base.link_weight(0, 1)
        row = masked.link_weight_row(1)
        assert row[2] == DISCONNECTION_COST
        assert row[0] == base.link_weight(1, 0)
        matrix = masked.link_weight_matrix()
        expected = base.link_weight_matrix()
        expected[1, 2] = expected[2, 1] = DISCONNECTION_COST
        np.testing.assert_array_equal(matrix, expected)

    def test_preserves_objective_and_uses_family_mask_value(self):
        base = self._delay_metric()
        masked = LinkMaskMetric(base, {(0, 1)})
        assert masked.maximize == base.maximize
        assert masked.unreachable_value == base.unreachable_value
        assert masked.size == base.size
        bw = BandwidthMetricProvider(BandwidthModel(4, seed=0), seed=0).true_metric()
        bw_masked = LinkMaskMetric(bw, {(0, 1)})
        assert bw_masked.maximize is True
        assert bw_masked.link_weight(0, 1) == DISCONNECTION_BANDWIDTH
        assert bw_masked.link_weight_row(1)[0] == DISCONNECTION_BANDWIDTH


class TestResilienceMetrics:
    def test_time_to_reconverge_finds_first_quiet_window(self):
        records = [
            _record(0, rewirings=4),
            _record(1, rewirings=0),
            _record(2, rewirings=2),  # event epoch
            _record(3, rewirings=1),
            _record(4, rewirings=0),
            _record(5, rewirings=0),
        ]
        assert time_to_reconverge(records, 2) == 2
        assert time_to_reconverge(records, 2, stable_epochs=2) == 2
        assert time_to_reconverge(records, 0) == 1  # pre-event quiet epoch
        assert time_to_reconverge(records, 2, stable_epochs=5) is None
        with pytest.raises(ValidationError, match="stable_epochs"):
            time_to_reconverge(records, 2, stable_epochs=0)

    def test_never_quiet_returns_none(self):
        records = [_record(e, rewirings=1) for e in range(4)]
        assert time_to_reconverge(records, 0) is None

    def test_cost_overshoot_relative_peak(self):
        records = [
            _record(0, mean_cost=10.0),
            _record(1, mean_cost=10.0),
            _record(2, mean_cost=15.0),
            _record(3, mean_cost=11.0),
        ]
        assert cost_overshoot(records, 2) == pytest.approx(0.5)
        # Repair that only improves cost clamps at zero.
        improved = [_record(0, mean_cost=10.0), _record(1, mean_cost=8.0)]
        assert cost_overshoot(improved, 1) == 0.0
        # Empty windows are NaN.
        assert np.isnan(cost_overshoot(records, 0))


def _four_node_provider():
    """A hand-checkable 4-node delay space.

    Delays: d(0,1)=1, d(2,3)=2, d(0,2)=5, d(0,3)=6, d(1,2)=7, d(1,3)=8.
    """
    d = np.array(
        [
            [0.0, 1.0, 5.0, 6.0],
            [1.0, 0.0, 7.0, 8.0],
            [5.0, 7.0, 0.0, 2.0],
            [6.0, 8.0, 2.0, 0.0],
        ]
    )
    return DelayMetricProvider(
        DelaySpace(d, jitter_std=0.0), estimator="true", seed=0
    )


def _four_node_cut_engine(failures, **kwargs):
    """k=1 k-closest on the 4-node delay space.

    Each node's closest neighbour is its pair partner, so the initial
    overlay splits into the components {0, 1} and {2, 3}.
    """
    return EgoistEngine(
        _four_node_provider(), KClosestPolicy(), 1, failures=failures, seed=0, **kwargs
    )


def _four_node_cut_batch(failures, batched):
    """The same deployment as a one-engine :class:`EngineBatch`."""
    spec = EngineSpec(
        label="cut",
        provider=_four_node_provider(),
        policy=KClosestPolicy(),
        k=1,
        failures=failures,
        seed=0,
    )
    return EngineBatch([spec], batched=batched)


class TestSingleLinkCutPinned:
    """Every epoch of the four-node single-link-cut run, by hand.

    * Epochs 0-1: overlay is 0<->1, 2<->3 — 8 of the 12 ordered pairs
      (the cross-component ones) have no route.
    * Epoch 2: the (0, 1) cut makes node 0 re-wire to 2 (d=5) and node 1
      to 2 (d=7); the directed edges {0->2, 1->2, 2->3, 3->2} leave the
      6 ordered pairs into {0, 1} unreachable.
    * Epoch 3 is the first quiet epoch: time-to-reconverge is 1.
    """

    FAILURES = FailureSpec(
        events=(FailureEvent(epoch=2, action="link-down", links=((0, 1),)),)
    )

    def test_pinned_trajectory(self):
        history = _four_node_cut_engine(self.FAILURES).run(5)
        assert [r.rewirings for r in history.records] == [4, 0, 2, 0, 0]
        assert [r.routes_stuck for r in history.records] == [8, 8, 6, 6, 6]
        assert time_to_reconverge(history.records, 2) == 1
        # The cut *improved* global reachability here (the overlay was
        # split before it), so the overshoot clamps at zero.
        assert cost_overshoot(history.records, 2) == 0.0

    def test_cut_link_leaves_the_wiring(self):
        engine = _four_node_cut_engine(self.FAILURES)
        engine.run(5)
        wirings = {
            i: sorted(node.wiring.neighbors) for i, node in enumerate(engine.nodes)
        }
        assert wirings == {0: [2], 1: [2], 2: [3], 3: [2]}

    def test_batched_path_is_byte_identical(self):
        batched = _four_node_cut_batch(self.FAILURES, batched=True).run(5)
        sequential = _four_node_cut_batch(self.FAILURES, batched=False).run(5)
        for ra, rb in zip(batched[0].records, sequential[0].records):
            for field in dataclasses.fields(EpochRecord):
                va, vb = getattr(ra, field.name), getattr(rb, field.name)
                if isinstance(va, float) and np.isnan(va):
                    assert np.isnan(vb), field.name
                else:
                    assert va == vb, field.name


class TestMessageLoss:
    def _failures(self, message_loss):
        return FailureSpec(
            events=(FailureEvent(epoch=1, action="link-down", links=((0, 1),)),),
            message_loss=message_loss,
        )

    def _histories(self, message_loss):
        engine = _four_node_cut_engine(self._failures(message_loss))
        history = engine.run(4)
        return history, engine

    def test_loss_counts_drops_without_changing_decisions(self):
        lossless, _ = self._histories(0.0)
        lossy, engine = self._histories(0.5)
        # Engine decisions read the global wiring, not the link-state
        # table, so the records are identical — loss only shows up
        # in the protocol counters.
        for ra, rb in zip(lossless.records, lossy.records):
            for field in dataclasses.fields(EpochRecord):
                va, vb = getattr(ra, field.name), getattr(rb, field.name)
                if isinstance(va, float) and np.isnan(va):
                    assert np.isnan(vb), field.name
                else:
                    assert va == vb, field.name
        assert engine.protocol.stats.announcements_lost > 0

    def test_lossless_run_draws_nothing(self):
        _, engine = self._histories(0.0)
        assert engine.protocol.stats.announcements_lost == 0
        assert engine.protocol._loss_rng is None

    def test_loss_stream_is_pinned(self):
        """One draw per non-origin recipient, ascending, per broadcast.

        The counters below were computed with the per-node topology
        databases this table replaced; the flood must keep consuming the
        loss stream exactly as they did, on both execution tiers.
        """
        _, engine = self._histories(0.5)
        engines = [engine]
        for batched in (True, False):
            batch = _four_node_cut_batch(self._failures(0.5), batched=batched)
            batch.run(4)
            engines.append(batch.engines[0])
        for engine in engines:
            stats = engine.protocol.stats
            assert (stats.announcements_sent, stats.announcement_bits) == (16, 3584)
            assert (stats.flood_deliveries, stats.announcements_lost) == (38, 26)

    @pytest.mark.parametrize("batched", [True, False])
    def test_loss_stream_is_pinned_under_churn(self, batched):
        """Same pin with a varying active set (n=16, trace churn, loss 0.3)."""
        n, epochs = 16, 5
        base = np.random.default_rng(23)
        delays = base.uniform(5.0, 120.0, size=(n, n))
        np.fill_diagonal(delays, 0.0)
        spec = EngineSpec(
            label="lossy",
            provider=DelayMetricProvider(
                DelaySpace(delays, jitter_std=1.0), estimator="true", seed=1
            ),
            policy=BestResponsePolicy(exact_threshold=2),
            k=3,
            churn=trace_driven_churn(
                n, epochs * 60.0, mean_on=200.0, mean_off=60.0, seed=base
            ),
            failures=FailureSpec(message_loss=0.3),
            compute_efficiency=True,
            seed=2,
        )
        batch = EngineBatch([spec], batched=batched)
        history = batch.run(epochs)[0]
        assert [r.active_nodes for r in history.records] == [16, 13, 14, 15, 11]
        stats = batch.engines[0].protocol.stats
        assert (stats.announcements_sent, stats.announcement_bits) == (69, 19840)
        assert (stats.flood_deliveries, stats.announcements_lost) == (700, 267)
