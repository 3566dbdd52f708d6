"""Tests for the SimulationSession facade."""

import numpy as np
import pytest

from repro.core.providers import (
    BandwidthMetricProvider,
    DelayMetricProvider,
    LoadMetricProvider,
)
from repro.scenario import (
    ChurnSpec,
    ScenarioSpec,
    SimulationSession,
    default_spec,
    run_spec,
)
from repro.util.validation import ValidationError


class TestFacade:
    def test_provider_families(self):
        for metric, expected in [
            ("delay-ping", DelayMetricProvider),
            ("delay-true", DelayMetricProvider),
            ("load", LoadMetricProvider),
            ("bandwidth", BandwidthMetricProvider),
        ]:
            spec = ScenarioSpec(experiment="fig1-delay-ping", n=10, metric=metric)
            provider = SimulationSession(spec).make_provider(np.random.default_rng(0))
            assert isinstance(provider, expected), metric
            assert provider.size == 10

    def test_policy_map_order_and_labels(self):
        spec = ScenarioSpec(
            experiment="fig2-efficiency-vs-k",
            n=10,
            policies=("k-random", "best-response", "hybrid-br(k2=2)"),
        )
        policies = SimulationSession(spec).policy_map()
        assert list(policies) == ["k-random", "best-response", "hybrid-br"]

    def test_preferences_uniform_and_skewed(self):
        session = SimulationSession(
            ScenarioSpec(experiment="overheads", n=10, preference_skew=0.0)
        )
        assert session.preferences(np.random.default_rng(0)) is None
        skewed = SimulationSession(
            ScenarioSpec(experiment="overheads", n=10, preference_skew=1.0)
        ).preferences(np.random.default_rng(0))
        assert skewed.shape == (10, 10)

    def test_churn_schedule_kinds(self):
        trace = SimulationSession(
            ScenarioSpec(
                experiment="fig2-efficiency-vs-k",
                n=8,
                epochs=3,
                churn=ChurnSpec(kind="trace"),
            )
        ).churn_schedule(np.random.default_rng(0))
        assert trace.n == 8
        parametrized = SimulationSession(
            ScenarioSpec(
                experiment="fig2-churn-rate",
                n=8,
                epochs=3,
                churn=ChurnSpec(kind="parametrized"),
            )
        )
        with pytest.raises(ValidationError):
            parametrized.churn_schedule(np.random.default_rng(0))
        schedule = parametrized.churn_schedule(np.random.default_rng(0), rate=1e-2)
        assert schedule.horizon == pytest.approx(3 * 60.0)

    def test_no_churn_returns_none(self):
        session = SimulationSession(ScenarioSpec(experiment="overheads", n=8))
        assert session.churn_schedule(np.random.default_rng(0)) is None

    def test_fig2_without_churn_is_a_clean_error(self):
        for experiment in ("fig2-efficiency-vs-k", "fig2-churn-rate"):
            spec = default_spec(experiment).override(n=8, epochs=1)
            spec.churn = None
            with pytest.raises(ValidationError):
                SimulationSession(spec).run()


class TestReproducibility:
    def test_rerun_from_json_reproduces_result(self):
        """The acceptance contract: a serialised spec reruns identically."""
        spec = default_spec("fig1-node-load").override(
            n=12, k_grid=(2, 3), br_rounds=1, seed=7
        )
        first = run_spec(spec)
        second = run_spec(ScenarioSpec.from_json(spec.to_json()))
        assert first.as_dict() == second.as_dict()

    def test_epoch_scenario_rerun_from_json(self):
        spec = default_spec("fig3-rewirings").override(
            n=10, k_grid=(2,), epochs=2, seed=4
        )
        first = run_spec(spec)
        second = run_spec(ScenarioSpec.from_json(spec.to_json()))
        assert first.as_dict() == second.as_dict()

    def test_provenance_metadata_attached(self):
        spec = default_spec("overheads").override(n=12, k_grid=(2,))
        result = run_spec(spec)
        assert result.metadata["scenario"] == spec.to_dict()

    def test_batched_flag_not_in_provenance(self):
        """batched is an execution detail: both paths share one provenance."""
        spec = default_spec("fig1-node-load").override(
            n=12, k_grid=(2,), br_rounds=1, seed=3
        )
        fast = run_spec(spec, batched=True)
        slow = run_spec(ScenarioSpec.from_dict(spec.to_dict()), batched=False)
        assert fast.as_dict() == slow.as_dict()

    def test_epoch_scenarios_carry_cache_stats(self):
        """``metadata["cache"]`` is the sequential engines' memo; the
        batched path hands every residual to its step and reads 0."""
        spec = default_spec("fig3-rewirings").override(
            n=10, k_grid=(2,), epochs=2, seed=4
        )
        result = run_spec(spec, batched=False)
        cache = result.metadata["cache"]
        for key in ("hits", "misses", "repairs", "restamps", "hit_rate"):
            assert key in cache
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_rate"] <= 1.0
        batched = run_spec(spec, batched=True).metadata["cache"]
        assert batched["hits"] == batched["misses"] == batched["entries"] == 0

    def test_build_only_scenarios_have_no_cache_stats(self):
        spec = default_spec("fig1-node-load").override(
            n=12, k_grid=(2,), br_rounds=1, seed=3
        )
        result = run_spec(spec)
        assert "cache" not in result.metadata
