"""Tests for the declarative scenario spec layer."""

import pytest

from repro.core.hybrid import HybridBRPolicy
from repro.core.policies import BestResponsePolicy, KRandomPolicy
from repro.scenario import (
    CheatingSpec,
    ChurnSpec,
    ScenarioSpec,
    parse_policy,
    policy_label,
)
from repro.util.validation import ValidationError


class TestPolicyDescriptors:
    def test_simple_names(self):
        assert isinstance(parse_policy("k-random"), KRandomPolicy)
        assert isinstance(parse_policy("best-response"), BestResponsePolicy)

    def test_parameterised_best_response(self):
        policy = parse_policy("best-response(eps=0.1)")
        assert policy.epsilon == pytest.approx(0.1)

    def test_parameterised_hybrid(self):
        policy = parse_policy("hybrid-br(k2=4)")
        assert isinstance(policy, HybridBRPolicy)
        assert policy.k2 == 4

    def test_label_strips_arguments(self):
        assert policy_label("hybrid-br(k2=2)") == "hybrid-br"
        assert policy_label("k-closest") == "k-closest"

    @pytest.mark.parametrize(
        "descriptor", ["unknown-policy", "best-response(gamma=1)", "k-random(", "best-response(eps)"]
    )
    def test_malformed_rejected(self, descriptor):
        with pytest.raises(ValidationError):
            parse_policy(descriptor)


class TestValidation:
    def _spec(self, **overrides):
        base = dict(experiment="fig1-delay-ping", n=12, k_grid=(2, 3))
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_valid_spec_passes(self):
        self._spec().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 1},
            {"k_grid": ()},
            {"metric": "latency"},
            {"epochs": -1},
            {"br_rounds": -2},
            {"epsilon": -0.1},
            {"preference_skew": -1.0},
            {"policies": ("nope",)},
            {"experiment": ""},
            {"seed": "abc"},
            {"cheating": CheatingSpec(free_riders=(99,))},
            {"churn": ChurnSpec(kind="weird")},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValidationError):
            self._spec(**overrides).validate()

    def test_params_must_be_json(self):
        with pytest.raises(ValidationError):
            self._spec(params={"fn": object()}).validate()


class TestRoundTrip:
    def test_json_round_trip_preserves_canonical_dict(self):
        spec = ScenarioSpec(
            experiment="fig2-efficiency-vs-k",
            n=20,
            k_grid=(3, 5),
            policies=("best-response", "hybrid-br(k2=2)"),
            metric="delay-true",
            epochs=6,
            churn=ChurnSpec(kind="trace", horizon=360.0),
            cheating=CheatingSpec(free_riders=(0, 1), inflation=2.0),
            compute_efficiency=True,
            seed=11,
            params={"warmup_fraction": 0.3, "sizes": [4, 6]},
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.to_dict() == spec.to_dict()
        assert clone.k_grid == (3, 5)
        assert clone.churn == spec.churn
        assert clone.cheating.free_riders == (0, 1)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = ScenarioSpec(experiment="overheads", n=16, k_grid=(2,), seed=3)
        spec.save(str(path))
        assert ScenarioSpec.load(str(path)).to_dict() == spec.to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict({"experiment": "overheads", "bogus": 1})

    def test_override_merges_params(self):
        spec = ScenarioSpec(
            experiment="overheads", n=16, k_grid=(2,), params={"a": 1, "b": 2}
        )
        clone = spec.override(n=20, params={"b": 3})
        assert clone.n == 20
        assert clone.params == {"a": 1, "b": 3}
        assert spec.params == {"a": 1, "b": 2}


class TestFromDictErrorWrapping:
    """Coercion/construction failures must surface as field-named
    ValidationErrors (exit 2 at the CLI), never raw TypeE/ValueError."""

    def test_bad_k_grid_entries(self):
        with pytest.raises(ValidationError, match="'k_grid'"):
            ScenarioSpec.from_dict({"experiment": "x", "k_grid": ["a", 2]})

    def test_non_iterable_policies(self):
        with pytest.raises(ValidationError, match="'policies'"):
            ScenarioSpec.from_dict({"experiment": "x", "policies": 5})

    def test_missing_experiment(self):
        with pytest.raises(ValidationError, match="'experiment'"):
            ScenarioSpec.from_dict({"n": 12})

    def test_bad_churn_shape(self):
        with pytest.raises(ValidationError, match="'churn'"):
            ScenarioSpec.from_dict({"experiment": "x", "churn": {"bogus": 1}})

    def test_non_integer_free_riders_collected_not_raised(self):
        from repro.scenario.spec import CheatingSpec

        spec = ScenarioSpec(experiment="x", cheating=CheatingSpec(free_riders=("a",)))
        with pytest.raises(ValidationError, match="free riders must be integers"):
            spec.validate()
