"""The chaos harness' deterministic plan, schedule, and verdict logic.

The end-to-end SIGKILL runs live in ``repro chaos`` (exercised by CI on
``scenarios/chaos_smoke.json``); these tests pin down the pieces that
make those runs reproducible and the verdict trustworthy.
"""

from __future__ import annotations

import json

import pytest

from repro.scenario.spec import ScenarioSpec
from repro.serve.chaos import (
    ChaosReport,
    ChaosScenario,
    build_plan,
    kill_points,
    run_reference,
)
from repro.util.validation import ValidationError


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        experiment="live-overlay",
        n=16,
        k_grid=(3,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=3,
        br_rounds=2,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _scenario(**overrides) -> ChaosScenario:
    options = dict(spec=_spec(), seed=5, epochs=8, mutate_every=2, kills=2)
    options.update(overrides)
    return ChaosScenario(**options)


class TestPlan:
    def test_plan_is_deterministic_in_the_seed(self):
        assert build_plan(_scenario()) == build_plan(_scenario())
        assert build_plan(_scenario(seed=6)) != build_plan(_scenario(seed=5))

    def test_every_epoch_gets_an_idempotent_step(self):
        plan = build_plan(_scenario())
        steps = [arg for op, arg in plan if op == "step"]
        assert steps == list(range(8))

    def test_mutations_carry_stable_idem_keys(self):
        plan = build_plan(_scenario())
        idems = [arg["idem"] for op, arg in plan if op == "mutate"]
        assert idems == ["chaos-2", "chaos-4", "chaos-6"]
        for op, arg in plan:
            if op == "mutate":
                assert arg["mutation"]["kind"] in ("drift", "rewire")

    def test_lookup_pairs_stay_inside_the_overlay(self):
        plan = build_plan(_scenario(lookups_per_epoch=5))
        for op, arg in plan:
            if op == "lookup":
                assert len(arg) == 5
                for src, dst in arg:
                    assert src != dst
                    assert 0 <= src < 16 and 0 <= dst < 16


class TestKillPoints:
    def test_kill_points_are_deterministic_and_interior(self):
        scenario = _scenario(kills=3)
        points = kill_points(scenario)
        assert points == kill_points(scenario)
        assert len(points) == 3
        assert points == sorted(set(points))
        # Never after the final step: verification traffic must follow
        # the last recovery.
        assert all(0 <= point < scenario.epochs - 1 for point in points)

    def test_kill_schedule_varies_with_the_seed(self):
        assert kill_points(_scenario(seed=1, kills=4)) != kill_points(
            _scenario(seed=2, kills=4)
        )


class TestScenarioLoad:
    def _write(self, tmp_path, data):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_inline_scenario_round_trips(self, tmp_path):
        path = self._write(
            tmp_path,
            {"scenario": _spec().to_dict(), "seed": 9, "epochs": 5, "kills": 2},
        )
        scenario = ChaosScenario.load(path)
        assert scenario.spec.n == 16
        assert (scenario.seed, scenario.epochs, scenario.kills) == (9, 5, 2)

    def test_scenario_path_resolves_relative_to_the_file(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(_spec(n=20).to_dict()))
        path = self._write(tmp_path, {"scenario_path": "spec.json", "epochs": 4})
        assert ChaosScenario.load(path).spec.n == 20

    def test_exactly_one_scenario_source(self, tmp_path):
        path = self._write(
            tmp_path,
            {"scenario": _spec().to_dict(), "scenario_path": "spec.json"},
        )
        with pytest.raises(ValidationError, match="exactly one"):
            ChaosScenario.load(path)
        with pytest.raises(ValidationError, match="exactly one"):
            ChaosScenario.load(self._write(tmp_path, {"epochs": 4}))

    def test_unknown_fields_are_rejected(self, tmp_path):
        path = self._write(
            tmp_path, {"scenario": _spec().to_dict(), "sigkills": 3}
        )
        with pytest.raises(ValidationError, match="sigkills"):
            ChaosScenario.load(path)

    def test_kills_must_leave_room_to_recover(self, tmp_path):
        path = self._write(
            tmp_path, {"scenario": _spec().to_dict(), "epochs": 3, "kills": 3}
        )
        with pytest.raises(ValidationError, match="kills"):
            ChaosScenario.load(path)

    def test_checked_in_scenarios_parse(self):
        import os

        here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        for name in ("chaos_smoke.json", "chaos_quick.json", "chaos_churn.json"):
            scenario = ChaosScenario.load(os.path.join(here, "scenarios", name))
            assert scenario.kills < scenario.epochs
            assert scenario.checkpoint_every >= 1


class TestReference:
    def test_reference_run_is_reproducible(self):
        scenario = _scenario(epochs=4, lookups_per_epoch=3)
        first = run_reference(scenario)
        second = run_reference(scenario)
        assert first == second
        digests, lookups = first
        assert sorted(digests) == list(range(4))
        assert len(lookups) == 4  # one batch per epoch ...
        assert all(len(batch) == 3 for batch in lookups)  # ... of 3 values


class TestVerdict:
    def test_ok_requires_zero_loss_and_full_recovery(self):
        report = ChaosReport(kills=3, recoveries=3, epochs=12, replay_ok=True)
        assert report.ok
        assert report.summary().endswith("ok")
        for breaking in (
            dict(lost_mutations=1),
            dict(duplicated_mutations=1),
            dict(digest_mismatches=1),
            dict(lookup_mismatches=2),
            dict(unbounded_recoveries=1),
            dict(replay_ok=False),
            dict(recoveries=2),
        ):
            bad = ChaosReport(kills=3, recoveries=3, epochs=12, replay_ok=True)
            for key, value in breaking.items():
                setattr(bad, key, value)
            assert not bad.ok, breaking
            assert bad.summary().endswith("FAILED")
