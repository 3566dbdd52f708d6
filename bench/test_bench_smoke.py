"""Smoke test of the benchmark itself (no timing assertions).

Runs all six workloads at ``--smoke`` sizes (n=16, a fraction of a second
each) and checks the contract between ``BENCHMARK.json`` and what
``bench.run`` emits: every named workload and metric, and nothing else;
clean outputs; digests that follow the seed; and a checker that really
fails a wrong answer.
"""

from __future__ import annotations

import re

import pytest

from bench import compare, harness, run, serve_workloads
from repro import telemetry

CONTRACT = run.load_contract()
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WINDOW_S = 0.1


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced and one traced run of the same seed."""
    out = {}
    for name in WORKLOADS:
        out[name] = (
            run.run_one(name, 1, WINDOW_S, trace=False, smoke=True),
            run.run_one(name, 1, WINDOW_S, trace=True, smoke=True),
        )
    assert not telemetry.enabled(), "a traced run left telemetry on"
    return out


def test_contract_names_are_well_formed():
    names = WORKLOADS + [
        entry["name"] for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s" and entry["better"] == "lower"
        for entry in CONTRACT["end_to_end"]
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_and_nothing_else(runs, name):
    untraced, traced = runs[name]
    assert set(untraced["metrics"]) == {e["name"] for e in CONTRACT["end_to_end"]}
    assert set(traced["metrics"]) == {e["name"] for e in CONTRACT["per_layer"]}
    units = {e["name"]: e["unit"] for e in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    for result in (untraced, traced):
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], float)
    # End-to-end metrics are never zero (a bound is a share of them).
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_are_correct_and_equal_for_equal_seeds(runs, name):
    untraced, traced = runs[name]
    for result in (untraced, traced):
        assert result["correct"] is True
        assert result["failed"] == 0  # error_rate == 0
        assert result["attempted"] >= 1
    assert untraced["info"]["output_digest"] == traced["info"]["output_digest"]


@pytest.mark.parametrize("name", ["static_n200", "churn_n50x12", "build_12cell"])
def test_digest_and_counts_follow_the_seed_not_the_window(runs, name):
    """Another seed gives other outputs; a longer window gives the same."""
    _untraced, traced = runs[name]
    other = run.run_one(name, 2, WINDOW_S, trace=False, smoke=True)
    assert other["info"]["output_digest"] != traced["info"]["output_digest"]
    longer = run.run_one(name, 1, 3 * WINDOW_S, trace=True, smoke=True)
    assert longer["info"]["output_digest"] == traced["info"]["output_digest"]
    for metric in ("routing.dijkstra_rows", "routing.dijkstra_calls",
                   "route_cache.hits", "route_cache.misses",
                   "best_response.steps_fused"):  # fmt: skip
        assert longer["metrics"][metric]["value"] == traced["metrics"][metric]["value"]
    assert traced["metrics"]["routing.dijkstra_rows"]["value"] > 0


def test_serve_digest_follows_the_seed():
    """Serve answers are digested with their stamps; seeds change them."""

    def digest(seed):
        served = serve_workloads.Reference(serve_workloads.spec_dict(seed, 16))
        pairs = [[src, (src + 5) % 16] for src in range(16)]
        answer = served.service.lookup_batch(pairs)
        event = ("lookups", pairs, answer["values"], answer["epoch"], answer["version"])
        return serve_workloads.answers_digest([event])

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_checker_fails_a_wrong_or_stale_answer():
    spec = serve_workloads.spec_dict(5, 16)
    served = serve_workloads.Reference(spec)  # stands in for the server
    pairs = [[src, (src + 3) % 16] for src in range(12)]
    answer = served.service.lookup_batch(pairs)
    good = ("lookups", pairs, list(answer["values"]), answer["epoch"], answer["version"])

    def failed(event):
        return serve_workloads.check_answers(
            serve_workloads.Reference(spec), [event], sample=100, seed=1
        )

    assert failed(good) == (len(pairs), 0)
    wrong = list(answer["values"])
    wrong[4] = wrong[4] * 1.5
    assert failed(good[:2] + (wrong,) + good[3:]) == (len(pairs), 1)
    # A reply stamped with an older wiring version is a stale read: every
    # answer it carries fails, whatever its values.
    assert failed(good[:4] + (answer["version"] - 1,)) == (len(pairs), len(pairs))


def test_compare_verdicts():
    base = {"median": 100.0, "runs": [99.0, 100.0, 101.0]}
    judge = lambda runs: compare.verdict(  # noqa: E731
        base, {"median": harness.median(runs), "runs": runs}, better="lower", bound=0.10
    )["verdict"]
    assert judge([100.0, 101.0, 102.0]) == "unchanged"
    assert judge([120.0, 121.0, 122.0]) == "regression"
    assert judge([80.0, 81.0, 82.0]) == "improved"
    # Spread wider than the bound and overlapping runs: cannot tell.
    assert judge([90.0, 104.0, 125.0]) == "unresolved"
    # Wide spread, but every run is slower than every base run: settled.
    assert judge([115.0, 130.0, 150.0]) == "regression"
