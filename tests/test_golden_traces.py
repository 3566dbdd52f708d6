"""Golden-trace regression tests for the simulation engine.

Each scenario runs a fully seeded :class:`~repro.core.EgoistEngine`
deployment for a handful of wiring epochs and compares the per-epoch
:class:`~repro.core.EpochRecord` stream — every field, exactly — against a
digest stored under ``tests/golden/``.  Floats are serialised with
``float.hex()`` so the comparison is bit-exact: any refactor that shifts a
cost by a single ULP, consumes RNG draws in a different order, or changes
tie-breaking in the best-response kernels fails these tests instead of
silently drifting the paper's figures.

To regenerate the digests after an *intentional* behaviour change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

and commit the refreshed JSON files together with the change.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from repro.churn.models import trace_driven_churn
from repro.core import (
    BandwidthMetricProvider,
    BestResponsePolicy,
    DelayMetricProvider,
    EgoistEngine,
    HybridBRPolicy,
    LoadMetricProvider,
)
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.netsim.load import NodeLoadModel
from tests.reference.scalar_best_response import ScalarBestResponsePolicy

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

FLOAT_FIELDS = ("time", "mean_cost", "mean_efficiency", "social_cost")
INT_FIELDS = ("epoch", "active_nodes", "rewirings", "linkstate_bits")


def _delay_space(n: int, seed: int, jitter_std: float = 0.0) -> DelaySpace:
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(5.0, 150.0, size=(n, n))
    np.fill_diagonal(matrix, 0.0)
    return DelaySpace(matrix, jitter_std=jitter_std)


def _build_engine(scenario: str) -> tuple[EgoistEngine, int]:
    """The seeded engine plus epoch count for one golden scenario."""
    if scenario == "delay_true":
        provider = DelayMetricProvider(_delay_space(10, seed=11), estimator="true")
        return EgoistEngine(provider, BestResponsePolicy(), k=2, seed=101), 6
    if scenario == "delay_ping_drift":
        provider = DelayMetricProvider(
            _delay_space(8, seed=22, jitter_std=2.0),
            estimator="ping",
            drift_relative_std=0.05,
            seed=202,
        )
        return EgoistEngine(provider, BestResponsePolicy(), k=2, seed=102), 5
    if scenario == "load":
        provider = LoadMetricProvider(NodeLoadModel(10, seed=33))
        return EgoistEngine(provider, BestResponsePolicy(), k=2, seed=103), 5
    if scenario == "bandwidth":
        provider = BandwidthMetricProvider(BandwidthModel(8, seed=44), seed=404)
        return EgoistEngine(provider, BestResponsePolicy(), k=2, seed=104), 5
    if scenario == "delay_churn":
        provider = DelayMetricProvider(_delay_space(10, seed=55), estimator="true")
        churn = trace_driven_churn(
            10,
            horizon=8 * 60.0,
            mean_on=300.0,
            mean_off=120.0,
            initial_on_probability=0.8,
            seed=505,
        )
        engine = EgoistEngine(
            provider,
            BestResponsePolicy(),
            k=2,
            churn=churn,
            compute_efficiency=True,
            seed=105,
        )
        return engine, 8
    if scenario == "hybrid_epsilon":
        provider = DelayMetricProvider(_delay_space(10, seed=66), estimator="true")
        engine = EgoistEngine(
            provider, HybridBRPolicy(k2=2), k=4, epsilon=0.1, seed=106
        )
        return engine, 5
    raise ValueError(f"unknown scenario {scenario!r}")


SCENARIOS = (
    "delay_true",
    "delay_ping_drift",
    "load",
    "bandwidth",
    "delay_churn",
    "hybrid_epsilon",
)


def _digest(engine: EgoistEngine, epochs: int) -> list:
    history = engine.run(epochs)
    rows = []
    for record in history.records:
        row = {name: int(getattr(record, name)) for name in INT_FIELDS}
        row.update(
            {name: float(getattr(record, name)).hex() for name in FLOAT_FIELDS}
        )
        rows.append(row)
    return rows


def _assert_rows_equal(actual: list, expected: list, scenario: str) -> None:
    assert len(actual) == len(expected), f"{scenario}: epoch count changed"
    for idx, (got, want) in enumerate(zip(actual, expected)):
        for name in INT_FIELDS:
            assert got[name] == want[name], (
                f"{scenario} epoch {idx}: {name} {got[name]!r} != {want[name]!r}"
            )
        for name in FLOAT_FIELDS:
            got_value = float.fromhex(got[name])
            want_value = float.fromhex(want[name])
            if math.isnan(got_value) and math.isnan(want_value):
                continue
            assert got[name] == want[name], (
                f"{scenario} epoch {idx}: {name} {got_value!r} != {want_value!r}"
            )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_trace(scenario):
    engine, epochs = _build_engine(scenario)
    rows = _digest(engine, epochs)
    path = GOLDEN_DIR / f"{scenario}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(rows, indent=2) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path} missing - run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    expected = json.loads(path.read_text())
    _assert_rows_equal(rows, expected, scenario)


def test_golden_traces_are_deterministic():
    """The same scenario built twice yields byte-identical digests (guards
    against hidden global-RNG or ordering dependence in the engine)."""
    first = _digest(*_build_engine("delay_true"))
    second = _digest(*_build_engine("delay_true"))
    assert first == second


def test_golden_trace_vectorization_invariance():
    """Golden digests must not depend on the batched kernels: the
    interpreted oracle policy reproduces the stored trace."""
    provider = DelayMetricProvider(_delay_space(10, seed=11), estimator="true")
    engine = EgoistEngine(provider, ScalarBestResponsePolicy(), k=2, seed=101)
    rows = _digest(engine, 6)
    path = GOLDEN_DIR / "delay_true.json"
    if not path.exists():
        pytest.skip("golden file not generated yet")
    _assert_rows_equal(rows, json.loads(path.read_text()), "delay_true[scalar]")
