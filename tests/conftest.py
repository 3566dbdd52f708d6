"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import BandwidthMetric, DelayMetric, NodeLoadMetric
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.netsim.load import NodeLoadModel
from repro.netsim.planetlab import synthetic_planetlab
from repro.scenario import default_spec, run_spec
from repro.telemetry import runtime as telemetry


def _fig1_four_panel(batched: bool):
    """The four Fig. 1 panels at paper scale (n = 50, k = 2..8, seed 2008,
    three BR rounds, full mesh on the ping panel), run with telemetry on:
    ``((ping, pyxida, node load, bandwidth), counters)``."""
    overrides = dict(n=50, k_grid=(2, 3, 4, 5, 6, 7, 8), seed=2008, br_rounds=3)
    registry = telemetry.enable()
    try:
        results = tuple(
            run_spec(default_spec(name).override(**overrides), batched=batched)
            for name in (
                "fig1-delay-ping",
                "fig1-delay-pyxida",
                "fig1-node-load",
                "fig1-bandwidth",
            )
        )
        return results, registry.snapshot()["counters"]
    finally:
        telemetry.disable()


@pytest.fixture(scope="session")
def fig1_paper_scale():
    """The batched paper-scale Fig. 1 sweep, computed once per session:
    the panel-shape checks (tests/experiments) and the kernel-call budget
    (tests/core) read the same run."""
    return _fig1_four_panel(batched=True)


@pytest.fixture
def fig1_paper_scale_sequential():
    """The same sweep on the sequential tier (``batched=False``)."""
    return _fig1_four_panel(batched=False)


class ResidualLedger:
    """Every residual a lockstep round plans, and the step that reads it."""

    def __init__(self):
        self.planned = 0
        #: ``(round, state)`` of residuals no step of their round read,
        #: and of residuals a step read that its round did not plan for it.
        self.unread: list = []
        self.strays: list = []
        self._round = 0
        self._pending: dict = {}

    def plan(self, residuals) -> None:
        self._close()
        self._round += 1
        self.planned += len(residuals)
        self._pending = {id(resid): (st, resid) for st, resid in residuals.items()}

    def take(self, st, resid) -> None:
        if resid is not None:
            if self._pending.pop(id(resid), (None,))[0] is not st:
                self.strays.append((self._round, st))

    def _close(self) -> None:
        self.unread += [(self._round, st) for st, _resid in self._pending.values()]
        self._pending = {}

    def all_read(self) -> int:
        """Check that every round's steps read exactly what it planned;
        returns the residuals planned."""
        self._close()
        assert self.unread == [], f"{len(self.unread)} planned residuals never read"
        assert self.strays == [], f"{len(self.strays)} residuals read outside their round"
        return self.planned


@pytest.fixture
def residual_ledger(monkeypatch):
    """A :class:`ResidualLedger` fed by spies on the lockstep driver's
    prefill and on both steps that read a residual."""
    from repro.core.engine_batch import _LockstepDriver, _LockstepState

    ledger = ResidualLedger()
    prefill = _LockstepDriver._prefill
    fused = _LockstepDriver._fused_engine_steps
    step = _LockstepState.step

    def prefill_spy(driver, live):
        residuals = prefill(driver, live)
        ledger.plan(residuals)
        return residuals

    def fused_spy(driver, group):
        for st, resid in group:
            ledger.take(st, resid)
        return fused(driver, group)

    def step_spy(state, residual):
        ledger.take(state, residual)
        return step(state, residual)

    monkeypatch.setattr(_LockstepDriver, "_prefill", prefill_spy)
    monkeypatch.setattr(_LockstepDriver, "_fused_engine_steps", fused_spy)
    monkeypatch.setattr(_LockstepState, "step", step_spy)
    return ledger


@pytest.fixture
def rng():
    """A seeded generator for test determinism."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_delay_matrix():
    """A hand-crafted 5-node asymmetric delay matrix with known structure.

    Node 0 is central (cheap to everyone); node 4 is remote (expensive).
    """
    return np.array(
        [
            [0.0, 10.0, 12.0, 15.0, 40.0],
            [11.0, 0.0, 8.0, 20.0, 45.0],
            [13.0, 9.0, 0.0, 18.0, 50.0],
            [16.0, 21.0, 19.0, 0.0, 30.0],
            [42.0, 44.0, 52.0, 31.0, 0.0],
        ]
    )


@pytest.fixture
def small_delay_space(small_delay_matrix):
    """DelaySpace over the 5-node matrix (no jitter)."""
    return DelaySpace(small_delay_matrix, jitter_std=0.0)


@pytest.fixture
def small_delay_metric(small_delay_matrix):
    """DelayMetric over the 5-node matrix."""
    return DelayMetric(small_delay_matrix)


@pytest.fixture
def planetlab20():
    """A 20-node synthetic PlanetLab delay space (deterministic)."""
    space, nodes = synthetic_planetlab(20, seed=7)
    return space, nodes


@pytest.fixture
def planetlab20_metric(planetlab20):
    """DelayMetric over the 20-node PlanetLab space."""
    space, _nodes = planetlab20
    return DelayMetric(space.matrix)


@pytest.fixture
def load_metric_small():
    """A 6-node NodeLoadMetric with a deliberately overloaded node 5."""
    return NodeLoadMetric([0.5, 1.0, 0.8, 1.5, 0.3, 9.0])


@pytest.fixture
def bandwidth_metric_small(rng):
    """A 6-node BandwidthMetric from a seeded bandwidth model."""
    model = BandwidthModel(6, seed=rng)
    return BandwidthMetric(model.matrix())


@pytest.fixture
def bandwidth_model8():
    """An 8-node bandwidth model (deterministic)."""
    return BandwidthModel(8, seed=42)


@pytest.fixture
def load_model8():
    """An 8-node load model (deterministic)."""
    return NodeLoadModel(8, seed=42)
