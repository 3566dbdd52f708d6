"""Grouped sweep execution: build-only cells of one n share one batch.

The executor hands :func:`repro.scenario.session.run_group` the planned
cells of one ``n`` together; what lands in the store must be byte for
byte what each cell's own ``SimulationSession(spec).run()`` gives, a
failure must land on the cell that raised, and one heartbeat must keep
every held claim alive for as long as the group runs.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.core import deployment_batch
from repro.scenario import session as scenario_session
from repro.scenario.session import SimulationSession, merge_groups
from repro.sweep import SweepStore, SweepTemplate, run_sweep
from repro.sweep.dist import ClaimStore
from repro.sweep.dist.worker import WorkerInterrupted, execute_group_claimed
from repro.telemetry import runtime as telemetry

REPO = Path(__file__).resolve().parents[2]

#: fig1 ping, load and bandwidth panels, a preferences cell and one
#: epoch-loop cell, all at n = 12.
MIXED = {
    "name": "grouped-mix",
    "base": {
        "experiment": "fig1-delay-ping",
        "n": 12,
        "k_grid": [2, 3],
        "br_rounds": 2,
        "seed": 5,
    },
    "axes": {
        "panel": [
            {"label": "ping", "experiment": "fig1-delay-ping", "metric": "delay-ping"},
            {"label": "load", "experiment": "fig1-node-load", "metric": "load"},
            {"label": "bandwidth", "experiment": "fig1-bandwidth", "metric": "bandwidth"},
            {"label": "prefs", "experiment": "ablation-preferences",
             "metric": "delay-true", "k_grid": [3],
             "params": {"exponents": [0.0, 1.0], "k": 3}},
            {"label": "epochs", "experiment": "fig3-rewirings", "epochs": 2},
        ]
    },
}


@pytest.fixture(scope="module")
def mixed():
    return SweepTemplate.from_dict(MIXED).expand()


def _files(store: SweepStore) -> dict:
    return {key: open(store.path_for(key), "rb").read() for key in store.keys()}


def test_grouped_store_equals_each_cell_run_alone(mixed, tmp_path):
    groups = merge_groups([cell.spec for cell in mixed])
    assert groups == [[0, 1, 2, 3], [4]]
    alone = SweepStore(str(tmp_path / "alone"))
    for cell in mixed:
        alone.put(cell.key, cell.spec.to_dict(), SimulationSession(cell.spec).run().as_dict())
    trace: list = []
    registry = telemetry.enable(trace=trace)
    try:
        inline = SweepStore(str(tmp_path / "w1"))
        report = run_sweep(mixed, inline, workers=1)
        counters = registry.snapshot()["counters"]
    finally:
        telemetry.disable()
    assert sorted(report.executed) == sorted(cell.key for cell in mixed)
    assert (counters["sweep.groups"], counters["sweep.group_cells"]) == (2, 5)
    sizes = sorted(
        record["attrs"]["group"] for record in trace if record.get("name") == "sweep.cell"
    )
    assert sizes == [1, 4, 4, 4, 4]
    pooled = SweepStore(str(tmp_path / "w2"))
    run_sweep(mixed, pooled, workers=2)
    assert _files(inline) == _files(alone)
    assert _files(pooled) == _files(alone)


@pytest.mark.parametrize("stage", ["plan", "build"])
def test_a_failing_cell_of_a_group_fails_alone(mixed, tmp_path, monkeypatch, stage):
    """One cell's plan, or the shared build for its deployments, raises:
    each held cell re-runs alone, so exactly that key fails, with its
    traceback, and the others are stored."""
    planned = mixed[:4]
    bad = planned[2]  # the bandwidth panel
    if stage == "plan":
        original = SimulationSession.make_provider

        def exploding(self, rng):
            if self.spec.metric == "bandwidth":
                raise RuntimeError("planted failure")
            return original(self, rng)

        monkeypatch.setattr(SimulationSession, "make_provider", exploding)
    else:
        original = deployment_batch._BuildOwner.__init__

        def exploding(self, spec):
            if spec.truth.maximize:
                raise RuntimeError("planted failure")
            original(self, spec)

        monkeypatch.setattr(deployment_batch._BuildOwner, "__init__", exploding)
    store = SweepStore(str(tmp_path))
    report = run_sweep(planned, store, workers=1)
    assert [failure.key for failure in report.failed] == [bad.key]
    assert "planted failure" in report.failed[0].error
    record = ClaimStore(store.backend).failed_record(bad.key)
    assert "planted failure" in record["traceback"]
    assert "Traceback (most recent call last)" in record["traceback"]
    assert sorted(report.executed) == sorted(c.key for c in planned if c is not bad)
    assert sorted(store.keys()) == sorted(report.executed)


def test_one_heartbeat_keeps_every_held_claim(mixed, tmp_path, monkeypatch):
    """With a lease much shorter than the group's run, no held claim
    expires or can be taken over, and each done record keeps the real
    time from claim to done."""
    planned, lease, run_s = mixed[:4], 0.4, 1.6
    store = SweepStore(str(tmp_path))
    rival = ClaimStore(store.backend, lease_seconds=lease, host="rival-host", pid=1)
    taken, run_group = [], scenario_session.run_group

    def slow_group(specs):
        deadline = time.monotonic() + run_s
        while time.monotonic() < deadline:
            time.sleep(lease / 2)
            held = rival.claim_records()
            taken.extend(rival.try_claim(c.key) for c in planned)
            taken.extend(rival.expired(held[c.key]) for c in planned)
        return run_group(specs)

    monkeypatch.setattr(scenario_session, "run_group", slow_group)
    worker = threading.Thread(
        target=run_sweep, args=(planned, store), kwargs={"lease_seconds": lease}
    )
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert taken and not any(taken)
    for cell in planned:
        assert store.has(cell.key)
        assert ClaimStore(store.backend).done_record(cell.key)["elapsed"] >= run_s
    assert ClaimStore(store.backend).claim_records() == {}


def test_an_interrupt_releases_every_held_claim(mixed, tmp_path, monkeypatch):
    """SIGTERM during a group's run unwinds it: no cell is stored or marked
    failed, and every claim the group held is released at once."""
    planned = mixed[:4]
    store = SweepStore(str(tmp_path))

    def interrupted(specs):
        assert len(ClaimStore(store.backend).claim_records()) == len(planned)
        raise WorkerInterrupted(15)

    monkeypatch.setattr(scenario_session, "run_group", interrupted)
    with pytest.raises(WorkerInterrupted):
        execute_group_claimed(
            [(cell.key, cell.spec.to_dict()) for cell in planned],
            store_spec=store.backend.describe(),
        )
    claims = ClaimStore(store.backend)
    assert claims.claim_records() == {} and claims.failed_records() == {}
    assert store.keys() == []


def test_every_planned_experiment_counts_its_deployments():
    """``deployments(spec)`` is what the plan lays out: merge_groups caps
    a group by it before anything is planned."""
    from repro.scenario import registry

    for name in registry.scenario_names():
        definition = registry.resolve(name)
        if definition.plan is None:
            continue
        for spec in (
            definition.default_spec().override(n=10, k_grid=(2, 3)),
            definition.default_spec().override(n=10, policies=("k-random", "k-random")),
        ):
            deployments, _finish = definition.plan(SimulationSession(spec))
            assert definition.deployments(spec) == len(deployments), name


def test_merge_groups_caps_stacked_nodes_and_splits_by_n(mixed):
    cap = deployment_batch.MERGE_MAX_NODES
    fig1 = mixed[0].spec  # 2 k values x 4 policies
    per_cell = fig1.n * 8
    fits = cap // per_cell
    specs = [fig1] * (fits + 1) + [fig1.override(n=fig1.n + 1), mixed[4].spec]
    assert merge_groups(specs) == [
        list(range(fits)),
        [fits],
        [fits + 1],
        [fits + 2],
    ]
    wide = fig1.override(n=cap)  # one cell past the cap is a group of one
    assert merge_groups([wide, wide]) == [[0], [1]]


def _corpus_cells(relative):
    with open(REPO / relative) as handle:
        return SweepTemplate.from_dict(json.load(handle)).expand()


def test_merge_groups_width_on_the_12cell_corpora():
    """The cap's meaning on the benchmark corpus (n = 48, 4 deployments a
    cell: 192 stacked nodes) and on its n = 80 original (320 a cell,
    which the old 576-node cap ran one cell at a time)."""
    assert deployment_batch.MERGE_MAX_NODES == 1152
    bench = [cell.spec for cell in _corpus_cells("bench/build_12cell.json")]
    assert len(bench) == 12 and {spec.n for spec in bench} == {48}
    assert merge_groups(bench) == [list(range(6)), list(range(6, 12))]
    scenario = [cell.spec for cell in _corpus_cells("scenarios/bench_12cell.json")]
    assert len(scenario) == 12 and {spec.n for spec in scenario} == {80}
    assert merge_groups(scenario) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
