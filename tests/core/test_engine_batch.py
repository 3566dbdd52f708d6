"""Tests for the lockstep engine batch.

The heart of the suite is bitwise parity: a seeded sweep of epoch-driven
deployments must produce byte-identical epoch histories under
``batched=True`` (lockstep stepping with shared residual route-value
prefills) and ``batched=False`` (each engine's ``run()``, i.e. the plain
sequential :class:`EgoistEngine`), for every metric family, with and
without churn, cheating, and BR(eps).
"""

import dataclasses
import importlib
import pickle
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.churn.models import parametrized_churn, trace_driven_churn
from repro.core.cheating import CheatingModel
from repro.core.codec import history_digest
from repro.core.cost import BandwidthMetric, DelayMetric
from repro.core.engine import EgoistEngine, EpochRecord
from repro.core.engine_batch import (
    _MAINTAIN_MIN_ACTIVE,
    EngineBatch,
    EngineSpec,
    _LockstepState,
)
from repro.core.failures import FailureEvent
from repro.core.hybrid import HybridBRPolicy
from repro.core.policies import (
    BestResponsePolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
)
from repro.core.providers import (
    BandwidthMetricProvider,
    DelayMetricProvider,
    LoadMetricProvider,
    MetricProvider,
)
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.netsim.load import NodeLoadModel
from repro.netsim.planetlab import synthetic_planetlab, uniform_delay_space
from repro.scenario import default_spec, run_spec
from repro.telemetry.diagnostics import pooled_cache_stats, strip_diagnostics
from repro.util.rng import as_generator, spawn_generators
from repro.util.validation import ValidationError

# ``repro.routing`` re-exports a function named ``shortest_path``, which
# shadows the submodule attribute of the same name.
shortest_path_module = importlib.import_module("repro.routing.shortest_path")
lockstep_module = importlib.import_module("repro.core.lockstep")
engine_batch_module = importlib.import_module("repro.core.engine_batch")


def assert_records_identical(a: EpochRecord, b: EpochRecord) -> None:
    for field in dataclasses.fields(EpochRecord):
        va = getattr(a, field.name)
        vb = getattr(b, field.name)
        if isinstance(va, float) and np.isnan(va):
            assert np.isnan(vb), field.name
        else:
            assert va == vb, field.name


def assert_histories_identical(histories_a, histories_b) -> None:
    assert len(histories_a) == len(histories_b)
    for ha, hb in zip(histories_a, histories_b):
        assert len(ha.records) == len(hb.records)
        for ra, rb in zip(ha.records, hb.records):
            assert_records_identical(ra, rb)


def _delay_space(n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(5.0, 150.0, size=(n, n))
    np.fill_diagonal(matrix, 0.0)
    return DelaySpace(matrix, jitter_std=1.0)


def _policy_grid():
    return {
        "k-random": KRandomPolicy(),
        "k-regular": KRegularPolicy(),
        "k-closest": KClosestPolicy(),
        "best-response": BestResponsePolicy(),
    }


def _delay_specs(
    n,
    seed,
    *,
    estimator="ping",
    drift=0.0,
    churn=None,
    cheating=None,
    policies=None,
    k_values=(2, 3),
    compute_efficiency=False,
    epsilon=0.0,
):
    """One EngineSpec per (policy, k); each deployment owns one stream."""
    space = _delay_space(n, seed)
    policies = policies if policies is not None else _policy_grid()
    pairs = [(name, policy, k) for k in k_values for name, policy in policies.items()]
    streams = spawn_generators(np.random.default_rng(seed + 1), len(pairs))
    specs = []
    for (name, policy, k), stream in zip(pairs, streams):
        provider = DelayMetricProvider(
            space, estimator=estimator, drift_relative_std=drift, seed=stream
        )
        specs.append(
            EngineSpec(
                label=f"{name}@k={k}",
                provider=provider,
                policy=policy,
                k=k,
                churn=churn,
                cheating=cheating,
                epsilon=epsilon,
                compute_efficiency=compute_efficiency,
                seed=stream,
            )
        )
    return specs


def _bandwidth_specs(n, seed, *, k_values=(2, 3)):
    pairs = [(name, policy, k) for k in k_values for name, policy in _policy_grid().items()]
    streams = spawn_generators(np.random.default_rng(seed + 1), len(pairs))
    specs = []
    for (name, policy, k), stream in zip(pairs, streams):
        provider = BandwidthMetricProvider(BandwidthModel(n, seed=seed), seed=stream)
        specs.append(
            EngineSpec(
                label=f"{name}@k={k}",
                provider=provider,
                policy=policy,
                k=k,
                seed=stream,
            )
        )
    return specs


def _load_specs(n, seed, *, k_values=(2, 3)):
    pairs = [(name, policy, k) for k in k_values for name, policy in _policy_grid().items()]
    streams = spawn_generators(np.random.default_rng(seed + 1), len(pairs))
    specs = []
    for (name, policy, k), stream in zip(pairs, streams):
        model = NodeLoadModel(n, seed=seed)
        model.advance(3)
        specs.append(
            EngineSpec(
                label=f"{name}@k={k}",
                provider=LoadMetricProvider(model),
                policy=policy,
                k=k,
                seed=stream,
            )
        )
    return specs


class TestBatchedSequentialParity:
    """batched=True and batched=False must agree bit for bit."""

    def test_delay_ping_drift(self):
        batched = EngineBatch(_delay_specs(16, 3, drift=0.02), batched=True).run(4)
        sequential = EngineBatch(_delay_specs(16, 3, drift=0.02), batched=False).run(4)
        assert_histories_identical(batched, sequential)

    def test_delay_true_with_churn(self):
        def specs():
            churn = trace_driven_churn(
                14, 6 * 60.0, mean_on=600.0, mean_off=120.0, seed=9
            )
            return _delay_specs(
                14,
                5,
                estimator="true",
                churn=churn,
                compute_efficiency=True,
            )

        batched = EngineBatch(specs(), batched=True).run(6)
        sequential = EngineBatch(specs(), batched=False).run(6)
        assert_histories_identical(batched, sequential)

    def test_parametrized_churn_with_hybrid(self):
        def specs():
            churn = parametrized_churn(15, 5 * 60.0, 5e-3, seed=4)
            policies = {
                "best-response": BestResponsePolicy(),
                "hybrid-br": HybridBRPolicy(k2=2),
            }
            return _delay_specs(
                15,
                8,
                estimator="true",
                churn=churn,
                policies=policies,
                k_values=(4,),
                compute_efficiency=True,
            )

        batched = EngineBatch(specs(), batched=True).run(5)
        sequential = EngineBatch(specs(), batched=False).run(5)
        assert_histories_identical(batched, sequential)

    def test_bandwidth_family(self):
        batched = EngineBatch(_bandwidth_specs(15, 7), batched=True).run(4)
        sequential = EngineBatch(_bandwidth_specs(15, 7), batched=False).run(4)
        assert_histories_identical(batched, sequential)

    def test_load_family(self):
        batched = EngineBatch(_load_specs(15, 11), batched=True).run(4)
        sequential = EngineBatch(_load_specs(15, 11), batched=False).run(4)
        assert_histories_identical(batched, sequential)

    def test_epsilon_and_cheating(self):
        def specs():
            cheating = CheatingModel(
                DelayMetric(_delay_space(14, 2).matrix), {0, 1}, 2.0
            )
            return _delay_specs(
                14,
                2,
                policies={"best-response": BestResponsePolicy()},
                k_values=(2, 4),
                cheating=cheating,
                epsilon=0.1,
            )

        batched = EngineBatch(specs(), batched=True).run(4)
        sequential = EngineBatch(specs(), batched=False).run(4)
        assert_histories_identical(batched, sequential)

    def test_final_wirings_identical(self):
        batch_a = EngineBatch(_delay_specs(14, 6, drift=0.02), batched=True)
        batch_b = EngineBatch(_delay_specs(14, 6, drift=0.02), batched=False)
        batch_a.run(3)
        batch_b.run(3)
        for engine_a, engine_b in zip(batch_a.engines, batch_b.engines):
            for node in range(engine_a.n):
                wa = engine_a.wiring.wiring_of(node)
                wb = engine_b.wiring.wiring_of(node)
                assert (wa.neighbors if wa else None) == (wb.neighbors if wb else None)
                assert engine_a.wiring.weights_of(node) == engine_b.wiring.weights_of(node)


class TestAgainstPlainEngine:
    """The lockstep batch must match direct EgoistEngine runs."""

    def test_matches_direct_engine_runs(self):
        batched = EngineBatch(_delay_specs(15, 13, drift=0.02), batched=True).run(4)
        direct = []
        for spec in _delay_specs(15, 13, drift=0.02):
            direct.append(spec.build_engine().run(4))
        assert_histories_identical(batched, direct)


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            EngineBatch([])

    def test_mismatched_sizes_rejected(self):
        specs = _delay_specs(10, 1, k_values=(2,)) + _delay_specs(12, 1, k_values=(2,))
        with pytest.raises(ValidationError):
            EngineBatch(specs)


class TestMaskedFusedChurnPath:
    """The Fig. 2 tentpole: churned engines take the fused branch."""

    def _churned_batch(self, batched):
        churn = trace_driven_churn(14, 4 * 60.0, mean_on=400.0, mean_off=80.0, seed=5)
        policies = {
            "best-response": BestResponsePolicy(exact_threshold=2),
            "best-response-eps": BestResponsePolicy(epsilon=0.1, exact_threshold=2),
        }
        return EngineBatch(
            _delay_specs(
                14,
                11,
                churn=churn,
                policies=policies,
                k_values=(2, 3),
                compute_efficiency=True,
            ),
            batched=batched,
        )

    def test_partial_membership_is_fusable(self, monkeypatch):
        """Churned-down engines must not fall back to sequential steps."""
        batch = self._churned_batch(batched=True)
        fused_partial = 0
        fallback = 0
        original = EngineBatch._fused_engine_steps

        def spy(self, group):
            nonlocal fused_partial
            for st, _resid in group:
                if len(st.plan.active_list) < st.engine.n:
                    fused_partial += 1
            return original(self, group)

        original_step = EgoistEngine.step_node

        def step_spy(engine, plan, **kwargs):
            nonlocal fallback
            fallback += 1
            return original_step(engine, plan, **kwargs)

        monkeypatch.setattr(EngineBatch, "_fused_engine_steps", spy)
        monkeypatch.setattr(EgoistEngine, "step_node", step_spy)
        batch.run(4)
        assert fused_partial > 0, "no fused steps ran at partial membership"
        assert fallback == 0, "a BR engine fell back to per-engine stepping"

    def test_partial_membership_parity_and_persistent_states(self):
        batched_batch = self._churned_batch(batched=True)
        histories = batched_batch.run(2)
        states_after_first = batched_batch._states
        histories = batched_batch.run(2)  # continue on the same states
        assert batched_batch._states is states_after_first
        sequential = self._churned_batch(batched=False).run(4)
        assert_histories_identical(histories, sequential)

    def test_stale_residuals_are_recomputed_never_patched(self):
        """Below the maintained floor each residual is swept afresh from
        the overlay as it stands, in the round that reads it: no repair
        kernel runs, no repair ledger exists, and the sweep's Dijkstra
        budget is pinned so it cannot silently get more expensive."""
        batch = self._churned_batch(batched=True)
        registry = telemetry.enable()
        try:
            batch.run(4)
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert counters.get("kernel.shortest.repair.calls", 0) == 0
        assert counters.get("kernel.widest.repair.calls", 0) == 0
        assert not [name for name in counters if name.startswith("engine.repair.")]
        for engine in batch.engines:
            assert engine.route_cache.repairs == engine.route_cache.restamps == 0
        assert counters["batch.steps.fused"] == 200
        assert counters["kernel.batched_route_matrices.dijkstra.calls"] == 54
        assert counters["kernel.batched_route_matrices.dijkstra.rows"] == 3024


def _churned_specs(k_values):
    churn = trace_driven_churn(14, 4 * 60.0, mean_on=400.0, mean_off=80.0, seed=5)
    return _delay_specs(14, 11, churn=churn, compute_efficiency=True, k_values=k_values)


def _churned_stacked_specs():
    # Four engines of 14 nodes: below the floor even fully active.
    return _churned_specs((2,))


def _churned_maintained_specs():
    # Eight engines of 14 nodes: the group's stacked membership crosses
    # the floor although no single engine comes near it.
    return _churned_specs((2, 3))


def _settling_stacked_specs():
    return _delay_specs(
        24,
        21,
        estimator="true",
        policies={"best-response": BestResponsePolicy()},
        k_values=(2, 3),
        epsilon=0.1,
    )


def _mixed_maintained_specs():
    policies = {
        "best-response": BestResponsePolicy(),
        "hybrid-br": HybridBRPolicy(k2=2),
        "k-closest": KClosestPolicy(),
    }
    return _delay_specs(72, 21, estimator="true", policies=policies, k_values=(4,))


class _StaticProvider(MetricProvider):
    """One fixed metric, announced and true, for every epoch."""

    def __init__(self, metric):
        self._metric = metric

    @property
    def size(self):
        return self._metric.size

    def announced_metric(self):
        return self._metric

    def true_metric(self):
        return self._metric


def _static_bandwidth_specs():
    # Two best-response engines and a k-closest one on a fixed bandwidth
    # matrix: the stacked sweep closes the residuals of fused and
    # own-path steps alike, and settled nodes skip without one.
    metric = BandwidthMetric(BandwidthModel(24, seed=5).matrix())
    policies = [(BestResponsePolicy(), 2), (BestResponsePolicy(), 3), (KClosestPolicy(), 3)]
    streams = spawn_generators(np.random.default_rng(6), len(policies))
    return [
        EngineSpec(
            label=f"{policy.name}@k={k}",
            provider=_StaticProvider(metric),
            policy=policy,
            k=k,
            seed=stream,
        )
        for (policy, k), stream in zip(policies, streams)
    ]


#: One scenario per planner branch: (specs, epochs, the planner's entry
#: point, which must run).
_PLANNER_BRANCHES = {
    "stacked-churned": (_churned_stacked_specs, 4, "_sweep_residuals"),
    "stacked-settling": (_settling_stacked_specs, 5, "_sweep_residuals"),
    "maintained-churned": (_churned_maintained_specs, 4, "_derive_residuals"),
    "maintained-mixed": (_mixed_maintained_specs, 3, "_derive_residuals"),
    "bandwidth-closure": (_static_bandwidth_specs, 6, "_sweep_residuals"),
}


#: Every kernel that runs Dijkstra rows: the stacked block sweeps (the
#: epoch's scoring, the planner's matrix build), the plain multi-source
#: sweep, and the sweeps inside the repair kernel (changed rows,
#: refusals).
DIJKSTRA_KERNELS = (
    "batched_route_matrices.dijkstra",
    "shortest.multi",
    "shortest.repair.sweep",
)


def _dijkstra_rows(counters) -> int:
    return sum(counters.get(f"kernel.{name}.rows", 0) for name in DIJKSTRA_KERNELS)


def _count_table_builds(monkeypatch):
    """The engines covered by each repair-table build, one entry per build."""
    built = []
    original = engine_batch_module.shortest_inbound_tables

    def spy(adjacency):
        built.append(len(adjacency))
        return original(adjacency)

    monkeypatch.setattr(engine_batch_module, "shortest_inbound_tables", spy)
    return built


def _count_calls(monkeypatch, name):
    """Count calls of a planner entry point (see ``_PLANNER_BRANCHES``)."""
    owner = next(
        owner
        for owner in (EngineBatch, _LockstepState, lockstep_module)
        if hasattr(owner, name)
    )
    calls = [0]
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestMailbox:
    """A planned residual goes to the one step that reads it.

    Each round plans the residual of the node each stepping deployment
    steps and hands it to that step; the engines' route caches are the
    sequential tier's memo, which the batch never reads or writes."""

    @pytest.mark.parametrize("branch", sorted(_PLANNER_BRANCHES))
    def test_batched_run_never_touches_the_memo(self, branch, monkeypatch):
        specs, epochs, planner = _PLANNER_BRANCHES[branch]
        planned = _count_calls(monkeypatch, planner)
        batched = EngineBatch(specs(), batched=True)
        registry = telemetry.enable()
        try:
            batched.run(epochs)
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        sequential = EngineBatch(specs(), batched=False)
        sequential.run(epochs)
        assert planned[0] > 0, f"the {branch} planner never ran"
        for engine in batched.engines:
            stats = engine.route_cache.stats()
            assert stats["hits"] == stats["misses"] == stats["entries"] == 0
        # The sequential path reads its memo at every opportunity.
        memo = pooled_cache_stats(engine.route_cache for engine in sequential.engines)
        assert memo["hits"] + memo["misses"] > 0
        if branch != "stacked-settling":
            # Engines the fused kernel does not replicate were handed
            # their residuals too.
            assert counters["batch.steps.sequential"] > 0
        assert_histories_identical(
            [engine.history for engine in batched.engines],
            [engine.history for engine in sequential.engines],
        )

    @pytest.mark.parametrize("branch", sorted(_PLANNER_BRANCHES))
    def test_mailbox_invariants(self, branch, residual_ledger):
        """Each round plans a residual only for the node each stepping
        deployment steps, and that step — fused or on the engine's own
        path — reads it in the same round: nothing planned is thrown
        away or carried into a later round."""
        specs, epochs, _planner = _PLANNER_BRANCHES[branch]
        EngineBatch(specs(), batched=True).run(epochs)
        assert residual_ledger.all_read() > 0

    def test_past_the_closure_cutoff_the_memo_stays_untouched(self, monkeypatch):
        """A bandwidth overlay past CLOSURE_MAX_NODES is still planned for,
        by the per-source search inside ``batched_route_matrices``, so no
        step falls back to the sequential engine's memo."""
        monkeypatch.setattr(lockstep_module, "CLOSURE_MAX_NODES", 8)
        batched = EngineBatch(_static_bandwidth_specs(), batched=True)
        batched.run(2)
        sequential = EngineBatch(_static_bandwidth_specs(), batched=False)
        sequential.run(2)
        assert batched.n > lockstep_module.CLOSURE_MAX_NODES
        for engine in batched.engines:
            stats = engine.route_cache.stats()
            assert stats["hits"] == stats["misses"] == stats["entries"] == 0
        assert_histories_identical(
            [engine.history for engine in batched.engines],
            [engine.history for engine in sequential.engines],
        )


class TestMaintainedAllPairs:
    """Above the size floor an additive engine keeps one all-pairs matrix
    and derives every residual from it by repair (no per-opportunity
    n-source sweep); the histories must stay byte-identical."""

    N = 72

    def _specs(self, *, estimator="true", drift=0.0, churn=None, n=None, seed=21):
        return _delay_specs(
            n or self.N,
            seed,
            estimator=estimator,
            drift=drift,
            churn=churn,
            policies={"best-response": BestResponsePolicy()},
            k_values=(4,),
            compute_efficiency=churn is not None,
        )

    @staticmethod
    def _digest(histories):
        return history_digest(
            [record for history in histories for record in history.records]
        )

    @staticmethod
    def _run_counting(batch, epochs, monkeypatch, also=()):
        """Run epoch by epoch; returns the Dijkstra rows and the planner
        counter increments of each epoch (plus those of the fully named
        counters in ``also``)."""
        rows = [0]

        def counting(original):
            def dijkstra(graph, *args, indices=None, **kwargs):
                rows[0] += np.size(indices) if indices is not None else graph.shape[0]
                return original(graph, *args, indices=indices, **kwargs)

            return dijkstra

        for module in (shortest_path_module, lockstep_module):
            monkeypatch.setattr(
                module, "_csgraph_dijkstra", counting(module._csgraph_dijkstra)
            )
        per_epoch_rows, per_epoch_counts = [], []
        registry = telemetry.enable()
        try:
            seen = {}
            for _ in range(epochs):
                rows[0] = 0
                batch.step_epoch()
                per_epoch_rows.append(rows[0])
                counters = registry.snapshot()["counters"]
                now = {
                    key: counters.get(f"batch.prefill.{key}", 0)
                    for key in ("derived", "updated", "refused", "swept")
                }
                now.update({name: counters.get(name, 0) for name in also})
                per_epoch_counts.append(
                    {key: now[key] - seen.get(key, 0) for key in now}
                )
                seen = now
        finally:
            telemetry.disable()
        return per_epoch_rows, per_epoch_counts

    def test_steady_epochs_are_served_from_the_maintained_matrix(self, monkeypatch):
        n = self.N
        built = _count_table_builds(monkeypatch)
        batch = EngineBatch(self._specs(), batched=True)
        rows, counts = self._run_counting(
            batch, 3, monkeypatch, also=("batch.steps.skipped",)
        )
        (engine,) = batch.engines
        sequential = EngineBatch(self._specs(), batched=False).run(3)
        assert self._digest([engine.history]) == self._digest(sequential)
        # One sweep builds the matrix; from then on every opportunity is
        # derived from it and every version bump is one repair.
        assert [c["swept"] for c in counts] == [1, 0, 0]
        assert all(c["derived"] == n for c in counts)
        assert all(c["refused"] == 0 for c in counts)
        # (Updates are lazy: a re-wire at an epoch's last opportunity is
        # repaired by the next epoch's first derive.)
        rewirings = engine.history.records[-1].rewirings
        assert rewirings > 0 and abs(counts[-1]["updated"] - rewirings) <= 1
        # A fresh-sweep epoch costs n * (n - 1) residual rows; a
        # maintained one the n scoring rows plus one row per update.
        assert rows[-1] <= 2 * n + counts[-1]["updated"]
        assert rows[-1] * 10 < n * n
        # Each derived residual is streamed into its fused step and
        # dropped: the cache is never written or read, and every
        # opportunity was either derived or skipped as settled.
        stats = engine.route_cache.stats()
        assert len(engine.route_cache) == 0
        assert stats["hits"] == stats["misses"] == 0
        assert all(
            c["derived"] + c["batch.steps.skipped"] == n for c in counts
        )
        # The repair tables are built once per epoch and then follow the
        # re-wires row by row.
        assert built == [1, 1, 1]

    def test_parity_under_a_drifting_announced_metric(self, monkeypatch):
        # Ping estimates move every epoch, so every step re-installs its
        # weights: the matrix is repaired once per opportunity.
        specs = self._specs(estimator="ping", drift=0.02)
        batch = EngineBatch(specs, batched=True)
        _rows, counts = self._run_counting(batch, 3, monkeypatch)
        sequential = EngineBatch(
            self._specs(estimator="ping", drift=0.02), batched=False
        ).run(3)
        assert self._digest([batch.engines[0].history]) == self._digest(sequential)
        assert sum(c["updated"] for c in counts) > self.N

    def test_parity_under_churn_rebuilds_the_matrix(self, monkeypatch):
        n = 80

        def specs():
            churn = trace_driven_churn(
                n, 5 * 60.0, mean_on=1500.0, mean_off=100.0, seed=1
            )
            return self._specs(churn=churn, n=n)

        batch = EngineBatch(specs(), batched=True)
        _rows, counts = self._run_counting(batch, 5, monkeypatch)
        sequential = EngineBatch(specs(), batched=False).run(5)
        (engine,) = batch.engines
        assert self._digest([engine.history]) == self._digest(sequential)
        active = [record.active_nodes for record in engine.history.records]
        assert len(set(active)) > 1, "the schedule never changed the membership"
        assert min(active) >= _MAINTAIN_MIN_ACTIVE
        # A departure takes links out of the dense overlay, so
        # begin_epoch drops the matrix and the epoch's first derive
        # re-sweeps it (nodes leave before every epoch of this schedule).
        assert [c["swept"] for c in counts] == [1] * 5
        assert sum(c["derived"] for c in counts) == sum(active)

    def test_wiring_reset_between_epochs_drops_the_matrix(self, monkeypatch):
        # Same membership, same metric fingerprint: only the dense
        # overlay tells that the cached matrix no longer describes it.
        def mutate(batch):
            batch.engines[0].reset_wiring([3, 7])

        batch = EngineBatch(self._specs(), batched=True)
        batch.step_epoch()
        mutate(batch)
        _rows, counts = self._run_counting(batch, 2, monkeypatch)
        sequential = EngineBatch(self._specs(), batched=False)
        sequential.step_epoch()
        mutate(sequential)
        sequential.run(2)
        assert self._digest([batch.engines[0].history]) == self._digest(
            [sequential.engines[0].history]
        )
        assert [c["swept"] for c in counts] == [1, 0]

    def test_a_restored_batch_rebuilds_its_lockstep_states(self):
        # Serve checkpoints pickle the batch between epochs.
        batch = EngineBatch(self._specs(), batched=True)
        batch.run(2)
        restored = pickle.loads(pickle.dumps(batch))
        assert restored._states is None
        restored.run(1)
        uninterrupted = EngineBatch(self._specs(), batched=True).run(3)
        assert self._digest([restored.engines[0].history]) == self._digest(uninterrupted)

    @pytest.mark.parametrize("n", [24, 50])
    def test_small_overlays_keep_the_stacked_sweeps(self, n, monkeypatch):
        batch = EngineBatch(self._specs(n=n), batched=True)
        _rows, counts = self._run_counting(batch, 2, monkeypatch)
        assert all(value == 0 for c in counts for value in c.values())

    def test_the_floor_counts_the_group_and_one_build_serves_it(self, monkeypatch):
        # Two engines of 40 nodes: neither reaches the floor alone, the
        # group does.  Both matrices come from one stacked build, and
        # every round derives both engines' residuals in one repair.
        def specs():
            return _delay_specs(
                40,
                21,
                estimator="true",
                policies={"best-response": BestResponsePolicy()},
                k_values=(3, 4),
            )

        assert 40 < _MAINTAIN_MIN_ACTIVE <= 80
        rounds = _count_calls(monkeypatch, "_prefill")
        builds = [0]
        original = engine_batch_module.batched_route_matrices

        def build_spy(stack, *args, **kwargs):
            builds[0] += 1
            return original(stack, *args, **kwargs)

        monkeypatch.setattr(engine_batch_module, "batched_route_matrices", build_spy)
        batch = EngineBatch(specs(), batched=True)
        _rows, counts = self._run_counting(
            batch,
            3,
            monkeypatch,
            also=("kernel.shortest.repair.calls", "batch.steps.skipped"),
        )
        assert self._digest([e.history for e in batch.engines]) == self._digest(
            EngineBatch(specs(), batched=False).run(3)
        )
        assert [c["swept"] for c in counts] == [2, 0, 0]
        # One stacked build, then one scoring sweep per epoch.
        assert builds[0] == 1 + 3
        assert all(c["refused"] == 0 for c in counts)
        # Every opportunity of both engines is derived (or settled), yet
        # a round runs at most two repairs, however wide the group.
        assert all(c["derived"] + c["batch.steps.skipped"] == 2 * 40 for c in counts)
        assert sum(c["kernel.shortest.repair.calls"] for c in counts) <= 2 * rounds[0]
        alone = EngineBatch(specs()[:1], batched=True)
        _rows, counts = self._run_counting(alone, 1, monkeypatch)
        assert counts == [{"derived": 0, "updated": 0, "refused": 0, "swept": 0}]

    def test_maintained_matrix_dijkstra_row_budget(self):
        """A static n=128 BR engine serves its third epoch from the
        maintained matrix: the scoring sweep (n rows) plus one changed row
        per version bump (at most n), with room for one full re-sweep
        after a refusal.  A fresh sweep per opportunity is n * (n - 1)
        = 16 256 rows."""
        n, k, epochs = 128, 6, 3
        rng = as_generator(np.random.SeedSequence([2008, n]))
        space = uniform_delay_space(n, seed=rng)
        (stream,) = spawn_generators(rng, 1)
        spec = EngineSpec(
            label="br",
            provider=DelayMetricProvider(space, estimator="true", seed=stream),
            policy=BestResponsePolicy(),
            k=k,
            seed=stream,
        )
        batch = EngineBatch([spec], batched=True)
        registry = telemetry.enable()
        try:
            for _ in range(epochs - 1):
                batch.step_epoch()
            before = _dijkstra_rows(registry.snapshot()["counters"])
            (record,) = batch.step_epoch()
            counters = registry.snapshot()["counters"]
            rows = _dijkstra_rows(counters) - before
        finally:
            telemetry.disable()
        assert record.rewirings > 0, "the gate must measure a re-wiring epoch"
        assert rows <= 3 * n
        # k = 6 is past the no-improving-swap certificate's five passes:
        # all 384 searches end on a certified pass, none on a last swap
        # tensor that finds nothing.
        assert counters["batch.steps.fused"] == epochs * n
        assert counters["best_response.certified"] == 384


def _reachable_array_bytes(obj, seen=None):
    """Bytes of every ndarray reachable from ``obj`` through containers,
    ``__slots__``/``__dict__`` objects and sparse matrices."""
    seen = set() if seen is None else seen
    if id(obj) in seen or obj is None or isinstance(obj, (int, float, str, bool)):
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        base = obj.base if isinstance(obj.base, np.ndarray) else None
        return obj.nbytes if base is None else _reachable_array_bytes(base, seen)
    if isinstance(obj, dict):
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = [getattr(obj, slot, None) for slot in getattr(obj, "__slots__", ())]
        children += list(getattr(obj, "__dict__", {}).values())
    return sum(_reachable_array_bytes(child, seen) for child in children)


def _reset_wiring(batch):
    batch.engines[0].reset_wiring([3])


def _leave(batch):
    batch.engines[0].request_leave([5])


def _leave_then_rejoin(batch):
    batch.engines[0].request_leave([5])
    batch.step_epoch()
    batch.engines[0].request_join([5])


def _link_down(batch):
    (engine,) = batch.engines
    neighbor = min(engine.wiring.weights_of(0))
    engine.inject_failure(
        FailureEvent(epoch=engine.clock.epoch, action="link-down", links=((0, neighbor),))
    )


def _ping_drift(batch):
    # One epoch measured by noisy pings, then back to the oracle.
    batch.engines[0].provider.estimator = "ping"
    batch.step_epoch()
    batch.engines[0].provider.estimator = "true"


class TestSettledNodes:
    """A node that stayed put under a token and meets the same token again
    stays put again: the batch keeps that verdict (a stamp per node), not
    the residual matrix it was computed from, and a maintained engine
    streams each residual into its step instead of caching it."""

    @staticmethod
    def _specs(n, k_values, *, seed=21):
        return _delay_specs(
            n,
            seed,
            estimator="true",
            policies={"best-response": BestResponsePolicy()},
            k_values=k_values,
            epsilon=0.1,
        )

    @classmethod
    def _converged_pair(cls, n, k_values):
        """A lockstep and a sequential batch, both stepped to the first
        epoch in which no engine re-wires."""
        batched = EngineBatch(cls._specs(n, k_values), batched=True)
        sequential = EngineBatch(cls._specs(n, k_values), batched=False)
        for _ in range(20):
            records = batched.step_epoch()
            sequential.step_epoch()
            if all(record.rewirings == 0 for record in records):
                return batched, sequential
        raise AssertionError("best-response dynamics did not converge")

    @staticmethod
    def _epoch_counting(batch, monkeypatch):
        """Step one epoch; returns (kernel calls, telemetry counters)."""
        calls = [0]
        original = engine_batch_module.fused_best_response

        def spy(members, **kwargs):
            calls[0] += 1
            return original(members, **kwargs)

        monkeypatch.setattr(engine_batch_module, "fused_best_response", spy)
        registry = telemetry.enable()
        try:
            batch.step_epoch()
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        return calls[0], counters

    @pytest.mark.parametrize(
        "n, k_values",
        [(72, (4,)), (24, (2, 3))],
        ids=["maintained-n72", "stacked-n24-width2"],
    )
    def test_a_converged_epoch_runs_no_kernel(self, n, k_values, monkeypatch):
        batched, sequential = self._converged_pair(n, k_values)
        calls, counters = self._epoch_counting(batched, monkeypatch)
        sequential.step_epoch()
        assert counters.get("batch.steps.skipped", 0) == n * len(k_values)
        assert counters.get("batch.steps.fused", 0) == 0
        assert counters.get("batch.steps.sequential", 0) == 0
        assert calls == 0
        assert counters.get("kernel.shortest.repair.calls", 0) == 0
        assert counters.get("batch.prefill.derived", 0) == 0
        assert_histories_identical(
            [engine.history for engine in batched.engines],
            [engine.history for engine in sequential.engines],
        )

    @pytest.mark.parametrize(
        "mutate",
        [_reset_wiring, _leave, _leave_then_rejoin, _link_down, _ping_drift],
        ids=["reset-wiring", "leave", "leave-then-rejoin", "link-down", "ping-drift"],
    )
    def test_a_change_unsettles_the_stamps(self, mutate, monkeypatch):
        """Every way the inputs of a best response can move between two
        opportunities moves the token, so the kernel runs again."""
        batched, sequential = self._converged_pair(72, (4,))
        mutate(batched)
        mutate(sequential)
        calls, counters = self._epoch_counting(batched, monkeypatch)
        sequential.step_epoch()
        assert calls > 0
        assert counters.get("batch.steps.fused", 0) == calls
        batched.run(2)
        sequential.run(2)
        assert_histories_identical(
            [engine.history for engine in batched.engines],
            [engine.history for engine in sequential.engines],
        )

    def test_a_maintained_engine_holds_one_residual_not_n(self):
        n = 96
        batch = EngineBatch(self._specs(n, (4,)), batched=True)
        batch.run(2)
        (state,) = batch._states
        (engine,) = batch.engines
        assert state.maintained and len(engine.route_cache) == 0
        held = _reachable_array_bytes(
            [
                getattr(state, slot)
                for slot in type(state).__slots__
                if slot not in ("engine", "plan")
            ]
            + [engine.route_cache._store]
        )
        # apsp + dense + repair tables + one residual + the hop index
        # rows, each about n^2 floats; a cached residual per node alone
        # would be n * n^2.
        assert n * n * 8 < held <= 12 * n * n * 8

    def test_a_restored_batch_re_derives_its_stamps(self):
        batched, sequential = self._converged_pair(72, (4,))
        assert batched._states[0].settled
        restored = pickle.loads(pickle.dumps(batched))
        assert restored._states is None
        registry = telemetry.enable()
        try:
            restored.run(3)
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        sequential.run(3)
        # The first epoch back re-derives every verdict through the
        # kernel (nobody re-wires) and stamps it; the next two skip.
        assert counters["batch.steps.fused"] == 72
        assert counters["batch.steps.skipped"] == 2 * 72
        assert len(restored._states[0].settled) == 72
        assert_histories_identical(
            [engine.history for engine in restored.engines],
            [engine.history for engine in sequential.engines],
        )


class TestChurnedGroupBudget:
    """The Fig. 2 path as an exact count budget: 12 churned engines (BR
    and BR(0.1) over k = 3..8, one trace-driven schedule, efficiency
    scoring) run as one maintained group.  Every count below is a
    property of the planner, not of the machine."""

    N = 24
    K_VALUES = (3, 4, 5, 6, 7, 8)
    EPOCHS = 10
    SEED = 2008

    def _specs(self):
        rng = as_generator(self.SEED)
        space, _nodes = synthetic_planetlab(self.N, seed=rng)
        churn = trace_driven_churn(
            self.N, self.EPOCHS * 60.0, mean_on=1500.0, mean_off=300.0, seed=rng
        )
        cells = [(k, eps) for eps in (0.0, 0.1) for k in self.K_VALUES]
        return [
            EngineSpec(
                label=f"br(eps={eps:g})@k={k}",
                provider=DelayMetricProvider(space, estimator="true", seed=stream),
                policy=BestResponsePolicy(epsilon=eps),
                k=k,
                churn=churn,
                epsilon=eps,
                compute_efficiency=True,
                seed=stream,
            )
            for (k, eps), stream in zip(cells, spawn_generators(rng, len(cells)))
        ]

    def test_two_repairs_per_round_and_no_stray_sweep(self, monkeypatch):
        rounds = _count_calls(monkeypatch, "_prefill")
        built = _count_table_builds(monkeypatch)
        callers = []
        original = engine_batch_module.batched_route_matrices

        def sweep_spy(stack, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(stack, *args, **kwargs)

        monkeypatch.setattr(engine_batch_module, "batched_route_matrices", sweep_spy)
        batch = EngineBatch(self._specs(), batched=True)
        registry = telemetry.enable()
        try:
            batch.run(self.EPOCHS)
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        records = [r for engine in batch.engines for r in engine.history.records]
        assert history_digest(records) == history_digest(
            r
            for history in EngineBatch(self._specs(), batched=False).run(self.EPOCHS)
            for r in history.records
        )
        # The maintained group: at most one matrix update and one residual
        # derivation per lockstep round, whatever the group's width.
        assert counters["kernel.shortest.repair.calls"] <= 2 * rounds[0]
        # At most one repair-table build per engine per epoch: the group's
        # tables are patched, never rebuilt, while an epoch runs.
        assert len(built) <= self.EPOCHS
        assert sum(built) <= self.EPOCHS * len(batch.engines)
        # Dijkstra sweeps only score epochs and build the group's matrices.
        assert set(callers) == {"_finish_epochs", "_derive_residuals"}
        assert callers.count("_finish_epochs") == self.EPOCHS
        swept = counters["batch.prefill.swept"]
        assert counters["kernel.batched_route_matrices.dijkstra.rows"] == self.N * (
            self.EPOCHS * len(batch.engines) + swept
        )
        # Every opportunity is fused or skipped as settled.
        opportunities = sum(r.active_nodes for r in records)
        assert counters.get("batch.steps.sequential", 0) == 0
        assert counters["batch.steps.fused"] + counters.get("batch.steps.skipped", 0) == (
            opportunities
        )

    def test_a_pickled_group_restores_and_continues_identically(self):
        batch = EngineBatch(self._specs(), batched=True)
        batch.run(3)
        assert all(st.maintained for st in batch._states)
        data = pickle.dumps(batch)
        # Checkpoints store no lockstep state: restore re-derives it.
        assert b"_LockstepState" not in data and b"ShortestRepairTables" not in data
        restored = pickle.loads(data)
        assert restored._states is None and restored._tables is None
        restored.run(3)
        uninterrupted = EngineBatch(self._specs(), batched=True).run(6)
        assert history_digest(
            r for engine in restored.engines for r in engine.history.records
        ) == history_digest(r for history in uninterrupted for r in history.records)


class TestEpochSweepBudget:
    """The Fig. 3 BR vs BR(0.1) drift sweep (14 engines, n = 20, k = 2..8,
    10 epochs, drift 0.01, seed 2008) through the Scenario API, as exact
    counts pinned at seed 2008.  The group's 280 active nodes put it on
    the maintained planner, and the ping estimates move every epoch, so
    each opportunity repairs its engine's matrix once."""

    OPPORTUNITIES = 2 * 7 * 20 * 10
    ROUNDS = 20 * 10

    @staticmethod
    def _sweep(batched):
        registry = telemetry.enable()
        try:
            result = run_spec(
                default_spec("fig3-epsilon").override(
                    n=20,
                    k_grid=(2, 3, 4, 5, 6, 7, 8),
                    epochs=10,
                    drift_relative_std=0.01,
                    seed=2008,
                ),
                batched=batched,
            )
            counters = registry.snapshot()["counters"]
        finally:
            telemetry.disable()
        document = result.as_dict()
        strip_diagnostics(document)
        return document, counters

    def test_counts_pinned_at_seed_2008(self, monkeypatch):
        rounds = _count_calls(monkeypatch, "_prefill")
        batched, counters = self._sweep(batched=True)
        sequential, sequential_counters = self._sweep(batched=False)
        assert batched == sequential
        # Every opportunity is one fused step.
        assert counters["batch.steps.fused"] == self.OPPORTUNITIES
        assert counters.get("batch.steps.sequential", 0) == 0
        assert counters.get("batch.steps.skipped", 0) == 0
        # 10 scorings + 1 build of 14 x 20 rows, the full-mesh reference,
        # and one changed row per matrix update: about a tenth of the
        # sequential tier's one n-source sweep per opportunity.
        assert {
            name: counters.get(f"kernel.{name}.rows", 0) for name in DIJKSTRA_KERNELS
        } == {
            "batched_route_matrices.dijkstra": 3_080,
            "shortest.multi": 20,
            "shortest.repair.sweep": 2_786,
        }
        assert _dijkstra_rows(sequential_counters) == 56_020
        # At most one matrix update and one derivation per lockstep round.
        assert rounds[0] == self.ROUNDS
        assert counters["kernel.shortest.repair.calls"] == 399
