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

import numpy as np
import pytest

from repro import telemetry
from repro.churn.models import parametrized_churn, trace_driven_churn
from repro.core.cheating import CheatingModel
from repro.core.codec import history_digest
from repro.core.cost import DelayMetric
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
)
from repro.netsim.bandwidth import BandwidthModel
from repro.netsim.delayspace import DelaySpace
from repro.netsim.load import NodeLoadModel
from repro.telemetry.diagnostics import pooled_cache_stats
from repro.util.rng import spawn_generators
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

    def test_disabled_route_cache_still_runs(self):
        specs = _delay_specs(
            12, 3, policies={"best-response": BestResponsePolicy()}, k_values=(2,)
        )
        for spec in specs:
            spec.route_cache_size = 0
        histories = EngineBatch(specs, batched=True).run(2)
        assert len(histories[0].records) == 2


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

    def test_partial_membership_is_fusable(self):
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

        def step_spy(engine, plan):
            nonlocal fallback
            fallback += 1
            return original_step(engine, plan)

        EngineBatch._fused_engine_steps = spy
        EgoistEngine.step_node = step_spy
        try:
            batch.run(4)
        finally:
            EngineBatch._fused_engine_steps = original
            EgoistEngine.step_node = original_step
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

    def test_churned_cache_outperforms_sequential(self):
        """The dynamic-membership cache story in miniature: the batch
        serves most lookups from the cache while the sequential engines
        miss on effectively all of them."""
        batched_batch = self._churned_batch(batched=True)
        batched_batch.run(4)
        sequential_batch = self._churned_batch(batched=False)
        sequential_batch.run(4)
        batched_stats, sequential_stats = (
            pooled_cache_stats(engine.route_cache for engine in batch.engines)
            for batch in (batched_batch, sequential_batch)
        )
        assert batched_stats["hit_rate"] > 0.4
        assert sequential_stats["hit_rate"] < 0.2

    def test_stale_residuals_are_recomputed_never_patched(self):
        """Below the maintained floor a cached residual is valid under
        its token or the stacked sweep recomputes it: no repair kernel
        runs, no repair ledger exists, and the recompute path's Dijkstra
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
        assert counters["kernel.batched_route_matrices.dijkstra.rows"] == 3276

    def test_a_rewire_drops_every_pending_speculative_entry(self, monkeypatch):
        """A re-wire bumps the wiring version by one — exactly the bump
        the speculative chain predicted for that node's in-place weight
        refresh — so every pending entry's predicted token now equals
        the live one while its matrix describes a wiring that never
        happened.  None may stay in the cache."""
        original = _LockstepState.after_step
        falsified = []

        def spy(state, node, rewired):
            pending = dict(state.pending)
            pending.pop(node, None)
            original(state, node, rewired)
            if rewired and pending:
                cache = state.engine.route_cache
                assert not state.pending
                live = cache.token
                for other, predicted in pending.items():
                    cache.set_token(predicted)
                    assert cache.get(other, state.hops_of(other)) is None
                cache.set_token(live)
                falsified.append(len(pending))

        monkeypatch.setattr(_LockstepState, "after_step", spy)
        self._churned_batch(batched=True).run(4)
        assert falsified, "no re-wire ever met a pending speculative entry"


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
