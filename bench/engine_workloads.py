"""The two epoch-engine workloads: ``static_n200`` and ``churn_n50x12``.

Both drive :class:`repro.core.engine_batch.EngineBatch` through its
public ``run``/``step_epoch`` and differ in what does the work:

* ``static_n200`` — one best-response engine on a structureless
  uniform-random delay matrix, no churn.  Lockstep width is 1, so the
  time goes to the routing kernels (block Dijkstra prefills) and the
  fused best-response step; nothing is shared across engines.
* ``churn_n50x12`` — the Fig. 2 path: 12 engines (BR and BR(0.1) over
  k = 3..8) sharing one trace-driven churn schedule with efficiency
  scoring on.  Membership changes almost every epoch, so masked fused
  steps, cache repair/restamp and lockstep width 12 do the work.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from bench import harness, probes
from repro.churn.models import trace_driven_churn
from repro.core.codec import history_digest
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.policies import BestResponsePolicy
from repro.core.providers import DelayMetricProvider
from repro.netsim.planetlab import synthetic_planetlab, uniform_delay_space
from repro.telemetry.diagnostics import pooled_cache_stats
from repro.util.rng import as_generator, spawn_generators


def _warm_kernels() -> None:
    """Prime NumPy/SciPy dispatch and the lockstep code paths (set-up)."""
    rng = as_generator(1)
    space, _nodes = synthetic_planetlab(12, seed=rng)
    churn = trace_driven_churn(12, 120.0, mean_on=300.0, mean_off=60.0, seed=rng)
    specs = [
        EngineSpec(
            label=f"warm-{i}",
            provider=DelayMetricProvider(space, estimator="true", seed=stream),
            policy=BestResponsePolicy(),
            k=2,
            churn=churn,
            compute_efficiency=True,
            seed=stream,
        )
        for i, stream in enumerate(spawn_generators(rng, 2))
    ]
    EngineBatch(specs, batched=True).run(2)


def _degree_violations(batch: EngineBatch) -> int:
    """Nodes whose out-degree exceeds their engine's budget ``k``."""
    return sum(
        1
        for engine in batch.engines
        for node in range(batch.n)
        if engine.wiring.degree_of(node) > engine.k
    )


def _span_layers(traced: harness.Traced, requests: int) -> Dict[str, float]:
    """Span self-times of the traced run, seconds per request."""
    self_s = traced.self_seconds()
    per = 1.0 / max(1, requests)
    return {
        "engine_batch.prefill_s": self_s.get("batch.prefill", 0.0) * per,
        "engine_batch.steps_s": self_s.get("batch.steps", 0.0) * per,
        "engine_batch.begin_s": self_s.get("batch.begin", 0.0) * per,
        "engine_batch.finish_s": self_s.get("batch.finish", 0.0) * per,
        "engine.epoch_begin_s": self_s.get("epoch.begin", 0.0) * per,
        "engine.epoch_finish_s": self_s.get("epoch.finish", 0.0) * per,
        # What the request spent outside every named span: the lockstep
        # driver itself (grouping, cache lookups, wave bookkeeping).
        "engine_batch.other_s": self_s.get("bench.request", 0.0) * per,
    }


class _EngineWorkload:
    """Shared run protocol; subclasses supply batches and requests."""

    #: Requests making up the deterministic prefix (digest + counts).
    prefix = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = int(seed)
        self.smoke = bool(smoke)
        #: Batches whose records feed the digest and the degree check.
        self.prefix_batches: List[EngineBatch] = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Off-the-clock work ahead of request ``index``."""

    def request(self, index: int) -> int:
        """Advance the engines; returns the re-wiring opportunities served
        (one per active node per engine-epoch — the unit of work)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def run(self, seconds: float, trace: bool) -> harness.Outcome:
        setup_s = harness.median_setup_s(self._full_setup, self.smoke)
        traced = harness.Traced(trace)
        try:
            frozen: Dict[str, object] = {}

            def at_prefix() -> None:
                traced.mark_counters()
                frozen["cache"] = pooled_cache_stats(
                    engine.route_cache
                    for batch in self.prefix_batches
                    for engine in batch.engines
                )
                frozen["records"] = [
                    record
                    for batch in self.prefix_batches
                    for engine in batch.engines
                    for record in engine.history.records
                ]

            window = harness.drive(
                self.request,
                seconds=seconds,
                prefix=self.prefix,
                prepare=self.prepare,
                at_prefix=at_prefix,
            )
            records = frozen["records"]
            checked = sum(batch.n * len(batch.engines) for batch in self.prefix_batches)
            failed = sum(_degree_violations(batch) for batch in self.prefix_batches)
            layers: Dict[str, float] = {}
            if trace:
                layers.update(_span_layers(traced, window.requests_run))
                layers.update(
                    harness.count_layers(
                        traced.counters(),
                        frozen["cache"],
                        sum(record.rewirings for record in records),
                    )
                )
                traced.close()  # probes run untraced
                layers.update(probes.engine_layers(self.prefix_batches[-1], records))
        finally:
            traced.close()
        return harness.Outcome(
            window=window,
            setup_s=setup_s,
            checked=checked,
            failed_checks=failed,
            digest=history_digest(records),
            layers=layers,
        )

    def _full_setup(self) -> None:
        self.prefix_batches = []
        if not self.smoke:
            harness.import_in_fresh_interpreter("repro.core.engine_batch")
        _warm_kernels()
        self.setup()


class StaticN200(_EngineWorkload):
    """One BR engine, n=200, k=8, uniform-random delays, no churn.

    A request is one ``EngineBatch([spec]).run(EPOCHS)`` from a fresh
    random seed wiring over a fresh delay matrix (built off the clock),
    so every request does the same kind of work and the median over
    requests is meaningful.
    """

    name = "static_n200"
    prefix = 1

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.n, self.k, self.epochs = (16, 3, 2) if smoke else (200, 8, 2)
        self._next: Optional[EngineBatch] = None

    def _batch(self, index: int) -> EngineBatch:
        rng = as_generator(np.random.SeedSequence([self.seed, index]))
        space = uniform_delay_space(self.n, seed=rng)
        (stream,) = spawn_generators(rng, 1)
        spec = EngineSpec(
            label="br",
            provider=DelayMetricProvider(space, estimator="true", seed=stream),
            policy=BestResponsePolicy(),
            k=self.k,
            seed=stream,
        )
        return EngineBatch([spec], batched=True)

    def setup(self) -> None:
        self._next = self._batch(0)

    def prepare(self, index: int) -> None:
        if index > 0:
            self._next = self._batch(index)
        if index < self.prefix:
            self.prefix_batches.append(self._next)

    def request(self, index: int) -> int:
        (history,) = self._next.run(self.epochs)
        return sum(record.active_nodes for record in history.records)


class ChurnN50x12(_EngineWorkload):
    """12 engines (BR, BR(0.1)) x k=3..8, n=50, trace-driven churn.

    One long run: a request is one lockstep ``step_epoch`` (12
    engine-epochs).  Set-up commits two epochs first, so the window
    measures churned steady state rather than the first convergence
    from the random seed wiring.
    """

    name = "churn_n50x12"
    MEAN_ON = 1500.0
    MEAN_OFF = 300.0
    WARMUP_EPOCHS = 2
    #: Epochs of churn schedule generated (far more than a window runs).
    HORIZON_EPOCHS = 2000

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.n = 16 if smoke else 50
        self.k_values = (2, 3) if smoke else (3, 4, 5, 6, 7, 8)
        self.prefix = 2 if smoke else 20
        self.batch: Optional[EngineBatch] = None

    def setup(self) -> None:
        rng = as_generator(self.seed)
        space, _nodes = synthetic_planetlab(self.n, seed=rng)
        churn = trace_driven_churn(
            self.n,
            self.HORIZON_EPOCHS * 60.0,
            mean_on=self.MEAN_ON,
            mean_off=self.MEAN_OFF,
            seed=rng,
        )
        cells = [(k, eps) for eps in (0.0, 0.1) for k in self.k_values]
        specs = [
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
        self.batch = EngineBatch(specs, batched=True)
        self.batch.run(self.WARMUP_EPOCHS)
        self.prefix_batches = [self.batch]

    def request(self, index: int) -> int:
        return sum(record.active_nodes for record in self.batch.step_epoch())


WORKLOADS = {cls.name: cls for cls in (StaticN200, ChurnN50x12)}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> harness.Outcome:
    return WORKLOADS[name](seed, smoke).run(seconds, trace)
