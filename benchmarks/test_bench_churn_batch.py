"""Benchmark: the Fig. 2 dynamic-membership path through the fused batch.

The acceptance gate for the churn tentpole: a Fig. 2-style churned
12-engine epoch sweep — BR and BR(ε=0.1) across the k grid, all sharing
one trace-driven churn schedule (mean ON 1500 s / mean OFF 300 s, the
paper's PlanetLab-like regime) over one delay substrate, with the
efficiency metric on — run through
:class:`~repro.core.engine_batch.EngineBatch` in lockstep against the
sequential engines behind ``batched=False``.

What the fused path exercises here, unlike the static engine-batch gate
(``test_bench_engine_batch.py``):

* membership is partial and different almost every epoch, so the fused
  re-wiring broadcasts run on *masked* (padded-to-group-width) via
  tensors with per-engine compact reductions;
* join/leave events re-derive each engine's active mask between epochs
  (the lockstep states persist across the whole run);
* the residual route caches stay warm through the speculative stacked
  prefills (a stale entry is recomputed by the next one, never patched),
  where the sequential engines miss on every single opportunity (their
  token — wiring version, metric fingerprint, membership — changes
  under them every epoch).

Three hard gates:

* **>= 2x wall clock** (measures ~2.2-2.5x on an idle machine; timed as
  best-of-two interleaved rounds per path so load drift hits both sides
  equally and a single spike cannot decide the gate);
* **byte-identical EpochRecord digests** between the two paths — the
  fused masked broadcasts and every prefilled matrix must not change a
  single decision (digests cover every record field at full float
  precision via ``float.hex``);
* **cache hit-rate > 50 %** under churn (assert via
  :meth:`ResidualRouteCache.stats` aggregated over the batch), against
  ~0 % for the sequential engines.
"""

from __future__ import annotations

import time

from repro.core.codec import history_digest
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.policies import BestResponsePolicy
from repro.core.providers import DelayMetricProvider
from repro.churn.models import trace_driven_churn
from repro.netsim.planetlab import synthetic_planetlab
from repro.telemetry.diagnostics import pooled_cache_stats
from repro.util.rng import as_generator, spawn_generators

N = 24
K_VALUES = (3, 4, 5, 6, 7, 8)
EPOCHS = 10
SEED = 2008
MEAN_ON = 1500.0
MEAN_OFF = 300.0
REQUIRED_SPEEDUP = 2.0
REQUIRED_HIT_RATE = 0.5


def _build_specs():
    """12 churned deployments: BR and BR(0.1) across the Fig. 2 k grid."""
    rng = as_generator(SEED)
    space, _nodes = synthetic_planetlab(N, seed=rng)
    churn = trace_driven_churn(
        N, EPOCHS * 60.0, mean_on=MEAN_ON, mean_off=MEAN_OFF, seed=rng
    )
    cells = [(k, eps) for eps in (0.0, 0.1) for k in K_VALUES]
    streams = spawn_generators(rng, len(cells))
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
        for (k, eps), stream in zip(cells, streams)
    ]


def _run(batched: bool) -> EngineBatch:
    batch = EngineBatch(_build_specs(), batched=batched)
    batch.run(EPOCHS)
    return batch


def _record_digest(batch: EngineBatch) -> str:
    """Hex digest over every EpochRecord field at full float precision.

    Delegates to the canonical codec digest (the one the serve layer's
    replay parity uses), so "byte-identical" means the same thing in
    every gate of the repo.
    """
    return history_digest(
        record for engine in batch.engines for record in engine.history.records
    )


def _warmup() -> None:
    """Prime NumPy/SciPy dispatch so neither timed path pays first-call
    costs (the benchmark compares steady-state throughput)."""
    for batched in (True, False):
        rng = as_generator(1)
        space, _nodes = synthetic_planetlab(12, seed=rng)
        churn = trace_driven_churn(12, 120.0, mean_on=300.0, mean_off=60.0, seed=rng)
        streams = spawn_generators(rng, 2)
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
            for i, stream in enumerate(streams)
        ]
        EngineBatch(specs, batched=batched).run(2)


def test_churned_engine_batch_speedup(benchmark, report):
    _warmup()
    # Best of three *interleaved* rounds per path (the PR-3 timing
    # scheme, one round deeper): sustained machine load drifts both
    # sides equally and the min absorbs one-off spikes — churn epochs
    # are shorter than the static engine-batch gate's, so an extra
    # round is cheap insurance against a single loaded window.
    sequential_seconds = float("inf")
    batched_seconds = float("inf")
    sequential_batch = batched_batch = None
    for _round in range(3):
        start = time.perf_counter()
        sequential_batch = _run(batched=False)
        sequential_seconds = min(sequential_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        batched_batch = _run(batched=True)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    benchmark.pedantic(_run, kwargs={"batched": True}, rounds=1, iterations=1)

    # Byte-identical epoch records: the masked fused broadcasts and the
    # speculative prefills must not change a single decision.
    sequential_digest = _record_digest(sequential_batch)
    batched_digest = _record_digest(batched_batch)
    assert batched_digest == sequential_digest, (
        "churned engine batch: EpochRecord digests diverged "
        f"({batched_digest} != {sequential_digest})"
    )

    # The dynamic-membership cache story: sequential engines cannot reuse
    # anything across churned epochs; the lockstep prefills keep the
    # caches serving most lookups (repairs reads 0: nothing is patched).
    sequential_stats, batched_stats = (
        pooled_cache_stats(engine.route_cache for engine in batch.engines)
        for batch in (sequential_batch, batched_batch)
    )
    print(
        f"\n=== churned epoch sweep (n={N}, {2 * len(K_VALUES)} deployments, "
        f"{EPOCHS} epochs): sequential {sequential_seconds:.2f}s / "
        f"batched {batched_seconds:.2f}s = "
        f"{sequential_seconds / batched_seconds:.2f}x | cache hit-rate "
        f"{sequential_stats['hit_rate']:.3f} -> {batched_stats['hit_rate']:.3f} "
        f"(repairs={batched_stats['repairs']:.0f}) ==="
    )
    assert sequential_stats["hit_rate"] < 0.05, (
        "sequential churn baseline unexpectedly reuses the route cache; "
        "the scenario no longer represents the dynamic-membership gap"
    )
    assert batched_stats["hit_rate"] > REQUIRED_HIT_RATE, (
        f"churned cache hit-rate only {batched_stats['hit_rate']:.3f} "
        f"(required > {REQUIRED_HIT_RATE})"
    )

    speedup = sequential_seconds / batched_seconds
    assert speedup >= REQUIRED_SPEEDUP, (
        f"churned lockstep sweep only {speedup:.2f}x faster "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )
