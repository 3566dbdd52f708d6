"""Benchmark: lockstep vs sequential multi-deployment epoch sweep.

The acceptance gate for the engine batch: a Fig. 3-style epoch-loop sweep
— 14 engine deployments (BR and BR(ε=0.1) across the k grid) advancing
20 wiring epochs over a drifting ping-measured delay substrate — run
through :class:`~repro.core.engine_batch.EngineBatch` in lockstep
(``batched=True``: residual route-value sweeps stacked into shared
block-diagonal Dijkstra calls with speculative weight-refresh chains,
re-wiring opportunities fused into cross-engine broadcasts) against the
sequential engines preserved verbatim behind ``batched=False``, with
**byte-identical** figure series on both paths.

The speed gate is 2x (it measures ~2.3-2.6x; the drift keeps ~20% of the
opportunities re-wiring, which is what bounds the speculative chains —
quieter scenarios batch better, this one is the honest middle).  Each
path is timed in *process CPU seconds* (``time.process_time``: both
paths are single-threaded and compute-bound, and a neighbour stealing
the core of a shared runner stretches wall clock but not CPU time) as
the best of three interleaved rounds, so neither sustained load drift
nor a single transient spike can tank the ratio.  The
scenario routes through the unified Scenario API
(``fig3_epsilon_comparison`` builds a ``ScenarioSpec`` and runs it via
``SimulationSession``), so the gate also covers the facade's epoch-loop
dispatch.

A second, *count-based* gate covers the maintained all-pairs planner
(overlays from 64 active nodes up): a static n=128 best-response engine
must serve its third epoch with a fixed absolute budget of Dijkstra
kernel rows.  Counts repeat exactly, so the gate holds on noisy runners
where a wall-clock ratio would not.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.policies import BestResponsePolicy
from repro.core.providers import DelayMetricProvider
from repro.experiments import fig3_epsilon_comparison
from repro.netsim.planetlab import uniform_delay_space
from repro.util.rng import as_generator, spawn_generators

N = 20
K_VALUES = (2, 3, 4, 5, 6, 7, 8)
EPOCHS = 20
DRIFT = 0.01
SEED = 2008
REQUIRED_SPEEDUP = 2.0


def _sweep(batched: bool):
    return fig3_epsilon_comparison(
        n=N,
        k_values=K_VALUES,
        epochs=EPOCHS,
        drift_relative_std=DRIFT,
        seed=SEED,
        batched=batched,
    )


def _warmup():
    """Prime NumPy/SciPy dispatch so neither timed path pays first-call
    costs (the benchmark compares steady-state throughput)."""
    for batched in (True, False):
        fig3_epsilon_comparison(
            n=12, k_values=(2,), epochs=2, seed=1, batched=batched
        )


def test_engine_batch_epoch_sweep_speedup(benchmark, report):
    _warmup()
    # The gate compares best-of-three *interleaved* rounds per path, in
    # process CPU time: interleaving means sustained machine load drifts
    # both sides equally, the min absorbs one-off spikes, and CPU time
    # does not count the stretches a shared runner gave the core to
    # someone else.  A final pytest-benchmark round (outside the gate)
    # keeps BENCH_*.json trajectories charting the fast path.
    sequential_seconds = float("inf")
    batched_seconds = float("inf")
    for _round in range(3):
        start = time.process_time()
        sequential_result = _sweep(batched=False)
        sequential_seconds = min(sequential_seconds, time.process_time() - start)
        start = time.process_time()
        batched_result = _sweep(batched=True)
        batched_seconds = min(batched_seconds, time.process_time() - start)
    benchmark.pedantic(_sweep, kwargs={"batched": True}, rounds=1, iterations=1)

    # Byte-identical epoch histories and series on both paths — the hard
    # gate: the lockstep prefills and fused broadcasts must not change a
    # single decision.  The route-cache counters in metadata["cache"]
    # are execution diagnostics and legitimately differ between the two
    # kernel paths (that difference *is* the point of the batch), so
    # they are excluded from the equality.
    batched_dict = batched_result.as_dict()
    sequential_dict = sequential_result.as_dict()
    batched_dict["metadata"].pop("cache", None)
    sequential_dict["metadata"].pop("cache", None)
    assert batched_dict == sequential_dict, (
        "engine batch: batched and sequential series diverged"
    )

    speedup = sequential_seconds / batched_seconds
    print(
        f"\n=== engine epoch sweep (n={N}, {2 * len(K_VALUES)} deployments, "
        f"{EPOCHS} epochs): sequential {sequential_seconds:.2f} cpu-s / "
        f"batched {batched_seconds:.2f} cpu-s = {speedup:.2f}x ==="
    )
    report(batched_result)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"lockstep engine sweep only {speedup:.2f}x faster "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )


STATIC_N = 128
STATIC_K = 6
STATIC_EPOCHS = 3
#: Every kernel that runs Dijkstra rows: the stacked block sweeps (the
#: epoch's scoring, the planner's matrix build), the plain multi-source
#: sweep, and the sweeps inside the repair kernel (changed rows,
#: refusals).
DIJKSTRA_KERNELS = (
    "batched_route_matrices.dijkstra",
    "shortest.multi",
    "shortest.repair.sweep",
)
#: The scoring sweep (n rows) plus one changed row per version bump
#: (at most n) — with room for one full re-sweep after a refusal.  A
#: fresh sweep per opportunity is n * (n - 1) = 16 256 rows.
LAST_EPOCH_ROW_BUDGET = 3 * STATIC_N


def _dijkstra_rows(registry) -> int:
    counters = registry.snapshot()["counters"]
    return int(sum(counters.get(f"kernel.{name}.rows", 0) for name in DIJKSTRA_KERNELS))


def test_maintained_matrix_dijkstra_row_budget():
    rng = as_generator(np.random.SeedSequence([SEED, STATIC_N]))
    space = uniform_delay_space(STATIC_N, seed=rng)
    (stream,) = spawn_generators(rng, 1)
    spec = EngineSpec(
        label="br",
        provider=DelayMetricProvider(space, estimator="true", seed=stream),
        policy=BestResponsePolicy(),
        k=STATIC_K,
        seed=stream,
    )
    batch = EngineBatch([spec], batched=True)
    registry = telemetry.enable()
    try:
        for _ in range(STATIC_EPOCHS - 1):
            batch.step_epoch()
        before = _dijkstra_rows(registry)
        (record,) = batch.step_epoch()
        rows = _dijkstra_rows(registry) - before
    finally:
        telemetry.disable()
    print(
        f"\n=== maintained all-pairs planner (n={STATIC_N}, k={STATIC_K}): "
        f"epoch {STATIC_EPOCHS} ran {rows} Dijkstra rows for "
        f"{record.active_nodes} opportunities ({record.rewirings} re-wirings); "
        f"budget {LAST_EPOCH_ROW_BUDGET}, fresh sweeps "
        f"{STATIC_N * (STATIC_N - 1)} ==="
    )
    assert record.rewirings > 0, "the gate must measure a re-wiring epoch"
    assert rows <= LAST_EPOCH_ROW_BUDGET
