"""Benchmark: batched vs sequential full four-panel Fig. 1 sweep (n = 50).

The acceptance gate for the multi-deployment sweep kernels: the complete
four-panel Fig. 1 sweep — 140 deployments across the (policy, k, metric)
grid, built by lockstep best-response dynamics and scored through the
3-D route-value tensor — against the sequential reference
(``batched=False``: one ``build_overlay`` and one ``all_node_costs`` per
deployment), with **byte-identical** series on both paths.

What stacking buys is gated as exact kernel-call counts read from the
telemetry registry, which are deterministic for a seed and cannot flake
on a loaded box (the form ``test_maintained_matrix_dijkstra_row_budget``
uses):

* the batched four-panel sweep's stacked Dijkstra calls stay within the
  budget pinned at seed 2008, and far below the one-sweep-per-opportunity
  ``shortest.multi`` calls the sequential side pays;
* the bandwidth panel closes every residual graph of an overlay version
  in one avoid-one pass, so it stays at one ``widest.avoid_one`` call.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments import (
    fig1_bandwidth,
    fig1_delay_ping,
    fig1_delay_pyxida,
    fig1_node_load,
)
from repro.telemetry import runtime as telemetry

N = 50
K_VALUES = (2, 3, 4, 5, 6, 7, 8)
SEED = 2008
BR_ROUNDS = 3
#: ``kernel.batched_route_matrices.dijkstra.calls`` of the batched sweep.
DIJKSTRA_CALL_BUDGET = 453
#: ``kernel.widest.avoid_one.calls``; only the bandwidth panel reaches
#: the widest-path kernels, so the four-panel total is that panel's.
AVOID_ONE_CALL_BUDGET = 1
#: The sequential side's ``kernel.shortest.multi.calls`` (3241 here) must
#: exceed the batched Dijkstra calls by at least this factor.
REQUIRED_CALL_RATIO = 5


def _four_panel(batched: bool):
    kwargs = dict(
        n=N, k_values=K_VALUES, seed=SEED, br_rounds=BR_ROUNDS, batched=batched
    )
    return (
        fig1_delay_ping(include_full_mesh=True, **kwargs),
        fig1_delay_pyxida(**kwargs),
        fig1_node_load(**kwargs),
        fig1_bandwidth(**kwargs),
    )


def _counted(func, *args, **kwargs):
    """Run ``func`` with telemetry on; return its result and counters."""
    registry = telemetry.enable()
    try:
        result = func(*args, **kwargs)
        return result, registry.snapshot()["counters"]
    finally:
        telemetry.disable()


def test_four_panel_sweep_batched_call_budget(benchmark):
    scalar_results, scalar_counters = _counted(_four_panel, batched=False)
    batched_results, batched_counters = _counted(
        run_once, benchmark, _four_panel, batched=True
    )

    # Byte-identical figure series on both paths — the hard gate.
    for batched_result, scalar_result in zip(batched_results, scalar_results):
        assert batched_result.as_dict() == scalar_result.as_dict(), (
            f"{batched_result.figure}: batched and sequential series diverged"
        )

    dijkstra_calls = batched_counters["kernel.batched_route_matrices.dijkstra.calls"]
    avoid_one_calls = batched_counters["kernel.widest.avoid_one.calls"]
    sequential_calls = scalar_counters["kernel.shortest.multi.calls"]
    print(
        f"\n=== four-panel sweep (n={N}, k={K_VALUES[0]}..{K_VALUES[-1]}): "
        f"batched {dijkstra_calls} stacked Dijkstra calls (budget "
        f"{DIJKSTRA_CALL_BUDGET}) + {avoid_one_calls} avoid-one calls (budget "
        f"{AVOID_ONE_CALL_BUDGET}) vs sequential {sequential_calls} "
        f"shortest.multi calls ==="
    )
    assert 0 < dijkstra_calls <= DIJKSTRA_CALL_BUDGET
    assert 0 < avoid_one_calls <= AVOID_ONE_CALL_BUDGET
    assert sequential_calls >= REQUIRED_CALL_RATIO * dijkstra_calls
