"""The zero-cost-when-off gate: disabled telemetry stays under 2% of an epoch.

The instrumented hot paths (engine epochs, batch kernels, routing
kernels, caches) call the :mod:`repro.telemetry.runtime` helpers
unconditionally; when telemetry is off each helper is one global read
plus a ``None`` check.  This test makes the "(nearly) free" claim a
number instead of a promise:

1. time one full scenario run with telemetry disabled (the baseline);
2. count how many times each disabled helper actually fires during an
   identical run (wrapping the module attributes — call sites resolve
   them at call time);
3. microbenchmark each disabled helper's unit cost;
4. assert ``sum(calls * unit_cost) < 2%`` of the baseline wall-clock.

The product of measured call counts and measured unit costs bounds the
instrumentation's contribution without trying to resolve a sub-1%
difference between two noisy end-to-end timings.  It runs on both
planners: one n=50 engine stays on the stacked residual sweep, one
n=72 engine crosses the maintained planner's floor
(``_MAINTAIN_MIN_ACTIVE = 64``), whose prefill counters and stacked
repair kernel fire only there.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Set, Tuple

import pytest

from repro.scenario.session import run_spec
from repro.scenario.spec import ScenarioSpec
from repro.telemetry import runtime as telemetry

#: Maximum tolerated disabled-telemetry overhead (fraction of wall-clock).
OVERHEAD_BUDGET = 0.02

#: Per-helper microbenchmark bodies, with representative arguments.
_UNIT_BODIES: Dict[str, Callable[[], None]] = {
    "span": lambda: telemetry.span("epoch.steps", epoch=3).__enter__(),
    "count": lambda: telemetry.count("engine.steps"),
    "observe": lambda: telemetry.observe("serve.request.lookup", 0.001),
    "kernel_call": lambda: telemetry.kernel_call("shortest.multi", 16),
    "event": lambda: telemetry.event("mark", key="k"),
    "record_span": lambda: telemetry.record_span("cell", 0.01, key="k"),
    "register_cache": lambda: telemetry.register_cache(None),
}

#: Hooks only the maintained planner reaches: its matrix builds, residual
#: derivations and the stacked repair kernel.
_MAINTAINED_HOOKS = {
    ("count", "batch.prefill.swept"),
    ("count", "batch.prefill.derived"),
    ("kernel_call", "shortest.repair"),
}


def _spec(n: int) -> ScenarioSpec:
    return ScenarioSpec(
        experiment="live-overlay",
        n=n,
        k_grid=(4,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=5,
        seed=2008,
    )


def _count_helper_calls(
    spec: ScenarioSpec,
) -> Tuple[Dict[str, int], Set[Tuple[str, str]]]:
    """How often each runtime helper fires during one (disabled) run, and
    the ``(helper, name)`` pairs it fired with."""
    calls = {name: 0 for name in _UNIT_BODIES}
    fired: Set[Tuple[str, str]] = set()
    originals = {name: getattr(telemetry, name) for name in _UNIT_BODIES}

    def counting(name: str, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if args and isinstance(args[0], str):
                fired.add((name, args[0]))
            return real(*args, **kwargs)

        return wrapper

    try:
        for name, real in originals.items():
            setattr(telemetry, name, counting(name, real))
        run_spec(spec)
    finally:
        for name, real in originals.items():
            setattr(telemetry, name, real)
    return calls, fired


def _unit_cost(body: Callable[[], None], iterations: int = 50_000) -> float:
    """Seconds per call of one disabled helper (spin-measured)."""
    body()  # warm: interning, bytecode specialisation
    start = time.perf_counter()
    for _ in range(iterations):
        body()
    return (time.perf_counter() - start) / iterations


@pytest.mark.parametrize(
    "n, maintained", [(50, False), (72, True)], ids=["stacked-n50", "maintained-n72"]
)
def test_disabled_telemetry_overhead_under_budget(n, maintained):
    assert not telemetry.enabled()
    spec = _spec(n)

    start = time.perf_counter()
    run_spec(spec)
    baseline = time.perf_counter() - start

    calls, fired = _count_helper_calls(spec)
    costs = {name: _unit_cost(body) for name, body in _UNIT_BODIES.items()}
    overhead = sum(calls[name] * costs[name] for name in calls)
    fraction = overhead / baseline

    assert sum(calls.values()) > 0, "instrumentation hooks never fired"
    assert (_MAINTAINED_HOOKS <= fired) is maintained
    assert fraction < OVERHEAD_BUDGET, (
        f"disabled telemetry costs {fraction:.3%} of an epoch run "
        f"({overhead * 1e3:.3f} ms of {baseline:.4f} s), "
        f"over the {OVERHEAD_BUDGET:.0%} budget"
    )
