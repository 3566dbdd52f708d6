"""The zero-cost-when-off guard and the results-determinism contract."""

from __future__ import annotations

import gc
import json
import sys

from repro.scenario.session import run_spec
from repro.scenario.spec import ScenarioSpec
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import NULL_SPAN


def _hot_loop(iterations: int) -> None:
    """Every disabled hot-path helper, as an instrumented loop calls them."""
    for _ in range(iterations):
        with telemetry.span("epoch.steps", epoch=3):
            pass
        telemetry.count("engine.steps")
        telemetry.observe("serve.request.lookup", 0.001)
        telemetry.kernel_call("shortest.multi", 16)
        telemetry.event("mark")
        telemetry.record_span("cell", 0.01)


class TestDisabledGuard:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not telemetry.enabled()
        assert telemetry.span("anything", epoch=1) is NULL_SPAN
        assert telemetry.span("other") is NULL_SPAN

    def test_disabled_accessors_are_none(self):
        assert telemetry.metrics() is None
        assert telemetry.tracer() is None
        assert telemetry.summary_line() == "TELEMETRY spans=0 events=0"

    def test_disabled_helpers_allocate_nothing_lasting(self):
        _hot_loop(200)  # warm caches, interned keys, bytecode specialisation
        gc.collect()
        before = sys.getallocatedblocks()
        _hot_loop(500)
        gc.collect()
        after = sys.getallocatedblocks()
        # Nothing telemetry-shaped may survive the loop.  A handful of
        # blocks of interpreter noise is tolerated; 500 iterations of any
        # real per-call retention would show up as hundreds.
        assert abs(after - before) <= 16

    def test_enable_disable_round_trip(self):
        sink = []
        registry = telemetry.enable(trace=sink)
        assert telemetry.enabled()
        assert telemetry.metrics() is registry
        with telemetry.span("s"):
            telemetry.count("c")
        summary = telemetry.disable()
        assert summary == {"spans": 1, "events": 0}
        assert not telemetry.enabled()
        assert sink[-1] == {"kind": "end", "spans": 1, "events": 0}


class TestResultsUnperturbed:
    """Results must be byte-identical with telemetry on and off."""

    def _run(self) -> str:
        spec = ScenarioSpec(
            experiment="live-overlay",
            n=12,
            k_grid=(3,),
            policies=("best-response",),
            metric="delay-ping",
            epochs=3,
            seed=31,
        )
        result = run_spec(spec, batched=True)
        return json.dumps(result.as_dict(), sort_keys=True)

    def test_epoch_records_byte_identical_on_off(self):
        baseline = self._run()
        telemetry.enable(trace=[])
        try:
            with telemetry.span("run"):
                traced = self._run()
        finally:
            telemetry.disable()
        again = self._run()
        assert traced == baseline
        assert again == baseline

    def test_telemetry_key_never_written_to_metadata(self):
        telemetry.enable(trace=[])
        try:
            document = json.loads(self._run())
        finally:
            telemetry.disable()
        assert "telemetry" not in document["metadata"]
