"""Benchmark: the live overlay service under a million-lookup workload.

The acceptance gate for the serve tentpole: a `repro serve` instance on
a unix socket, holding a paper-scale (n = 50) best-response deployment
live, must sustain **>= 10,000 route lookups per second** through the
full protocol stack — traffic-model pair generation, ``lookup_batch``
framing, the asyncio transport, the version-stamped row reads, and the
JSON responses — while a membership mutation commits mid-run.  The
reported p50/p95/p99 per-lookup latencies land in ``BENCH_*.json`` via
``extra_info`` so the latency trajectory is tracked alongside the
throughput trajectory across commits.

The workload is the Section 6.1 multipath traffic model (hot-target
skew, 1-4 parallel lookups per transfer session): the hottest sources
repeat, so the gate also exercises the per-version route table rather
than just the cold sweep path.

Beside that ratio-free socket gate sits an **absolute in-process
budget** for the layer the socket dilutes: a warm 512-pair
``lookup_batch`` frame, as the JSON decoder hands it over (a list of
two-element lists), must cost **<= 0.6 us of service time per lookup**.
The route-table gather measures ~0.2 us; the per-pair loop it replaced
measured ~1.4 us.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from benchmarks.conftest import run_once

from repro.scenario.spec import ScenarioSpec
from repro.serve.client import ServeClient
from repro.serve.load import format_summary, generate_pairs, run_load
from repro.serve.server import start_background_server
from repro.serve.service import OverlayService
from repro.util.rng import as_generator
from repro.util.validation import ValidationError

N = 50
K = 4
WARMUP_EPOCHS = 2
LOOKUPS = 200_000
BATCH = 512
SEED = 2008
REQUIRED_THROUGHPUT = 10_000.0
HOT_FRAME_BUDGET_US = 0.6


def _spec() -> ScenarioSpec:
    return ScenarioSpec(
        experiment="live-overlay",
        n=N,
        k_grid=(K,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=WARMUP_EPOCHS,
        seed=SEED,
    )


def test_serve_lookup_throughput(benchmark):
    # Unix socket paths are length-limited (~104 bytes): mkdtemp in /tmp.
    sock = os.path.join(tempfile.mkdtemp(prefix="bench-serve-", dir="/tmp"), "ovl.sock")
    service = OverlayService(_spec())
    for _ in range(WARMUP_EPOCHS):
        service.tick()
    thread = start_background_server(service, socket_path=sock)
    try:
        report = run_once(
            benchmark,
            run_load,
            socket_path=sock,
            model="multipath",
            lookups=LOOKUPS,
            batch_size=BATCH,
            seed=SEED,
            mutate={"kind": "leave", "nodes": [5]},
        )
    finally:
        try:
            with ServeClient(socket_path=sock, timeout=10) as client:
                client.shutdown()
        except (ValidationError, OSError):
            pass
        thread.join(timeout=30)

    print()
    print(format_summary(report))

    benchmark.extra_info["lookups"] = report.lookups
    benchmark.extra_info["throughput_per_s"] = report.throughput
    benchmark.extra_info["p50_ms"] = report.p50_ms
    benchmark.extra_info["p95_ms"] = report.p95_ms
    benchmark.extra_info["p99_ms"] = report.p99_ms

    assert report.errors == 0
    assert report.lookups == LOOKUPS
    assert report.mutations == 1
    assert report.throughput >= REQUIRED_THROUGHPUT, (
        f"serve throughput {report.throughput:.0f}/s is below the "
        f"{REQUIRED_THROUGHPUT:.0f}/s gate"
    )


def test_hot_frame_service_budget(benchmark):
    service = OverlayService(_spec())
    for _ in range(WARMUP_EPOCHS):
        service.tick()
    pairs = generate_pairs("multipath", N, BATCH, as_generator(SEED))
    frame = json.loads(json.dumps(pairs))
    service.lookup_batch(frame)  # first-call costs stay out of the budget

    def best_frame_seconds(rounds: int = 7, frames: int = 200) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(frames):
                service.lookup_batch(frame)
            best = min(best, (time.perf_counter() - start) / frames)
        return best

    try:
        per_lookup_us = run_once(benchmark, best_frame_seconds) / BATCH * 1e6
    finally:
        service.close()

    print()
    print(f"hot {BATCH}-pair frame: {per_lookup_us:.3f} us of service time per lookup")
    benchmark.extra_info["service_us_per_lookup"] = per_lookup_us

    assert per_lookup_us <= HOT_FRAME_BUDGET_US, (
        f"a hot {BATCH}-pair frame costs {per_lookup_us:.3f} us per lookup, "
        f"over the {HOT_FRAME_BUDGET_US} us budget"
    )
