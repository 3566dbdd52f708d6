"""Measurement plumbing shared by every workload.

One :class:`Window` holds what a measured run produced; the helpers
around it time requests, read CPU and memory, manage the scratch
directory, run the machine-calibration loops and the per-layer probes.
Nothing here knows about a particular workload.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from bench import ROOT, SRC
from repro import telemetry
from repro.telemetry.summarize import summarize
from repro.util.stats import percentile

#: Scratch root, inside the checkout (the benchmark writes nowhere else).
SCRATCH_ROOT = os.path.join(ROOT, ".bench_tmp")

#: How many times set-up is repeated per run (the median is reported).
SETUP_REPEATS = 3


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile, or 0.0 unless >= 10 samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < 10:
        return 0.0
    return percentile(values, q)


# ---------------------------------------------------------------------- #
# Scratch space
# ---------------------------------------------------------------------- #
class Scratch:
    """A private directory under the checkout, removed on exit."""

    def __init__(self, label: str):
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{label}-", dir=SCRATCH_ROOT)
        self._counter = 0

    def subdir(self, label: str) -> str:
        self._counter += 1
        path = os.path.join(self.path, f"{label}{self._counter}")
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)  # only when no concurrent run uses it
        except OSError:
            pass

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc: object) -> None:
        self.cleanup()


def filesystem_type(path: str) -> str:
    """Filesystem type holding ``path`` (longest matching mount point)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            _device, mount, kind = line.split()[:3]
            prefix = mount.rstrip("/") + "/"
            if (target == mount or target.startswith(prefix)) and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


# ---------------------------------------------------------------------- #
# CPU and memory
# ---------------------------------------------------------------------- #
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def self_peak_rss_mb() -> float:
    """High-water resident set of this process, MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; fields are counted after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of ``pid``, MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this process — and the children it starts meanwhile — to one CPU.

    A closed loop with one caller never has two runnable processes: while
    the server works the client waits, and the other way round.  On one
    CPU they lose nothing and skip the cross-CPU wake-up on every reply,
    which on a shared VM is the noisiest part of a round trip (the other
    virtual CPU may not be scheduled at all when the wake-up arrives).
    Measured here: same throughput or better, a third of the spread.
    The previous affinity is restored on exit.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


# ---------------------------------------------------------------------- #
# Machine calibration
# ---------------------------------------------------------------------- #
def _calib_py() -> None:
    total = 0
    for i in range(100_000):
        total += i * i


_CALIB_MATRIX = np.arange(96 * 96, dtype=float).reshape(96, 96) % 17.0


def _calib_np() -> None:
    np.minimum(_CALIB_MATRIX[:, None, :] + _CALIB_MATRIX[None, :, :], 9.0).min(axis=2)


def calibrate() -> Dict[str, float]:
    """Fixed pure-Python and NumPy loops, ms each (median of 5).

    Lets a reader normalise numbers taken on different boxes; reported
    beside the metrics, never folded into them.
    """
    out = {}
    for name, body in (("machine.calib_py_ms", _calib_py), ("machine.calib_np_ms", _calib_np)):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            body()
            samples.append(time.perf_counter() - start)
        out[name] = median(samples) * 1e3
    return out


# ---------------------------------------------------------------------- #
# Probes: direct timed calls into one layer
# ---------------------------------------------------------------------- #
def probe(
    body: Callable[[], object],
    *,
    before: Optional[Callable[[], object]] = None,
    calls: int = 200,
    budget_s: float = 0.3,
) -> float:
    """Median seconds per ``body()`` call.

    Up to ``calls`` calls, cut short once ``budget_s`` of timed work has
    accumulated (at least three calls regardless), so microsecond-scale
    probes get their 200 samples and second-scale ones stay affordable.
    ``before`` runs off the clock ahead of every call (state reset).
    """
    samples: List[float] = []
    spent = 0.0
    while len(samples) < calls and (len(samples) < 3 or spent < budget_s):
        if before is not None:
            before()
        start = time.perf_counter()
        body()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return median(samples)


# ---------------------------------------------------------------------- #
# The measured window
# ---------------------------------------------------------------------- #
@dataclass
class Window:
    """What one measured run produced (all timings in seconds).

    The window is a sequence of *requests* (one timed call each) grouped
    into *chunks* that all do the same kind of work.  On a shared box
    interference only ever takes time away, in bursts of a few hundred
    milliseconds to a few seconds, so the time metrics describe the
    **quieter half** of the window — the chunks whose throughput is at or
    above the median chunk's.  That is what the program does when left
    alone, and it repeats between runs far better than a mean or a
    median over the whole window.
    """

    #: Duration of every timed request inside the window, in order.
    request_s: List[float] = field(default_factory=list)
    #: Operations per second of each chunk, and where in ``request_s``
    #: the chunk ends (exclusive).
    chunk_rates: List[float] = field(default_factory=list)
    chunk_ends: List[int] = field(default_factory=list)
    #: Operations per CPU second of the working process, sampled over
    #: stretches of the window (per request, or about once a second).
    ops_per_cpu_s: List[float] = field(default_factory=list)
    #: Operations attempted / failed inside the window.
    ops: int = 0
    failed_ops: int = 0
    #: CPU seconds the working process spent inside the window.
    cpu_s: float = 0.0
    #: CPU seconds this (generator) process spent, for serve workloads.
    client_cpu_s: float = 0.0
    #: Wall-clock length of the window.
    wall_s: float = 0.0
    #: Peak resident set of the working process, MB.
    peak_rss_mb: float = 0.0
    #: Requests executed in all, the off-the-clock prefix tail included.
    requests_run: int = 0

    def close_chunk(self, ops: int, wall_s: float) -> None:
        """The requests appended since the last chunk did ``ops`` in ``wall_s``."""
        self.chunk_rates.append(ops / wall_s)
        self.chunk_ends.append(len(self.request_s))

    def _quiet(self) -> List[int]:
        cut = median(self.chunk_rates)
        return [i for i, rate in enumerate(self.chunk_rates) if rate >= cut]

    def ops_per_s(self) -> float:
        """Median throughput of the quieter half of the chunks."""
        return median([self.chunk_rates[i] for i in self._quiet()])

    def request_p50_s(self) -> float:
        """Median request duration inside the quieter half of the chunks."""
        starts = [0] + self.chunk_ends
        return median(
            [t for i in self._quiet() for t in self.request_s[starts[i] : starts[i + 1]]]
        )

    def end_to_end(self, setup_s: float) -> Dict[str, Dict[str, object]]:
        """The end-to-end metrics of ``BENCHMARK.json``."""
        return {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(self.ops_per_s(), "1/s"),
            # The quieter stretches again: the upper quartile of the samples.
            "ops_per_cpu_s": metric(percentile(self.ops_per_cpu_s, 75), "1/s"),
            "peak_rss_mb": metric(self.peak_rss_mb, "MB"),
        }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


@dataclass
class Outcome:
    """What a workload hands back to ``bench.run``."""

    window: Window
    #: Median over the run's set-up repeats.
    setup_s: float
    #: Output checks made / failed (off the clock).
    checked: int
    failed_checks: int
    #: Digest of the deterministic prefix of the outputs.
    digest: str
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float]


def import_in_fresh_interpreter(*modules: str) -> None:
    """Start a Python child that imports the program's ``modules``, and wait.

    The in-process workloads import the program once, long before any
    timer starts; a user pays that on every start, so their set-up runs
    this the way the serve workloads' set-up starts a server.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)], env=env, check=True
    )


def timed(body: Callable[[], object]) -> float:
    """Seconds one ``body()`` call takes."""
    start = time.perf_counter()
    body()
    return time.perf_counter() - start


def median_setup_s(
    setup: Callable[[], object],
    smoke: bool,
    reset: Optional[Callable[[], object]] = None,
) -> float:
    """Set up :data:`SETUP_REPEATS` times (once in smoke runs); the median.

    ``reset`` undoes the previous repeat, off the clock.  The state the
    last repeat leaves behind is the one the run measures.
    """
    samples = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        if reset is not None:
            reset()
        samples.append(timed(setup))
    return median(samples)


def drive(
    request: Callable[[int], int],
    *,
    seconds: float,
    prefix: int,
    prepare: Optional[Callable[[int], None]] = None,
    at_prefix: Optional[Callable[[], None]] = None,
) -> Window:
    """Closed loop over an in-process workload: one request at a time.

    ``request(i)`` does the work and returns the operations it completed.
    Requests run back to back until ``seconds`` have passed; each is one
    chunk.  The first ``prefix`` requests are the deterministic part the
    output digest and the exact-repeat counts cover — when the window
    closes before they are done the rest run off the clock, and
    ``at_prefix`` fires right after the last of them.  ``prepare`` runs
    ahead of every request, also off the clock.
    """
    window = Window()
    started = time.perf_counter()
    deadline = started + float(seconds)
    index = 0
    while True:
        in_window = time.perf_counter() < deadline
        if not in_window and index >= prefix:
            break
        if prepare is not None:
            prepare(index)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with telemetry.span("bench.request"):
            ops = request(index)
        elapsed = time.perf_counter() - t0
        if in_window:
            window.request_s.append(elapsed)
            window.close_chunk(ops, elapsed)
            cpu = time.process_time() - cpu0
            window.ops_per_cpu_s.append(ops / cpu)
            window.cpu_s += cpu
            window.ops += ops
            window.wall_s = time.perf_counter() - started
        index += 1
        if index == prefix and at_prefix is not None:
            at_prefix()
    window.requests_run = index
    window.peak_rss_mb = self_peak_rss_mb()
    return window


# ---------------------------------------------------------------------- #
# Telemetry: spans and counters of the traced run
# ---------------------------------------------------------------------- #
class Traced:
    """In-process telemetry for a traced run: spans to memory, counters on.

    ``Traced(False)`` is inert, so workloads call it unconditionally.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self._sink: List[Dict[str, object]] = []
        self._registry = telemetry.enable(trace=self._sink) if self.enabled else None
        self._marked: Dict[str, float] = {}

    def mark_counters(self) -> None:
        """Freeze the counters now (the end of the deterministic prefix)."""
        if self._registry is not None:
            self._marked = dict(self._registry.snapshot()["counters"])

    def counters(self) -> Dict[str, float]:
        return self._marked

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over the run."""
        spans = [r for r in self._sink if r.get("kind") == "span"]
        events = [r for r in self._sink if r.get("kind") == "event"]
        table = summarize({"spans": spans, "events": events})
        return {phase["name"]: float(phase["self"]) for phase in table["phases"]}

    def span_durations(self, name: str) -> List[float]:
        return [
            float(r["dur"])
            for r in self._sink
            if r.get("kind") == "span" and r.get("name") == name
        ]

    def close(self) -> None:
        if self.enabled:
            telemetry.disable()
            self.enabled = False


def count_layers(
    counters: Dict[str, float], cache: Dict[str, float], rewirings: int
) -> Dict[str, float]:
    """Exact-repeat counts over the deterministic prefix."""

    def kernel(name: str, what: str) -> float:
        return float(counters.get(f"kernel.{name}.{what}", 0))

    attempts = cache.get("hits", 0.0) + cache.get("misses", 0.0)
    return {
        "routing.dijkstra_rows": kernel("batched_route_matrices.dijkstra", "rows")
        + kernel("shortest.multi", "rows"),
        "routing.dijkstra_calls": kernel("batched_route_matrices.dijkstra", "calls")
        + kernel("shortest.multi", "calls"),
        "routing.repair_rows": kernel("shortest.repair", "rows")
        + kernel("widest.repair", "rows"),
        "routing.repair_calls": kernel("shortest.repair", "calls")
        + kernel("widest.repair", "calls"),
        "routing.widest_closure_rows": kernel("widest.closure_fw", "rows"),
        "routing.widest_closure_calls": kernel("widest.closure_fw", "calls"),
        "route_cache.hits": cache.get("hits", 0.0),
        "route_cache.misses": cache.get("misses", 0.0),
        "route_cache.repairs": cache.get("repairs", 0.0),
        "route_cache.restamps": cache.get("restamps", 0.0),
        "route_cache.drops": cache.get("drops", 0.0),
        "route_cache.hit_rate": cache.get("hits", 0.0) / attempts if attempts else 0.0,
        "best_response.steps_fused": float(counters.get("batch.steps.fused", 0)),
        "best_response.steps_sequential": float(
            counters.get("batch.steps.sequential", 0)
        ),
        "best_response.rewirings": float(rewirings),
        "engine.repair_hit": float(counters.get("engine.repair.hit", 0)),
        "engine.repair_sweep": float(counters.get("engine.repair.sweep", 0)),
    }


def sample_indices(total: int, want: int, seed: int) -> Iterable[int]:
    """``want`` distinct indices below ``total`` (all when fewer), sorted."""
    if total <= want:
        return range(total)
    rng = np.random.default_rng([int(seed), 0xC4EC])
    return sorted(int(i) for i in rng.choice(total, size=want, replace=False))
