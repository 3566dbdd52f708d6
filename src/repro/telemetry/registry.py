"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is pure bookkeeping — it never reads a wall clock and
nothing it stores feeds back into a simulation result, so enabling it
cannot perturb byte-determinism (see ``docs/observability.md`` for the
contract).  Timings *observed into* histograms come from callers'
``time.perf_counter()`` deltas; they live only in the registry and in
trace files, never in an :class:`~repro.core.engine.EpochRecord` or a
stored sweep cell.

Three instrument kinds cover the repo's needs:

* :class:`Counter` — monotone event counts (cache hits, kernel calls,
  claims/reclaims, served lookups);
* :class:`Gauge` — last-written values (subscriber queue depth, live
  cache entries);
* :class:`Histogram` — distributions over **fixed bucket edges** chosen
  at creation (request latencies).  Fixed edges keep two snapshots of
  the same metric mergeable and make the Prometheus rendering stable.

Caches register themselves through :meth:`MetricsRegistry.attach_cache`
(held by weakref, so the registry never extends an engine's lifetime);
their bespoke per-instance counters are folded into the snapshot under
``cache.*`` names at read time — zero cost on the cache hot path.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Default latency bucket edges (seconds), log-ish spaced 10 µs → 10 s
#: (a 512-pair ``lookup_batch`` frame handles in ~150 µs, so the low
#: edges are what a serve p50 lands in).
DEFAULT_LATENCY_EDGES: Tuple[float, ...] = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Cache counter fields folded into the snapshot (summed across caches).
CACHE_COUNTER_FIELDS = ("hits", "misses", "repairs", "restamps", "drops")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution over fixed, strictly increasing bucket edges.

    Bucket ``i`` counts observations ``v <= edges[i]`` not already
    counted by a smaller bucket (Prometheus ``le`` semantics, stored
    non-cumulatively); the final overflow bucket counts ``v > edges[-1]``.
    """

    __slots__ = ("name", "edges", "counts", "sum", "count")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES):
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing, non-empty edges"
            )
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def _prometheus_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


class MetricsRegistry:
    """One process's metrics: named instruments plus read-time collectors."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._caches: List["weakref.ref"] = []
        self._collectors: List[Callable[[], Dict[str, float]]] = []

    # ------------------------------------------------------------------ #
    # Instrument accessors (create-on-first-use, stable thereafter)
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, edges)
        return histogram

    # ------------------------------------------------------------------ #
    # Read-time collection
    # ------------------------------------------------------------------ #
    def attach_cache(self, cache: object) -> None:
        """Fold ``cache``'s counters into snapshots (weakref — no pinning)."""
        self._caches.append(weakref.ref(cache))

    def register_collector(self, collect: Callable[[], Dict[str, float]]) -> None:
        """Register a callable whose dict of name→value joins each snapshot."""
        self._collectors.append(collect)

    def _cache_counters(self) -> Dict[str, float]:
        folded: Dict[str, float] = {}
        live = 0
        entries = 0
        for ref in self._caches:
            cache = ref()
            if cache is None:
                continue
            live += 1
            entries += len(cache)
            for field in CACHE_COUNTER_FIELDS:
                folded[f"cache.{field}"] = folded.get(f"cache.{field}", 0) + int(
                    getattr(cache, field, 0)
                )
        if live:
            folded["cache.instances"] = live
            folded["cache.entries"] = entries
        return folded

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: counters (instruments + caches + collectors),
        gauges, and histograms."""
        counters: Dict[str, float] = {
            name: counter.value for name, counter in sorted(self._counters.items())
        }
        counters.update(sorted(self._cache_counters().items()))
        for collect in self._collectors:
            for name, value in sorted(collect().items()):
                counters[name] = counters.get(name, 0) + value
        return {
            "counters": counters,
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current snapshot."""
        snap = self.snapshot()
        lines: List[str] = []
        for name, value in snap["counters"].items():
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in snap["gauges"].items():
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
        for name, data in snap["histograms"].items():
            metric = _prometheus_name(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for edge, count in zip(data["edges"], data["counts"]):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{edge}"}} {cumulative}')
            cumulative += data["counts"][-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {data['sum']}")
            lines.append(f"{metric}_count {data['count']}")
        return "\n".join(lines) + "\n"


class NullSpan:
    """Reusable no-op context manager — the disabled span singleton."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: The one NullSpan every disabled ``span()`` call returns (no allocation).
NULL_SPAN = NullSpan()


__all__ = [
    "CACHE_COUNTER_FIELDS",
    "Counter",
    "DEFAULT_LATENCY_EDGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
]
