"""Diagnostics plumbing shared by results, tests, and CI.

Two jobs live here:

* **One implementation of pooled route-cache stats.**
  :func:`pooled_cache_stats` sums per-cache counters and recomputes the
  pooled hit rate (callers hand it a batch's engines' caches directly;
  :func:`merge_cache_stats` pools across batches), and the same numbers
  appear in a live :class:`~repro.telemetry.registry.MetricsRegistry` snapshot
  under ``cache.*`` — the registry is the forward-looking surface, the
  ``metadata["cache"]`` block the compatibility one.

* **One list of diagnostics keys.**  ``metadata`` entries named in
  :data:`DIAGNOSTIC_KEYS` are observational (cache counters differ
  legitimately between the fused and sequential kernel paths) and must
  be excluded from cross-path byte-equality asserts.  Use
  :func:`strip_diagnostics` instead of per-call-site ``pop("cache")``
  copies so a newly added diagnostics key cannot silently break the
  parity gates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

#: Result-``metadata`` keys that are diagnostics, not results: they may
#: differ between equally-correct executions (fused vs sequential, any
#: worker count) and are popped before cross-path equality asserts.
#: ``telemetry`` is reserved: nothing writes it into stored results
#: today — and nothing may, see the determinism contract in
#: ``docs/observability.md`` — but tooling that learns to inject local
#: snapshots must already be covered by the parity helpers.
DIAGNOSTIC_KEYS = ("cache", "telemetry")

#: Counter fields summed across caches (``hit_rate`` is recomputed).
POOLED_FIELDS = ("hits", "misses", "repairs", "restamps", "drops", "entries")


def pooled_cache_stats(caches: Iterable[object]) -> Dict[str, float]:
    """Summed counters plus the pooled hit rate over ``caches``.

    ``caches`` yields :class:`~repro.core.route_cache.ResidualRouteCache`
    instances (``None`` entries are skipped).  The pooled ``hit_rate``
    is recomputed from the summed hits/misses rather than averaged, so
    it weights caches by their traffic.
    """
    totals = {field: 0.0 for field in POOLED_FIELDS}
    for cache in caches:
        if cache is None:
            continue
        stats = cache.stats()
        for field in POOLED_FIELDS:
            totals[field] += stats.get(field, 0.0)
    lookups = totals["hits"] + totals["misses"]
    totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    return totals


def merge_cache_stats(parts: Iterable[Optional[Dict[str, float]]]) -> Dict[str, float]:
    """Pool already-aggregated stats dicts (summed, hit rate recomputed)."""
    totals: Dict[str, float] = {}
    for part in parts:
        if not part:
            continue
        for key, value in part.items():
            if key != "hit_rate":
                totals[key] = totals.get(key, 0.0) + value
    lookups = totals.get("hits", 0.0) + totals.get("misses", 0.0)
    totals["hit_rate"] = totals.get("hits", 0.0) / lookups if lookups else 0.0
    return totals


def pop_diagnostics(metadata: Dict[str, object]) -> Dict[str, object]:
    """Remove every :data:`DIAGNOSTIC_KEYS` entry from a metadata dict.

    Returns the popped entries so asserts about the diagnostics
    themselves (e.g. "the fused cache out-hits the sequential one")
    still have the data.
    """
    return {
        key: metadata.pop(key) for key in DIAGNOSTIC_KEYS if key in metadata
    }


def strip_diagnostics(document: Dict[str, object]) -> Dict[str, object]:
    """:func:`pop_diagnostics` for whole result documents.

    Accepts an ``ExperimentResult.as_dict()`` payload (a ``metadata``
    key), a sweep-store cell document (``result.metadata``), or a bare
    metadata mapping, mutating it in place; returns the popped
    diagnostics.
    """
    metadata = document
    if isinstance(document.get("metadata"), dict):
        metadata = document["metadata"]
    elif isinstance(document.get("result"), dict) and isinstance(
        document["result"].get("metadata"), dict
    ):
        metadata = document["result"]["metadata"]
    return pop_diagnostics(metadata)


__all__ = [
    "DIAGNOSTIC_KEYS",
    "POOLED_FIELDS",
    "merge_cache_stats",
    "pooled_cache_stats",
    "pop_diagnostics",
    "strip_diagnostics",
]
