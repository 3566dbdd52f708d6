"""The sequential engine's residual route-value memo.

Building a :class:`~repro.core.best_response.WiringEvaluator` requires the
routing values of the *residual* graph from every candidate first hop — a
multi-source Dijkstra (or widest-path) sweep that dominates the cost of a
re-wiring opportunity once candidate evaluation itself is vectorised.
Once best-response dynamics have converged nobody re-wires, so with a
static announced metric a node's residual graph — and its matrix — is
the same from one epoch to the next.

:class:`ResidualRouteCache` keeps those matrices for one user:
:meth:`repro.core.engine.EgoistEngine.step_node` running sequentially.
The engine stamps it with an opaque *token* — a fingerprint of
everything a residual depends on (global-wiring version,
announced-metric fingerprint, active membership) — and an entry is
valid only while its token equals the current one, so a single
re-wiring anywhere (which bumps the wiring version) retires every
entry implicitly.  A stale entry is recomputed by the evaluator, never
patched.

The lockstep batches do not use it.  Their planners compute each
residual for a known upcoming opportunity and hand it to the step that
reads it (:class:`~repro.core.engine_batch.EngineBatch`,
:class:`~repro.core.deployment_batch.DeploymentBatch`), and they know
from their own events — a re-wire, a version change under bandwidth,
an epoch boundary — when what they computed stops describing the
overlay.  A batched engine's memo therefore reads 0 hits, 0 misses and
0 entries for life.  ``repro serve`` answers lookups from
:attr:`~repro.core.engine.EpochView.route_values` and never reads it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.routing.shortest_path import repair_shortest_rows
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


def metric_fingerprint(metric) -> str:
    """Content digest of a metric's announced link-weight matrix.

    Part of the engine's residual-state token (the memo's validity and
    the lockstep batch's settled stamps), so that two metrics with an
    identical matrix fingerprint alike.  blake2b, not md5: a
    non-cryptographic digest that also works on FIPS-restricted Python
    builds.
    """
    return hashlib.blake2b(
        metric.link_weight_matrix().tobytes(), digest_size=16
    ).hexdigest()


class ResidualRouteCache:
    """LRU cache of per-node residual route-value matrices.

    Parameters
    ----------
    max_entries:
        Maximum number of node entries kept (each entry is a dense
        ``hops x n`` matrix, so memory is roughly ``max_entries * n**2``
        floats — the engine's, one entry per node, is ``n * n**2``).
        Must be positive.

    Notes
    -----
    Entries are keyed by node id and validated against both the cache's
    current :attr:`token` and the tuple of first hops the matrix was
    computed for.  :meth:`set_token` is cheap and does *not* clear the
    store — entries stamped with an older token simply stop matching and
    age out of the LRU.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValidationError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.token: Optional[Hashable] = None
        self.hits: int = 0
        self.misses: int = 0
        self.repairs: int = 0
        self.restamps: int = 0
        self.drops: int = 0
        self._store: "OrderedDict[int, Tuple[Hashable, Tuple[int, ...], np.ndarray]]" = (
            OrderedDict()
        )
        # Fold this cache's counters into the process metrics registry
        # (weakly held; a no-op when telemetry is off).
        telemetry.register_cache(self)

    # ------------------------------------------------------------------ #
    # Token management
    # ------------------------------------------------------------------ #
    def set_token(self, token: Hashable) -> None:
        """Stamp the cache with the current residual-state fingerprint."""
        self.token = token

    # ------------------------------------------------------------------ #
    # Lookup / insertion
    # ------------------------------------------------------------------ #
    def get(self, node: int, hops: Tuple[int, ...]) -> Optional[np.ndarray]:
        """The cached residual matrix for ``node``, or None on miss.

        A hit requires the stored token to equal the cache's current
        token and the stored hop tuple to equal ``hops`` exactly (rows of
        the matrix are indexed by hop order).
        """
        entry = self._store.get(node)
        if entry is not None and entry[0] == self.token and entry[1] == hops:
            self._store.move_to_end(node)
            self.hits += 1
            return entry[2]
        self.misses += 1
        return None

    def put(
        self,
        node: int,
        hops: Tuple[int, ...],
        matrix: np.ndarray,
        *,
        token: Optional[Hashable] = None,
    ) -> None:
        """Store ``matrix`` (``len(hops) x n``) for ``node`` under the token.

        ``token`` overrides the cache's current token for this entry, so
        it only ever matches once that state is current (the benchmark
        probe plants a stale entry this way).
        """
        self._store[node] = (self.token if token is None else token, tuple(hops), matrix)
        self._store.move_to_end(node)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.drops += 1

    # ------------------------------------------------------------------ #
    # Additive repair primitive (benchmark probe only)
    # ------------------------------------------------------------------ #
    def repair(
        self,
        node: int,
        changed_links,
        adjacency: Optional[np.ndarray],
        *,
        maximize: bool,
    ) -> Optional[np.ndarray]:
        """Patch ``node``'s additive entry onto the current token.

        No engine path calls this (a stale entry is recomputed, never
        patched); it remains because the frozen benchmark harness times
        it (``bench/probes.py``) and goes with that probe (ROADMAP [1]).

        ``changed_links`` names the nodes whose out-links changed since
        the entry was computed (``node``'s own are outside its residual
        graph) and ``adjacency`` is the dense ``NaN``-absent matrix of
        that residual graph now.  The rows go through
        :func:`~repro.routing.shortest_path.repair_shortest_rows` and
        are re-stamped; an empty delta only moves the stamp; a max-min
        entry with a delta is dropped.  Returns the matrix kept, or None.
        """
        entry = self._store.get(node)
        if entry is None:
            return None
        _token, hops, matrix = entry
        changed = {int(c) for c in changed_links} - {int(node)}
        if not changed:
            self.restamps += 1
        elif maximize:
            del self._store[node]
            self.drops += 1
            return None
        else:
            matrix = repair_shortest_rows(
                matrix, np.asarray(hops, dtype=int), changed, adjacency
            )
            self.repairs += 1
        self._store[node] = (self.token, hops, matrix)
        self._store.move_to_end(node)
        return matrix

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Hit/miss/repair counters for benchmarks and tests.

        Compatibility shim: the forward-looking surface for these
        counters is the process metrics registry (they appear in
        :meth:`~repro.telemetry.MetricsRegistry.snapshot` under
        ``cache.*`` when telemetry is enabled); this dict form remains
        the stable shape behind ``metadata["cache"]`` and the pooled
        aggregations in :mod:`repro.telemetry.diagnostics`.
        """
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "repairs": float(self.repairs),
            "restamps": float(self.restamps),
            "drops": float(self.drops),
            "entries": float(len(self._store)),
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResidualRouteCache(entries={len(self._store)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
