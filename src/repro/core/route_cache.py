"""Per-node residual route-value caching for the wiring epoch hot path.

Building a :class:`~repro.core.best_response.WiringEvaluator` requires the
routing values of the *residual* graph from every candidate first hop — a
multi-source Dijkstra (or widest-path) sweep that dominates the cost of a
re-wiring opportunity once candidate evaluation itself is vectorised.

Within (and across) wiring epochs this work is highly redundant:

* a node's re-wiring opportunity evaluates its current wiring *and* runs a
  best-response computation — both need the same residual matrix;
* once best-response dynamics have converged, no node re-wires, so the
  global wiring (and with it every node's residual graph) is unchanged
  from one epoch to the next; with a static announced metric the matrices
  can be reused verbatim.

:class:`ResidualRouteCache` makes both kinds of sharing explicit.  The
engine owns one cache and stamps it with an opaque *token* — a fingerprint
of everything the residual matrices depend on (global-wiring version,
announced-metric fingerprint, active membership).  Evaluator construction
consults the cache; an entry is valid only if its token matches the
cache's current token, so a single re-wiring anywhere (which bumps the
wiring version) invalidates every stale entry implicitly.  That is the
cache's only staleness rule: a stale entry is recomputed by its reader's
ordinary fresh path (the evaluator's or the batch's stacked sweep),
never patched — measured, patching served at most 1.3% of lookups.

Who uses it.  The sequential engine (every opportunity), the lockstep
batch's stacked-sweep and bandwidth planners, and the build-time
deployment batch — re-wiring decisions only; ``repro serve`` answers
lookups from :attr:`~repro.core.engine.EpochView.route_values` and never
reads it.  The lockstep batch's *maintained* planner (additive
engines from 64 active nodes up) does not: it derives each residual
from one all-pairs matrix and streams it straight into the fused step,
so such an engine's cache stays empty for life and its counters read 0.
The quiet-epoch reuse of the second bullet is served there by what the
cached matrix was a proxy for — a per-node stamp of the very token
described above, kept by the batch
(:meth:`repro.core.engine_batch._LockstepState.is_settled`) — because a
deployment-sized cache is n entries of ``(n - 1) x n`` floats: n
all-pairs matrices, 64 MB at n = 200 and 1 GB at n = 500, all of it
dead the moment anyone re-wires.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.routing.shortest_path import repair_shortest_rows
from repro.telemetry import runtime as telemetry
from repro.util.validation import ValidationError


def array_fingerprint(array: np.ndarray) -> str:
    """Content digest of a dense array (weight matrices, graphs).

    blake2b, not md5: a non-cryptographic fingerprint that also works on
    FIPS-restricted Python builds.  Shared by every fingerprint in the
    cache/batch machinery so the digest convention cannot drift between
    call sites.
    """
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


def metric_fingerprint(metric) -> str:
    """Fingerprint of a metric's announced link-weight matrix.

    The token the engine (and the multi-deployment batch kernels) stamp
    residual route caches with includes this digest, so that two
    deployments sharing one underlay snapshot — the same announced metric
    object or an identical matrix — also share cache validity.
    """
    return array_fingerprint(metric.link_weight_matrix())


class ResidualRouteCache:
    """LRU cache of per-node residual route-value matrices.

    Parameters
    ----------
    max_entries:
        Maximum number of node entries kept (each entry is a dense
        ``hops x n`` matrix, so memory is roughly ``max_entries * n**2``
        floats — a deployment-sized cache, one entry per node, is
        ``n * n**2``).  Must be positive; use ``None`` on the engine side
        to size the cache to the deployment.

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

    def invalidate(self) -> None:
        """Drop every entry (e.g. when the substrate changed wholesale)."""
        self._store.clear()

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

        ``token`` overrides the cache's current token for this entry —
        speculative producers (the lockstep engine batch) stamp entries
        with the *predicted* residual-state fingerprint they will be
        valid under, so the entry only ever matches once that state
        materialises.
        """
        self._store[node] = (self.token if token is None else token, tuple(hops), matrix)
        self._store.move_to_end(node)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.drops += 1

    def drop(self, node: int) -> None:
        """Remove ``node``'s entry (mispredicted speculative state)."""
        if self._store.pop(node, None) is not None:
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
            self.drop(node)
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
