"""Cost metrics and node cost functions.

EGOIST supports several notions of the "cost" of traversing an overlay
link (Section 4.1): end-to-end delay, node load, and available bandwidth.
A :class:`Metric` bundles everything the wiring policies and the routing
layer need to know about one such notion:

* the weight of a (potential) direct overlay link between any two nodes —
  as measured/announced, which is what best responses are computed from;
* how per-link weights combine along a path and across the overlay
  (additive shortest-path cost vs bottleneck/widest-path bandwidth);
* whether the node objective is minimised (delay, load) or maximised
  (bandwidth); and
* the node cost function ``C_i(S)`` itself — the preference-weighted sum
  over destinations of the per-destination routing value.

Preferences ``p_ij`` default to uniform, as in all the paper's
experiments, but arbitrary (e.g. traffic-skewed) preference matrices are
supported.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.routing.graph import OverlayGraph
from repro.routing.shortest_path import all_pairs_shortest_costs
from repro.routing.widest_path import all_pairs_widest_bandwidth
from repro.util.validation import ValidationError, check_matrix_square

#: Cost assigned to a destination that cannot be reached at all.  The paper
#: uses "M >> n"; a large finite constant keeps arithmetic well-behaved
#: while still dwarfing any realistic path cost.
DISCONNECTION_COST = 1.0e7

#: Bandwidth credited for an unreachable destination under the bandwidth
#: metric (the maximisation analogue of the disconnection cost).
DISCONNECTION_BANDWIDTH = 0.0


def uniform_preferences(n: int) -> np.ndarray:
    """The uniform preference matrix used throughout the paper.

    ``p_ij = 1 / (n - 1)`` for ``j != i`` and 0 on the diagonal, so that a
    node's cost is simply its average routing cost over all destinations.
    """
    if n < 2:
        raise ValidationError("n must be >= 2 for a preference matrix")
    prefs = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(prefs, 0.0)
    return prefs


def check_preferences(preferences: np.ndarray, n: int) -> np.ndarray:
    """A caller-supplied preference matrix, checked once: ``(n, n)``,
    finite, non-negative (the weighted-cost reductions assume all three)."""
    prefs = np.asarray(preferences, dtype=float)
    if prefs.shape != (n, n):
        raise ValidationError(f"preferences must be {n} x {n}, got {prefs.shape}")
    if not np.isfinite(prefs).all() or (prefs < 0).any():
        raise ValidationError("preferences must be finite and non-negative")
    return prefs


def normalize_preferences(raw: np.ndarray) -> np.ndarray:
    """Normalise an arbitrary non-negative preference matrix row-wise.

    Rows must have a positive sum; the diagonal is zeroed.
    """
    prefs = check_matrix_square(raw, "preferences").copy()
    if np.any(prefs < 0):
        raise ValidationError("preferences must be non-negative")
    np.fill_diagonal(prefs, 0.0)
    sums = prefs.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValidationError("every node needs positive total preference")
    return prefs / sums


def zipf_preferences(n: int, exponent: float = 1.0, seed=None) -> np.ndarray:
    """A skewed (Zipf-like) preference matrix.

    Useful for exploring the paper's footnote that uniform preferences are
    *conservative* for BR: skew lets BR leverage popular destinations.
    Each node ranks the other nodes in a random order and assigns
    preference proportional to ``1 / rank**exponent``.
    """
    from repro.util.rng import as_generator

    if n < 2:
        raise ValidationError("n must be >= 2")
    rng = as_generator(seed)
    prefs = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rng.shuffle(others)
        weights = 1.0 / np.arange(1, n) ** float(exponent)
        for rank, j in enumerate(others):
            prefs[i, j] = weights[rank]
    return normalize_preferences(prefs)


class Metric(abc.ABC):
    """A cost metric: direct link weights + routing semantics + objective."""

    #: Human-readable metric name.
    name: str = "abstract"
    #: True if larger objective values are better (bandwidth), False if
    #: smaller values are better (delay, load).
    maximize: bool = False

    @abc.abstractmethod
    def link_weight(self, src: int, dst: int) -> float:
        """Weight of a (potential) direct overlay link ``src -> dst``."""

    @abc.abstractmethod
    def link_weight_matrix(self) -> np.ndarray:
        """Dense ``n x n`` matrix of direct-link weights."""

    def link_weight_row(self, src: int) -> np.ndarray:
        """Direct-link weights from ``src`` to every node (length ``n``).

        The concrete metrics override this with a row slice; the default
        loops over :meth:`link_weight` (O(n), never O(n²)) so arbitrary
        metric subclasses stay safe to use in the evaluator hot path.
        """
        return np.array([self.link_weight(src, j) for j in range(self.size)])

    @abc.abstractmethod
    def route_values(self, graph: OverlayGraph) -> np.ndarray:
        """Per-pair routing value over ``graph``.

        For additive metrics this is the all-pairs shortest-path cost; for
        the bandwidth metric it is the all-pairs maximum bottleneck
        bandwidth.
        """

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of overlay nodes the metric covers."""

    # ------------------------------------------------------------------ #
    # Objective helpers shared by all metrics
    # ------------------------------------------------------------------ #
    @property
    def unreachable_value(self) -> float:
        """Routing value assigned to unreachable destinations."""
        return DISCONNECTION_BANDWIDTH if self.maximize else DISCONNECTION_COST

    def better(self, a: float, b: float) -> bool:
        """True if objective value ``a`` is strictly better than ``b``."""
        return a > b if self.maximize else a < b

    def improvement(self, new: float, old: float) -> float:
        """Relative improvement of ``new`` over ``old`` (>= 0 when better)."""
        if old == 0:
            return 0.0 if new == old else float("inf")
        gain = (new - old) / abs(old)
        return gain if self.maximize else -gain

    def node_cost(
        self,
        node: int,
        graph: OverlayGraph,
        preferences: Optional[np.ndarray] = None,
        *,
        destinations: Optional[Iterable[int]] = None,
    ) -> float:
        """The node cost ``C_i(S)`` (or bandwidth objective) over ``graph``.

        Parameters
        ----------
        node:
            The node whose cost is evaluated.
        graph:
            Overlay graph induced by the global wiring.
        preferences:
            Preference matrix ``p_ij``; defaults to uniform.
        destinations:
            Optional subset of destinations to include (used under churn,
            where only active destinations count).
        """
        n = self.size
        if preferences is None:
            preferences = uniform_preferences(n)
        values = self.route_values_from(graph, node)
        return self._weighted_cost(node, values, preferences, destinations)

    def _weighted_cost(
        self,
        node: int,
        values: np.ndarray,
        preferences: np.ndarray,
        destinations: Optional[Iterable[int]],
    ) -> float:
        """Preference-weighted objective of per-destination ``values``.

        Unreachable destinations (non-finite values, and non-positive
        bandwidths under maximisation) are charged the metric's
        disconnection value; the node itself is always excluded.
        """
        if destinations is not None:
            dests = np.array([j for j in destinations if j != node], dtype=int)
        else:
            dests = np.array([j for j in range(self.size) if j != node], dtype=int)
        if len(dests) == 0:
            return 0.0
        picked = values[dests]
        if self.maximize:
            reachable = np.isfinite(picked) & (picked > 0)
        else:
            reachable = np.isfinite(picked)
        picked = np.where(reachable, picked, self.unreachable_value)
        return float((preferences[node, dests] * picked).sum())

    def route_values_from(self, graph: OverlayGraph, node: int) -> np.ndarray:
        """Routing values from ``node`` to every destination over ``graph``."""
        if self.maximize:
            from repro.routing.widest_path import widest_path_bandwidths_from

            return widest_path_bandwidths_from(graph, node)
        from repro.routing.shortest_path import shortest_path_costs_from

        return shortest_path_costs_from(graph, node)

    def route_values_rows(
        self, graph: OverlayGraph, sources: Iterable[int]
    ) -> np.ndarray:
        """Routing values from each of ``sources`` (``len(sources) x n``).

        The additive metrics batch all sources into one sparse Dijkstra
        sweep; the bandwidth metric stacks per-source widest-path runs.
        This is the matrix entry point behind :meth:`all_node_costs`.
        """
        source_list = list(sources)
        if self.maximize:
            from repro.routing.widest_path import widest_path_bandwidths_multi

            return widest_path_bandwidths_multi(graph, source_list)
        from repro.routing.shortest_path import shortest_path_costs_multi

        return shortest_path_costs_multi(graph, source_list)

    def all_node_costs(
        self,
        graph: Optional[OverlayGraph],
        preferences: Optional[np.ndarray] = None,
        *,
        nodes: Optional[Iterable[int]] = None,
        destinations: Optional[Iterable[int]] = None,
        route_values: Optional[np.ndarray] = None,
    ) -> Dict[int, float]:
        """Costs of all (or the given) nodes over ``graph``.

        Route values for every requested node are computed in one batched
        sweep (:meth:`route_values_rows`) rather than one single-source
        query per node; callers that already hold the
        ``len(nodes) x n`` route-value rows (the lockstep engine batch
        scores every deployment's epoch through one stacked sweep) pass
        them via ``route_values``, in which case ``graph`` may be None.
        """
        node_list = list(nodes) if nodes is not None else list(range(self.size))
        if not node_list:
            return {}
        if preferences is None:
            preferences = uniform_preferences(self.size)
        dest_list = list(destinations) if destinations is not None else None
        values = (
            route_values
            if route_values is not None
            else self.route_values_rows(graph, node_list)
        )
        return {
            i: self._weighted_cost(i, values[row], preferences, dest_list)
            for row, i in enumerate(node_list)
        }

    def social_cost(
        self, graph: OverlayGraph, preferences: Optional[np.ndarray] = None
    ) -> float:
        """Sum of all node costs (the social cost of the SNS game)."""
        return float(sum(self.all_node_costs(graph, preferences).values()))


class DelayMetric(Metric):
    """End-to-end delay metric: additive link delays, minimised.

    Parameters
    ----------
    delays:
        ``n x n`` matrix of (estimated) one-way link delays in ms — ping
        estimates, coordinate estimates, or announced values depending on
        what the caller measured.
    """

    name = "delay"
    maximize = False

    def __init__(self, delays: np.ndarray):
        self._delays = check_matrix_square(delays, "delays").copy()
        np.fill_diagonal(self._delays, 0.0)
        if np.any(self._delays < 0):
            raise ValidationError("delays must be non-negative")

    @property
    def size(self) -> int:
        return self._delays.shape[0]

    def link_weight(self, src: int, dst: int) -> float:
        return float(self._delays[src, dst])

    def link_weight_row(self, src: int) -> np.ndarray:
        return self._delays[src].copy()

    def link_weight_matrix(self) -> np.ndarray:
        return self._delays.copy()

    def route_values(self, graph: OverlayGraph) -> np.ndarray:
        return all_pairs_shortest_costs(graph)


class NodeLoadMetric(Metric):
    """Node-load metric: every outgoing link of ``u`` costs ``load(u)``.

    The cost of a path is then the sum of the loads of the nodes along it
    (excluding the destination), matching Section 4.1's description.
    """

    name = "node-load"
    maximize = False

    def __init__(self, loads: Sequence[float]):
        loads = np.asarray(list(loads), dtype=float)
        if loads.ndim != 1:
            raise ValidationError("loads must be a 1-D sequence")
        if np.any(loads < 0):
            raise ValidationError("loads must be non-negative")
        self._loads = loads

    @property
    def size(self) -> int:
        return self._loads.shape[0]

    @property
    def loads(self) -> np.ndarray:
        """The per-node load vector."""
        return self._loads.copy()

    def link_weight(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return float(self._loads[src])

    def link_weight_row(self, src: int) -> np.ndarray:
        row = np.full(self.size, self._loads[src])
        row[src] = 0.0
        return row

    def link_weight_matrix(self) -> np.ndarray:
        n = self.size
        mat = np.repeat(self._loads[:, None], n, axis=1)
        np.fill_diagonal(mat, 0.0)
        return mat

    def route_values(self, graph: OverlayGraph) -> np.ndarray:
        return all_pairs_shortest_costs(graph)


class BandwidthMetric(Metric):
    """Available-bandwidth metric: bottleneck bandwidth, maximised.

    Parameters
    ----------
    available:
        ``n x n`` matrix of estimated available bandwidth (Mbps) of the
        direct IP path between each ordered pair.
    """

    name = "bandwidth"
    maximize = True

    def __init__(self, available: np.ndarray):
        self._bw = check_matrix_square(available, "available").copy()
        if np.any(self._bw < 0):
            raise ValidationError("available bandwidth must be non-negative")
        np.fill_diagonal(self._bw, np.inf)

    @property
    def size(self) -> int:
        return self._bw.shape[0]

    def link_weight(self, src: int, dst: int) -> float:
        return float(self._bw[src, dst])

    def link_weight_row(self, src: int) -> np.ndarray:
        return self._bw[src].copy()

    def link_weight_matrix(self) -> np.ndarray:
        return self._bw.copy()

    def route_values(self, graph: OverlayGraph) -> np.ndarray:
        return all_pairs_widest_bandwidth(graph)
