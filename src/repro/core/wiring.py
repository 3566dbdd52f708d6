"""Wirings: the strategy objects of the Selfish Neighbor Selection game.

Following Section 2.1 of the paper, node ``v_i`` establishes a *wiring*
``s_i = {v_i1, ..., v_ik}`` — a set of ``k`` directed links to other nodes.
A *global wiring* ``S = {s_1, ..., s_n}`` is the collection of everyone's
wirings, which together with the link weights induces the overlay graph
that shortest-path routing operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Optional

from repro.routing.graph import OverlayGraph
from repro.util.validation import ValidationError, check_index


@dataclass(frozen=True)
class Wiring:
    """One node's choice of overlay neighbours.

    Attributes
    ----------
    node:
        The node that owns this wiring.
    neighbors:
        The chosen out-neighbours (no self-links, no duplicates).
    donated:
        The subset of ``neighbors`` that are *donated* backbone links in a
        HybridBR configuration (empty for pure strategies).
    """

    node: int
    neighbors: FrozenSet[int]
    donated: FrozenSet[int] = frozenset()

    def __post_init__(self):
        if self.node in self.neighbors:
            raise ValidationError("a node may not wire to itself")
        if not self.donated <= self.neighbors:
            raise ValidationError("donated links must be a subset of neighbors")

    @classmethod
    def of(
        cls,
        node: int,
        neighbors: Iterable[int],
        donated: Iterable[int] = (),
    ) -> "Wiring":
        """Convenience constructor accepting any iterables."""
        return cls(
            node=int(node),
            neighbors=frozenset(int(v) for v in neighbors),
            donated=frozenset(int(v) for v in donated),
        )

    @property
    def degree(self) -> int:
        """Number of chosen neighbours (k actually in use)."""
        return len(self.neighbors)

    def replace(self, old: int, new: int) -> "Wiring":
        """Return a wiring with ``old`` swapped for ``new``."""
        if old not in self.neighbors:
            raise ValidationError(f"{old} is not a neighbor of node {self.node}")
        neighbors = set(self.neighbors)
        neighbors.discard(old)
        neighbors.add(new)
        donated = set(self.donated)
        if old in donated:
            donated.discard(old)
            donated.add(new)
        return Wiring.of(self.node, neighbors, donated)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.neighbors))


class GlobalWiring:
    """The global wiring ``S``: everyone's neighbour choices plus weights.

    The object stores, for every node, its :class:`Wiring` and the weight
    of each established link (the announced/measured link cost used by the
    routing layer).  Conversion to an :class:`OverlayGraph` gives the
    structure the routing algorithms operate on.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("n must be >= 1")
        self.n = int(n)
        self._wirings: Dict[int, Wiring] = {}
        self._weights: Dict[int, Dict[int, float]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped whenever the wiring content changes.

        Re-installing a node's existing wiring with identical weights is a
        no-op and does *not* bump the version, so the counter is a cheap
        fingerprint of the induced overlay — the engine keys its residual
        route-value cache on it.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def set_wiring(
        self, wiring: Wiring, weights: Dict[int, float]
    ) -> None:
        """Install ``wiring`` with per-neighbour link weights."""
        check_index(wiring.node, self.n, "wiring.node")
        for neighbor in wiring.neighbors:
            check_index(neighbor, self.n, "neighbor")
            if neighbor not in weights:
                raise ValidationError(
                    f"missing weight for link {wiring.node} -> {neighbor}"
                )
        new_weights = {v: float(weights[v]) for v in wiring.neighbors}
        for v, w in new_weights.items():
            if w < 0:
                raise ValidationError(
                    f"negative weight for link {wiring.node} -> {v}"
                )
        if (
            self._wirings.get(wiring.node) == wiring
            and self._weights.get(wiring.node) == new_weights
        ):
            return
        self._wirings[wiring.node] = wiring
        self._weights[wiring.node] = new_weights
        self._version += 1

    def remove_wiring(self, node: int) -> None:
        """Remove ``node``'s wiring entirely (e.g. the node went OFF)."""
        if node in self._wirings:
            self._version += 1
        self._wirings.pop(node, None)
        self._weights.pop(node, None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def wiring_of(self, node: int) -> Optional[Wiring]:
        """The wiring of ``node`` (None if it has not wired yet)."""
        return self._wirings.get(node)

    def weights_of(self, node: int) -> Dict[int, float]:
        """Link weights of ``node``'s established links (copy)."""
        return dict(self._weights.get(node, {}))

    def degree_of(self, node: int) -> int:
        """Out-degree of ``node`` under the current wiring."""
        wiring = self._wirings.get(node)
        return wiring.degree if wiring is not None else 0

    def residual(self, node: int) -> "GlobalWiring":
        """The residual wiring ``S_{-i}``: everyone's wiring except ``node``'s."""
        residual = GlobalWiring(self.n)
        for other, wiring in self._wirings.items():
            if other == node:
                continue
            residual.set_wiring(wiring, self._weights[other])
        return residual

    def copy(self) -> "GlobalWiring":
        """Deep copy."""
        clone = GlobalWiring(self.n)
        for node, wiring in self._wirings.items():
            clone.set_wiring(wiring, self._weights[node])
        return clone

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def _weight_rows(
        self, active: Optional[Iterable[int]], exclude: Optional[int]
    ) -> Iterable:
        """(node, weights) rows restricted to ``active``, minus ``exclude``.

        Contents are pre-validated by :meth:`set_wiring`, which is what
        entitles the graph conversions below to the trusted bulk
        constructor.
        """
        if active is None:
            return (
                (node, weights)
                for node, weights in self._weights.items()
                if node != exclude
            )
        active_set = set(active)
        return (
            (node, {v: w for v, w in weights.items() if v in active_set})
            for node, weights in self._weights.items()
            if node != exclude and node in active_set
        )

    def to_graph(self, active: Optional[Iterable[int]] = None) -> OverlayGraph:
        """Overlay graph induced by the wiring (optionally restricted)."""
        return OverlayGraph.from_weight_maps(self.n, self._weight_rows(active, None))

    def residual_graph(
        self, node: int, active: Optional[Iterable[int]] = None
    ) -> OverlayGraph:
        """Overlay graph of the residual wiring ``S_{-node}``.

        Equivalent to ``residual(node).to_graph(active)`` but built in one
        pass without copying the wiring — this runs once per re-wiring
        opportunity in the engine's epoch loop.
        """
        return OverlayGraph.from_weight_maps(self.n, self._weight_rows(active, node))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalWiring(n={self.n}, wired={len(self._wirings)})"
