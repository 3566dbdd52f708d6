"""Overlay link-state routing protocol.

Every EGOIST node floods a :class:`LinkStateAnnouncement` describing its
established links and their costs, and every node remembers the freshest
announcement it received from each origin (Section 3.1).

:class:`LinkStateProtocol` simulates the flooding at epoch granularity
and keeps what every node heard in one ``(n, n)`` table,
``held[recipient, origin]``.  The table is *state and accounting*, not an
input to any decision: the engines best-respond on the shared
:class:`~repro.core.wiring.GlobalWiring` (perfect information), so
announcement loss moves the protocol's counters and the rows of this
table, and nothing else.  A row is the local view a node would decide
from — lagging entries included, since a recipient that lost the newest
flood still holds the previous announcement — and :meth:`view_of`
rebuilds it as a graph.  Protocol traffic is accounted for the Section
4.3 overhead analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.routing.graph import OverlayGraph
from repro.routing.messages import LinkStateAnnouncement, delivery_outcomes
from repro.util.validation import ValidationError, check_index, check_positive


@dataclass
class ProtocolStats:
    """Aggregate traffic counters for the link-state protocol."""

    announcements_sent: int = 0
    announcement_bits: int = 0
    flood_deliveries: int = 0
    announcements_lost: int = 0


class LinkStateProtocol:
    """Epoch-granularity simulation of overlay link-state flooding.

    Parameters
    ----------
    n:
        Number of overlay nodes.
    announce_interval_s:
        ``T_announce``, the period between successive announcements by a
        node (20 s in the paper).
    """

    def __init__(self, n: int, announce_interval_s: float = 20.0):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self.announce_interval_s = check_positive(
            announce_interval_s, "announce_interval_s"
        )
        #: ``held[recipient, origin]``: the freshest announcement of
        #: ``origin`` that reached ``recipient`` (None: never heard, or
        #: purged).  One flood stores one shared reference per recipient.
        self.held = np.full((self.n, self.n), None, dtype=object)
        self._sequence = [0] * self.n
        self.stats = ProtocolStats()
        self._loss_probability = 0.0
        self._loss_rng: Optional[np.random.Generator] = None

    def configure_loss(self, probability: float, rng: np.random.Generator) -> None:
        """Enable probabilistic per-recipient loss of flooded announcements.

        Each non-origin recipient of every broadcast independently drops
        the announcement with ``probability`` (the origin always keeps
        its own state).  Per broadcast, one uniform is drawn per
        recipient in ascending id order, so the loss pattern is a
        deterministic function of the broadcast schedule and ``rng``'s
        seed.
        """
        probability = float(probability)
        if not 0.0 <= probability < 1.0:
            raise ValidationError("loss probability must be in [0, 1)")
        self._loss_probability = probability
        self._loss_rng = rng

    def broadcast(
        self,
        origin: int,
        links: Dict[int, float],
        *,
        active: Optional[Sequence[int]] = None,
        timestamp: float = 0.0,
    ) -> LinkStateAnnouncement:
        """Issue and flood an announcement of ``origin``'s current links.

        Parameters
        ----------
        origin:
            Announcing node.
        links:
            Mapping of neighbour -> announced cost (empty: the node
            withdraws its links).
        active:
            The nodes currently ON, as distinct ids in ascending order
            (an index array, e.g. ``EpochPlan.active_rows``); only they
            receive the flood.  Defaults to all nodes.
        timestamp:
            Simulated time of the announcement.

        Returns
        -------
        LinkStateAnnouncement
            The announcement that was flooded.
        """
        check_index(origin, self.n, "origin")
        self._sequence[origin] += 1
        announcement = LinkStateAnnouncement.from_dict(
            origin, self._sequence[origin], links, timestamp
        )
        rows = np.arange(self.n) if active is None else np.asarray(active, dtype=np.intp)
        others = rows[rows != origin]
        if self._loss_rng is not None and self._loss_probability > 0.0:
            delivered = delivery_outcomes(
                self._loss_rng, len(others), self._loss_probability
            )
            self.stats.announcements_lost += len(others) - int(delivered.sum())
            others = others[delivered]
        self.held[others, origin] = announcement
        self.held[origin, origin] = announcement
        self.stats.flood_deliveries += len(others) + 1
        self.stats.announcements_sent += 1
        self.stats.announcement_bits += announcement.size_bits
        return announcement

    def purge(self, origin: int) -> None:
        """Forget ``origin`` at every node without flooding.

        Models the eventual timeout of a crashed node's state.
        """
        self.held[:, origin] = None

    def view_of(self, node: int, *, residual_for: Optional[int] = None) -> OverlayGraph:
        """The overlay graph ``node`` reconstructs from what it holds.

        With ``residual_for`` given, that origin's announcement is
        skipped — the residual graph ``G_{-i}`` of Section 3.1.
        """
        check_index(node, self.n, "node")
        graph = OverlayGraph(self.n)
        for announcement in self.held[node]:
            if announcement is None or announcement.origin == residual_for:
                continue
            for neighbor, cost in announcement.links:
                if neighbor != announcement.origin:
                    graph.add_edge(announcement.origin, neighbor, cost)
        return graph
