"""Multipath file transfer via first-hop EGOIST neighbours (Section 6.1).

A source ``v_i`` opens up to ``k`` parallel sessions to a target ``v_j``,
each redirected through a different first-hop EGOIST neighbour
``v_l in s_i``.  Because distinct neighbours often sit behind distinct
peering points of the (multihomed) source AS, each session enjoys its own
per-session rate cap at the peering point, so the aggregate rate can
exceed what any single IP path — even with parallel connections — could
achieve (Fig. 9).  Fig. 10 reports the resulting available-bandwidth gain
versus the single direct IP path, together with the max-flow style ceiling
when every peer allows redirection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.wiring import GlobalWiring
from repro.netsim.autonomous_systems import ASTopology
from repro.netsim.bandwidth import BandwidthModel
from repro.routing.graph import OverlayGraph
from repro.routing.widest_path import widest_path_bandwidths_from
from repro.util.validation import ValidationError, check_index


@dataclass(frozen=True)
class SessionPlan:
    """One parallel session of a multipath transfer."""

    first_hop: int
    rate_mbps: float
    egress_link_id: int


@dataclass
class MultipathPlan:
    """A full multipath transfer plan from a source to a target."""

    source: int
    target: int
    sessions: List[SessionPlan] = field(default_factory=list)
    direct_rate_mbps: float = 0.0
    maxflow_rate_mbps: float = 0.0

    @property
    def aggregate_rate_mbps(self) -> float:
        """Total achieved rate across all parallel sessions."""
        return float(sum(s.rate_mbps for s in self.sessions))

    @property
    def gain(self) -> float:
        """Aggregate rate relative to the single direct-path rate."""
        if self.direct_rate_mbps <= 0:
            return float("inf") if self.aggregate_rate_mbps > 0 else 1.0
        return self.aggregate_rate_mbps / self.direct_rate_mbps

    @property
    def maxflow_gain(self) -> float:
        """Max-flow ceiling relative to the single direct-path rate."""
        if self.direct_rate_mbps <= 0:
            return float("inf") if self.maxflow_rate_mbps > 0 else 1.0
        return self.maxflow_rate_mbps / self.direct_rate_mbps


class MultipathTransferApp:
    """Plan multipath transfers over an EGOIST overlay.

    Parameters
    ----------
    overlay:
        The overlay wiring (links weighted by available bandwidth).
    bandwidth:
        The substrate bandwidth model (ground truth of path capacities).
    as_topology:
        AS membership and peering structure (per-session rate caps).
    """

    def __init__(
        self,
        overlay: GlobalWiring,
        bandwidth: BandwidthModel,
        as_topology: ASTopology,
    ):
        if overlay.n != bandwidth.n or overlay.n != as_topology.n:
            raise ValidationError("overlay, bandwidth, and AS model sizes differ")
        self.overlay = overlay
        self.bandwidth = bandwidth
        self.as_topology = as_topology
        # Each overlay hop is its own IP session between consecutive overlay
        # nodes, so every hop is limited both by the available bandwidth of
        # its IP path and by the per-session rate cap at its source's AS
        # egress.  The capped graph is what redirected traffic rides on.
        self._graph = overlay.to_graph()
        self._capped_graph = OverlayGraph(overlay.n)
        for u, v, w in self._graph.edges():
            capacity = min(
                w,
                self.bandwidth.available(u, v),
                self.as_topology.session_rate_limit(u, v),
            )
            if capacity > 0:
                self._capped_graph.add_edge(u, v, capacity)

    # ------------------------------------------------------------------ #
    # Per-session rate computation
    # ------------------------------------------------------------------ #
    def _session_rate(self, source: int, first_hop: int, target: int) -> float:
        """Achievable rate of one session redirected through ``first_hop``.

        The session rides the direct IP hop ``source -> first_hop``
        (limited by the peering-point session cap and available bandwidth)
        and then the best overlay path ``first_hop -> target`` over the
        capped graph.
        """
        cap = self.as_topology.session_rate_limit(source, first_hop)
        first_leg = min(cap, self.bandwidth.available(source, first_hop))
        if self._capped_graph.has_edge(source, first_hop):
            # Keep the first leg consistent with the capped overlay edge so
            # that the max-flow ceiling is always an upper bound.
            first_leg = min(first_leg, self._capped_graph.weight(source, first_hop))
        if first_hop == target:
            return max(0.0, first_leg)
        onward = widest_path_bandwidths_from(self._capped_graph, first_hop)[target]
        return max(0.0, min(first_leg, float(onward)))

    def _session_egress(self, source: int, first_hop: int, target: int):
        """Peering link of the source AS that this session's traffic exits on.

        If the first hop sits in the source's own AS, the traffic only
        leaves the AS on the onward leg, through the egress the first hop
        uses towards the target.
        """
        if self.as_topology.as_of(source) != self.as_topology.as_of(first_hop):
            return self.as_topology.egress_link(source, first_hop)
        return self.as_topology.egress_link(first_hop, target)

    def direct_rate(self, source: int, target: int) -> float:
        """Rate of a single session on the direct IP path (the baseline)."""
        cap = self.as_topology.session_rate_limit(source, target)
        return max(0.0, min(cap, self.bandwidth.available(source, target)))

    def maxflow_rate(self, source: int, target: int) -> float:
        """Ceiling when all peers allow redirection: max-flow source→target.

        Edges are the overlay links plus the direct IP hop, each capped by
        both its available bandwidth and the per-session limit at the
        source AS egress (for edges leaving the source).
        """
        import networkx as nx

        flow_graph = nx.DiGraph()
        for u, v, w in self._capped_graph.edges():
            flow_graph.add_edge(u, v, capacity=w)
        direct = self.direct_rate(source, target)
        if direct > 0:
            if flow_graph.has_edge(source, target):
                flow_graph[source][target]["capacity"] = max(
                    flow_graph[source][target]["capacity"], direct
                )
            else:
                flow_graph.add_edge(source, target, capacity=direct)
        if source not in flow_graph or target not in flow_graph:
            return direct
        value, _ = nx.maximum_flow(flow_graph, source, target)
        return float(value)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(self, source: int, target: int, *, max_sessions: Optional[int] = None) -> MultipathPlan:
        """Build a multipath plan from ``source`` to ``target``.

        One session is opened per first-hop neighbour of the source (up to
        ``max_sessions``), each achieving the rate allowed by its peering
        point and its onward overlay path.
        """
        check_index(source, self.overlay.n, "source")
        check_index(target, self.overlay.n, "target")
        if source == target:
            raise ValidationError("source and target must differ")
        wiring = self.overlay.wiring_of(source)
        neighbors = sorted(wiring.neighbors) if wiring is not None else []
        if max_sessions is not None:
            neighbors = neighbors[: int(max_sessions)]
        sessions = []
        for first_hop in neighbors:
            rate = self._session_rate(source, first_hop, target)
            egress = self._session_egress(source, first_hop, target)
            sessions.append(
                SessionPlan(
                    first_hop=first_hop,
                    rate_mbps=rate,
                    egress_link_id=egress.link_id,
                )
            )
        # Sessions sharing a peering link cannot jointly exceed what that
        # peering point allows: cap each egress link's aggregate at its
        # per-session rate limit ("utilize up to the maximum allowed rate
        # at that peering point").
        capped_sessions: List[SessionPlan] = []
        by_egress: Dict[int, float] = {}
        for session in sorted(sessions, key=lambda s: -s.rate_mbps):
            link_id = session.egress_link_id
            limit = self.as_topology.session_rate_limit(source, target)
            if link_id >= 0:
                links = self.as_topology.peering_links[self.as_topology.as_of(source)]
                limit = links[link_id].session_rate_cap_mbps
            else:
                limit = float("inf")
            used = by_egress.get(link_id, 0.0)
            allowed = max(0.0, min(session.rate_mbps, limit - used))
            by_egress[link_id] = used + allowed
            capped_sessions.append(
                SessionPlan(
                    first_hop=session.first_hop,
                    rate_mbps=allowed,
                    egress_link_id=link_id,
                )
            )
        sessions = capped_sessions
        return MultipathPlan(
            source=source,
            target=target,
            sessions=sessions,
            direct_rate_mbps=self.direct_rate(source, target),
            maxflow_rate_mbps=self.maxflow_rate(source, target),
        )


def session_lookup_pairs(
    n: int,
    *,
    sessions: int,
    rng=None,
    max_parallel: int = 4,
    popularity_skew: float = 0.8,
) -> List[Tuple[int, int]]:
    """The multipath traffic model for the serve workload generator.

    Each transfer session picks a source uniformly and a target from a
    popularity-skewed distribution (a few hot content hosts soak up most
    transfers, the shape Section 6.1's workload assumes), then issues one
    route lookup per parallel connection — between 1 and ``max_parallel``
    of them, matching the per-first-hop sessions :meth:`MultipathTransferApp.plan`
    opens.  Returns the flat list of ``(src, dst)`` lookups, so callers
    batch them straight into ``lookup_batch``.
    """
    from repro.util.rng import as_generator

    if n < 2:
        raise ValidationError("the traffic model needs at least two nodes")
    rng = as_generator(rng)
    skew = float(popularity_skew)
    weights = np.arange(1, n + 1, dtype=float) ** -max(0.0, skew)
    weights /= weights.sum()
    popularity = rng.permutation(n)
    pairs: List[Tuple[int, int]] = []
    for _ in range(int(sessions)):
        source = int(rng.integers(n))
        target = int(popularity[rng.choice(n, p=weights)])
        while target == source:
            target = int(popularity[rng.choice(n, p=weights)])
        for _connection in range(int(rng.integers(1, max(1, int(max_parallel)) + 1))):
            pairs.append((source, target))
    return pairs
