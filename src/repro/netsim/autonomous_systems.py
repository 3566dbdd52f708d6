"""Autonomous-system (AS) and multihoming model.

Section 6.1 of the paper shows how a source node in a multihomed AS can
use its k first-hop EGOIST neighbours to open parallel sessions that each
ride a *different* AS peering point, escaping per-session rate limits
applied at those peering points (Fig. 9).  Reproducing Fig. 10 therefore
needs a model of:

* which AS each overlay node lives in,
* how many upstream peering links each AS has (its multihoming degree),
* the per-session rate cap enforced at each peering link, and
* which peering link a given overlay path leaves the source AS through.

The model here is deliberately simple: peering links are the only
bottlenecks it introduces (end-to-end available bandwidth beyond the
peering point comes from the :class:`~repro.netsim.bandwidth.BandwidthModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError, check_positive


@dataclass(frozen=True)
class PeeringLink:
    """One upstream peering link of an AS.

    Attributes
    ----------
    as_id:
        The AS this link belongs to.
    link_id:
        Index of the link within the AS (0-based).
    session_rate_cap_mbps:
        Maximum rate a single (source, destination) session may push
        through this peering point — the traffic-shaping limit that
        multipath redirection circumvents.
    """

    as_id: int
    link_id: int
    session_rate_cap_mbps: float


class ASTopology:
    """Assignment of overlay nodes to (possibly multihomed) ASes.

    Parameters
    ----------
    n:
        Number of overlay nodes.
    n_ases:
        Number of distinct ASes to spread nodes over.
    multihoming_choices:
        Candidate multihoming degrees and their probabilities, e.g. the
        default gives 40% single-homed, 35% dual-homed, 25% triple-homed
        ASes.
    session_cap_range_mbps:
        Per-peering-link session rate caps are drawn uniformly from this
        range (paper's example uses 1 and 2 Mbps caps).
    seed:
        Seed or generator.
    """

    def __init__(
        self,
        n: int,
        *,
        n_ases: Optional[int] = None,
        multihoming_choices: Sequence[Tuple[int, float]] = (
            (1, 0.25),
            (2, 0.35),
            (3, 0.25),
            (4, 0.15),
        ),
        session_cap_range_mbps: Tuple[float, float] = (1.0, 3.0),
        seed: SeedLike = None,
    ):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        rng = as_generator(seed)
        self.n = int(n)
        if n_ases is None:
            n_ases = max(2, n // 3)
        if n_ases < 1 or n_ases > n:
            raise ValidationError(f"n_ases must be in [1, {n}], got {n_ases}")
        self.n_ases = int(n_ases)
        degrees = [d for d, _ in multihoming_choices]
        probs = [p for _, p in multihoming_choices]
        if abs(sum(probs) - 1.0) > 1e-6:
            raise ValidationError("multihoming probabilities must sum to 1")
        low, high = session_cap_range_mbps
        check_positive(low, "session_cap_range_mbps[0]")
        if high < low:
            raise ValidationError("session cap range must be (low, high) with high >= low")

        # Assign every node to an AS; make sure every AS gets at least one
        # node by assigning the first n_ases nodes round-robin.
        assignment = np.empty(n, dtype=int)
        assignment[: self.n_ases] = np.arange(self.n_ases)
        if n > self.n_ases:
            assignment[self.n_ases:] = rng.integers(0, self.n_ases, size=n - self.n_ases)
        rng.shuffle(assignment)
        self.node_as: np.ndarray = assignment

        # Peering links per AS.
        self.peering_links: Dict[int, List[PeeringLink]] = {}
        for as_id in range(self.n_ases):
            degree = int(rng.choice(degrees, p=probs))
            links = [
                PeeringLink(
                    as_id=as_id,
                    link_id=link_id,
                    session_rate_cap_mbps=float(rng.uniform(low, high)),
                )
                for link_id in range(degree)
            ]
            self.peering_links[as_id] = links

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def as_of(self, node: int) -> int:
        """AS identifier of ``node``."""
        return int(self.node_as[node])

    def multihoming_degree(self, as_id: int) -> int:
        """Number of upstream peering links of AS ``as_id``."""
        return len(self.peering_links[as_id])

    def egress_link(self, src: int, dst: int) -> PeeringLink:
        """Peering link that traffic from ``src`` towards ``dst`` leaves on.

        Traffic between nodes of the same AS does not cross a peering point;
        a synthetic uncapped link is returned in that case.  Otherwise the
        egress link is chosen deterministically by hashing the destination
        AS over the source AS's peering links — modelling hot-potato /
        policy routing that pins each remote AS behind one exit.
        """
        src_as = self.as_of(src)
        dst_as = self.as_of(dst)
        if src_as == dst_as:
            return PeeringLink(as_id=src_as, link_id=-1, session_rate_cap_mbps=float("inf"))
        links = self.peering_links[src_as]
        return links[dst_as % len(links)]

    def session_rate_limit(self, src: int, dst: int) -> float:
        """Per-session rate cap (Mbps) on the direct IP path ``src -> dst``."""
        return self.egress_link(src, dst).session_rate_cap_mbps

    def describe(self) -> dict:
        """Summary statistics of the AS topology (for reports and tests)."""
        degrees = [self.multihoming_degree(a) for a in range(self.n_ases)]
        return {
            "nodes": self.n,
            "ases": self.n_ases,
            "mean_multihoming_degree": float(np.mean(degrees)),
            "max_multihoming_degree": int(np.max(degrees)),
            "single_homed_fraction": float(np.mean([d == 1 for d in degrees])),
        }
