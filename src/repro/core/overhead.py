"""Measurement and protocol overhead accounting (Section 4.3).

The paper quantifies three overheads and argues they are all small:

* **Active measurement load** — once per wiring epoch ``T`` a node probes
  the candidate links it does not already maintain:
  ``(n - k - 1) * 320 / T`` bps with ping, or ``(320 + 32 n) / T`` bps with
  a coordinate-system query; node load needs no network traffic; bandwidth
  probing consumes < 2% of the probed path's available bandwidth.
* **Link-state protocol load** — ``(192 + 32 k) / T_announce`` bps per node.
* **Re-wiring overhead** — the number of re-wirings per epoch, which drops
  quickly as the overlay reaches steady state and can be reduced further
  with BR(ε).

The functions here implement those formulas so benchmarks can compare the
analytic expectations against the traffic actually accounted by the
simulated link-state protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.routing.messages import (
    COORDINATE_QUERY_BASE_BITS,
    COORDINATE_QUERY_PER_NODE_BITS,
    ICMP_MESSAGE_BITS,
    announcement_size_bits,
)
from repro.util.validation import ValidationError, check_positive


def ping_measurement_rate_bps(n: int, k: int, epoch_length_s: float) -> float:
    """Per-node active ping measurement load in bits per second.

    Established links need no extra probing (their cost is known from
    use), so only the ``n - k - 1`` candidate links are probed once per
    epoch, with one 320-bit ICMP message each way.
    """
    check_positive(epoch_length_s, "epoch_length_s")
    if n < 1 or k < 0:
        raise ValidationError("need n >= 1 and k >= 0")
    candidates = max(0, n - k - 1)
    return candidates * ICMP_MESSAGE_BITS / epoch_length_s


def coordinate_measurement_rate_bps(n: int, epoch_length_s: float) -> float:
    """Per-node pyxida-style measurement load in bits per second.

    A single request/reply returns distances to all ``n`` nodes:
    ``(320 + 32 n) / T`` bps.
    """
    check_positive(epoch_length_s, "epoch_length_s")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return (COORDINATE_QUERY_BASE_BITS + COORDINATE_QUERY_PER_NODE_BITS * n) / epoch_length_s


def linkstate_rate_bps(k: int, announce_interval_s: float) -> float:
    """Per-node link-state protocol load: ``(192 + 32 k) / T_announce`` bps."""
    check_positive(announce_interval_s, "announce_interval_s")
    if k < 0:
        raise ValidationError("k must be non-negative")
    return announcement_size_bits(k) / announce_interval_s


def bandwidth_probe_fraction() -> float:
    """Fraction of a path's available bandwidth consumed by chirp probing."""
    return 0.02


def fullmesh_monitored_links(n: int) -> int:
    """Links a full-mesh (RON-like) overlay must monitor: ``n * (n - 1)``."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return n * (n - 1)


def egoist_monitored_links(n: int, k: int) -> int:
    """Links an EGOIST overlay monitors continuously: ``n * k``."""
    if n < 1 or k < 0:
        raise ValidationError("need n >= 1 and k >= 0")
    return n * min(k, max(0, n - 1))


@dataclass(frozen=True)
class OverheadReport:
    """Per-node overhead summary for one configuration."""

    n: int
    k: int
    epoch_length_s: float
    announce_interval_s: float
    ping_bps: float
    coordinate_bps: float
    linkstate_bps: float
    monitored_links: int
    fullmesh_monitored_links: int

    @property
    def total_active_bps(self) -> float:
        """Ping + link-state load (the paper's default configuration)."""
        return self.ping_bps + self.linkstate_bps

    @property
    def scalability_gain(self) -> float:
        """Ratio of full-mesh monitored links to EGOIST monitored links."""
        if self.monitored_links == 0:
            return float("inf")
        return self.fullmesh_monitored_links / self.monitored_links


def overhead_report(
    n: int,
    k: int,
    *,
    epoch_length_s: float = 60.0,
    announce_interval_s: float = 20.0,
) -> OverheadReport:
    """Assemble the Section 4.3 overhead figures for one configuration."""
    return OverheadReport(
        n=n,
        k=k,
        epoch_length_s=epoch_length_s,
        announce_interval_s=announce_interval_s,
        ping_bps=ping_measurement_rate_bps(n, k, epoch_length_s),
        coordinate_bps=coordinate_measurement_rate_bps(n, epoch_length_s),
        linkstate_bps=linkstate_rate_bps(k, announce_interval_s),
        monitored_links=egoist_monitored_links(n, k),
        fullmesh_monitored_links=fullmesh_monitored_links(n),
    )
