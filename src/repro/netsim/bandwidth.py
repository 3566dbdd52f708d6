"""Per-link available-bandwidth model.

The paper's bandwidth experiments rely on pathChirp estimates of the
*available* bandwidth of each (potential) overlay link.  We model each
ordered pair of nodes as riding a bottleneck link whose capacity is drawn
from a small set of access-technology tiers and whose utilisation by cross
traffic fluctuates over time.  The available bandwidth of the pair is the
unused share of that bottleneck.

This reproduces the properties the EGOIST evaluation depends on:

* heterogeneity — some nodes sit behind fat pipes, some behind thin ones;
* temporal variation — cross traffic makes availability drift between
  wiring epochs, forcing re-wiring;
* rough symmetry within a node's access tier but asymmetry across pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError, check_probability


#: Access-capacity tiers in Mbps with their sampling probabilities, loosely
#: modelled on the mix of GREN (fast university) and commodity PlanetLab
#: sites: most sites have ~100 Mbps access, some are gigabit, a few are
#: throttled to tens of Mbps.
DEFAULT_CAPACITY_TIERS: Tuple[Tuple[float, float], ...] = (
    (1000.0, 0.15),
    (100.0, 0.60),
    (45.0, 0.15),
    (10.0, 0.10),
)


@dataclass(frozen=True)
class LinkBandwidthSample:
    """One observation of a directed overlay link's available bandwidth."""

    src: int
    dst: int
    available_mbps: float
    capacity_mbps: float


class BandwidthModel:
    """Ground-truth available bandwidth for every ordered node pair.

    Parameters
    ----------
    n:
        Number of overlay nodes.
    capacity_tiers:
        Sequence of ``(capacity_mbps, probability)`` pairs describing node
        access capacities.
    utilization_mean, utilization_std:
        Mean and standard deviation of the background (cross-traffic)
        utilisation of each node's access link, as a fraction of capacity.
    drift_std:
        Standard deviation of the per-step multiplicative drift applied by
        :meth:`advance`; models cross-traffic variation between epochs.
    seed:
        Seed or generator.
    """

    def __init__(
        self,
        n: int,
        *,
        capacity_tiers: Sequence[Tuple[float, float]] = DEFAULT_CAPACITY_TIERS,
        utilization_mean: float = 0.35,
        utilization_std: float = 0.2,
        drift_std: float = 0.05,
        seed: SeedLike = None,
    ):
        if n < 2:
            raise ValidationError(f"n must be >= 2, got {n}")
        probs = [p for _, p in capacity_tiers]
        if abs(sum(probs) - 1.0) > 1e-6:
            raise ValidationError("capacity tier probabilities must sum to 1")
        check_probability(utilization_mean, "utilization_mean")
        self.n = int(n)
        self.drift_std = float(drift_std)
        self._rng = as_generator(seed)
        capacities = [c for c, _ in capacity_tiers]
        tier_idx = self._rng.choice(len(capacities), size=n, p=probs)
        #: uplink capacity of each node in Mbps
        self.uplink_capacity = np.array([capacities[i] for i in tier_idx])
        #: downlink capacity (same tier, PlanetLab sites are symmetric)
        self.downlink_capacity = self.uplink_capacity.copy()
        # Background utilisation of each node's uplink and downlink.
        self._up_util = np.clip(
            self._rng.normal(utilization_mean, utilization_std, size=n), 0.0, 0.95
        )
        self._down_util = np.clip(
            self._rng.normal(utilization_mean, utilization_std, size=n), 0.0, 0.95
        )

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def available(self, src: int, dst: int) -> float:
        """Ground-truth available bandwidth (Mbps) of the directed pair.

        The bottleneck of the ``src -> dst`` IP path is modelled as the
        tighter of ``src``'s residual uplink and ``dst``'s residual
        downlink.
        """
        if src == dst:
            return float("inf")
        up = self.uplink_capacity[src] * (1.0 - self._up_util[src])
        down = self.downlink_capacity[dst] * (1.0 - self._down_util[dst])
        return float(min(up, down))

    def matrix(self) -> np.ndarray:
        """Full ``n x n`` available-bandwidth matrix (diagonal = +inf)."""
        up = self.uplink_capacity * (1.0 - self._up_util)
        down = self.downlink_capacity * (1.0 - self._down_util)
        mat = np.minimum(up[:, None], down[None, :])
        np.fill_diagonal(mat, np.inf)
        return mat

    # ------------------------------------------------------------------ #
    # Dynamics & measurement
    # ------------------------------------------------------------------ #
    def advance(self, steps: int = 1) -> None:
        """Let cross traffic drift for ``steps`` epochs.

        Utilisations follow a mean-reverting random walk clipped to
        ``[0, 0.95]`` so availability never collapses entirely.
        """
        for _ in range(int(steps)):
            for util in (self._up_util, self._down_util):
                noise = self._rng.normal(0.0, self.drift_std, size=self.n)
                reversion = 0.1 * (0.35 - util)
                util += reversion + noise
                np.clip(util, 0.0, 0.95, out=util)

    def sample(
        self, src: int, dst: int, *, relative_error: float = 0.1, rng: SeedLike = None
    ) -> LinkBandwidthSample:
        """Simulate one pathChirp-like probe of the directed pair.

        The estimate is the ground truth perturbed by zero-mean Gaussian
        noise with the given relative error (pathChirp is accurate to
        within roughly 10% in practice).
        """
        rng = as_generator(rng if rng is not None else self._rng)
        truth = self.available(src, dst)
        estimate = max(0.1, truth * (1.0 + float(rng.normal(0.0, relative_error))))
        capacity = float(
            min(self.uplink_capacity[src], self.downlink_capacity[dst])
        )
        return LinkBandwidthSample(
            src=src, dst=dst, available_mbps=estimate, capacity_mbps=capacity
        )
