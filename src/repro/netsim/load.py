"""Per-node CPU load processes.

For the node-load cost metric the paper assigns every outgoing link of a
node a cost equal to the node's measured CPU load (a 1-minute EWMA of
``loadavg``).  PlanetLab nodes are notoriously heavily and *unevenly*
loaded, which is exactly why the k-Closest heuristic fails on this metric
("it fails to predict anything beyond the immediate neighbor, especially in
light of the high variance in node load").

We reproduce that environment with a heavy-tailed base load per node plus a
mean-reverting Ornstein–Uhlenbeck fluctuation, smoothed by the same EWMA a
real deployment would use.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.stats import Ewma
from repro.util.validation import ValidationError


class NodeLoadModel:
    """Ground-truth and measured CPU load for ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes.
    base_shape, base_scale:
        Parameters of the Pareto-like (lomax) distribution of per-node base
        load.  The default yields a median base load around 2 with a long
        tail reaching 20+, mimicking busy PlanetLab machines.
    reversion, volatility:
        Ornstein–Uhlenbeck mean-reversion rate and volatility of the
        fluctuation component (per epoch).
    ewma_alpha:
        Smoothing factor of the per-node EWMA used for *measured* load.
    seed:
        Seed or generator.
    """

    def __init__(
        self,
        n: int,
        *,
        base_shape: float = 1.5,
        base_scale: float = 3.0,
        reversion: float = 0.2,
        volatility: float = 0.5,
        ewma_alpha: float = 0.3,
        seed: SeedLike = None,
    ):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self.reversion = float(reversion)
        self.volatility = float(volatility)
        self._rng = as_generator(seed)
        # Heavy-tailed base load (lomax = shifted Pareto), floor of 0.1.
        self.base_load = 0.1 + self._rng.pareto(base_shape, size=n) * base_scale / base_shape
        self._fluctuation = np.zeros(n)
        self._ewmas = [Ewma(alpha=ewma_alpha) for _ in range(n)]
        # Seed the EWMAs with one observation so measured_load is defined.
        for i in range(n):
            self._ewmas[i].update(self.true_load(i))

    def true_load(self, node: int) -> float:
        """Instantaneous ground-truth load of ``node`` (non-negative)."""
        return float(max(0.0, self.base_load[node] + self._fluctuation[node]))

    def true_loads(self) -> np.ndarray:
        """Vector of instantaneous ground-truth loads."""
        return np.maximum(0.0, self.base_load + self._fluctuation)

    def measured_loads(self) -> np.ndarray:
        """Vector of EWMA-smoothed loads for all nodes."""
        return np.array([e.value for e in self._ewmas])

    def advance(self, steps: int = 1) -> None:
        """Advance the load processes by ``steps`` epochs.

        Each step applies one OU update to the fluctuation component and
        folds the resulting instantaneous load into each node's EWMA.
        """
        for _ in range(int(steps)):
            noise = self._rng.normal(0.0, self.volatility, size=self.n)
            self._fluctuation += -self.reversion * self._fluctuation + noise
            for i in range(self.n):
                self._ewmas[i].update(self.true_load(i))
