"""Pairwise delay spaces.

A :class:`DelaySpace` holds the ground-truth one-way delay (in milliseconds)
between every ordered pair of underlay endpoints.  It is the quantity that
the paper's ping measurements estimate (RTT/2) and that the virtual
coordinate system approximates.  Delay spaces can be generated synthetically
(:mod:`repro.netsim.planetlab`, :mod:`repro.netsim.topology`), loaded from a
trace file, or built directly from a matrix.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import ValidationError, check_matrix_square


class DelaySpace:
    """Ground-truth one-way delays between ``n`` endpoints.

    Parameters
    ----------
    matrix:
        ``n x n`` array of one-way delays in milliseconds.  The diagonal is
        forced to zero.  Entries may be asymmetric (``d_ij != d_ji``), as in
        the paper's directed-edge model.
    labels:
        Optional human-readable endpoint names (e.g. PlanetLab site names).
    jitter_std:
        Standard deviation (ms) of the per-sample measurement jitter applied
        by :meth:`sample_delay`; models transient queueing variation.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        labels: Optional[Sequence[str]] = None,
        jitter_std: float = 0.0,
    ):
        matrix = check_matrix_square(matrix, "matrix")
        if np.any(matrix < 0):
            raise ValidationError("delay matrix entries must be non-negative")
        matrix = matrix.copy()
        np.fill_diagonal(matrix, 0.0)
        self._matrix = matrix
        self.jitter_std = float(jitter_std)
        if self.jitter_std < 0:
            raise ValidationError("jitter_std must be non-negative")
        n = matrix.shape[0]
        if labels is None:
            labels = [f"node-{i}" for i in range(n)]
        labels = list(labels)
        if len(labels) != n:
            raise ValidationError(
                f"expected {n} labels, got {len(labels)}"
            )
        self.labels: List[str] = labels

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of endpoints."""
        return self._matrix.shape[0]

    def __len__(self) -> int:
        return self.size

    @property
    def matrix(self) -> np.ndarray:
        """A read-only view of the full delay matrix (ms)."""
        view = self._matrix.view()
        view.setflags(write=False)
        return view

    def delay(self, src: int, dst: int) -> float:
        """Ground-truth one-way delay from ``src`` to ``dst`` in ms."""
        return float(self._matrix[src, dst])

    def rtt(self, src: int, dst: int) -> float:
        """Ground-truth round-trip time between ``src`` and ``dst`` in ms."""
        return float(self._matrix[src, dst] + self._matrix[dst, src])

    def mean_delay(self) -> float:
        """Mean off-diagonal delay (ms)."""
        n = self.size
        if n < 2:
            return 0.0
        mask = ~np.eye(n, dtype=bool)
        return float(self._matrix[mask].mean())

    # ------------------------------------------------------------------ #
    # Sampling (what a measurement would see)
    # ------------------------------------------------------------------ #
    def sample_delay(
        self, src: int, dst: int, rng: SeedLike = None
    ) -> float:
        """Return a single noisy observation of the ``src -> dst`` delay.

        The observation is the ground truth plus zero-mean Gaussian jitter
        with standard deviation ``jitter_std``, truncated at zero.
        """
        base = self.delay(src, dst)
        if self.jitter_std == 0.0:
            return base
        rng = as_generator(rng)
        return max(0.0, base + float(rng.normal(0.0, self.jitter_std)))

    def sample_rtt(self, src: int, dst: int, rng: SeedLike = None) -> float:
        """Return a single noisy RTT observation."""
        rng = as_generator(rng)
        fwd = self.sample_delay(src, dst, rng)
        back = self.sample_delay(dst, src, rng)
        return fwd + back

    # ------------------------------------------------------------------ #
    # Derivation / persistence
    # ------------------------------------------------------------------ #
    def perturbed(
        self, relative_std: float, rng: SeedLike = None
    ) -> "DelaySpace":
        """Return a copy whose entries are multiplied by log-normal noise.

        Used to emulate slow drift of Internet path delays between wiring
        epochs (the dynamics that cause BR nodes to keep re-wiring in the
        paper's Fig. 3).
        """
        if relative_std < 0:
            raise ValidationError("relative_std must be non-negative")
        rng = as_generator(rng)
        if relative_std == 0.0:
            return DelaySpace(
                self._matrix.copy(), labels=self.labels, jitter_std=self.jitter_std
            )
        sigma = np.sqrt(np.log1p(relative_std**2))
        factors = rng.lognormal(mean=-(sigma**2) / 2.0, sigma=sigma, size=self._matrix.shape)
        new = self._matrix * factors
        np.fill_diagonal(new, 0.0)
        return DelaySpace(new, labels=self.labels, jitter_std=self.jitter_std)

    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (JSON-compatible)."""
        return {
            "labels": self.labels,
            "jitter_std": self.jitter_std,
            "matrix": self._matrix.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DelaySpace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(data["matrix"], dtype=float),
            labels=data.get("labels"),
            jitter_std=data.get("jitter_std", 0.0),
        )

    @classmethod
    def from_coordinates(
        cls,
        points: np.ndarray,
        *,
        propagation_ms_per_unit: float = 1.0,
        access_delay_ms: Union[float, np.ndarray] = 0.0,
        asymmetry_std: float = 0.0,
        jitter_std: float = 0.0,
        labels: Optional[Sequence[str]] = None,
        rng: SeedLike = None,
    ) -> "DelaySpace":
        """Build a delay space from endpoint coordinates.

        Each pairwise delay is the Euclidean distance scaled by
        ``propagation_ms_per_unit`` plus the access delays of both
        endpoints, optionally perturbed by multiplicative log-normal noise
        with relative standard deviation ``asymmetry_std`` (applied
        independently per direction, yielding an asymmetric matrix).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("points must be a 2-D array (n, dims)")
        n = pts.shape[0]
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1)) * float(propagation_ms_per_unit)
        access = np.asarray(access_delay_ms, dtype=float)
        if access.ndim == 0:
            access = np.full(n, float(access))
        if access.shape != (n,):
            raise ValidationError("access_delay_ms must be scalar or length-n")
        dist = dist + access[:, None] + access[None, :]
        if asymmetry_std > 0:
            rng = as_generator(rng)
            sigma = np.sqrt(np.log1p(asymmetry_std**2))
            noise = rng.lognormal(-(sigma**2) / 2.0, sigma, size=(n, n))
            dist = dist * noise
        np.fill_diagonal(dist, 0.0)
        return cls(dist, labels=labels, jitter_std=jitter_std)
