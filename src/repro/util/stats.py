"""Statistics helpers used throughout the experiments.

The paper reports the mean of per-node costs together with the
95th-percentile confidence interval; :func:`mean_and_ci` implements exactly
that.  :class:`Ewma` reproduces the exponentially-weighted moving average
used for PlanetLab CPU load smoothing (Section 4.1 of the paper).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np


class Ewma:
    """Exponentially-weighted moving average.

    Parameters
    ----------
    alpha:
        Smoothing factor in ``(0, 1]``.  Higher values weight recent
        samples more heavily.
    initial:
        Optional initial value; if ``None`` the first observation seeds
        the average.
    """

    def __init__(self, alpha: float = 0.2, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._value: Optional[float] = initial
        self._count = 0

    @property
    def value(self) -> float:
        """Current smoothed value (raises if no samples observed)."""
        if self._value is None:
            raise ValueError("EWMA has no observations yet")
        return self._value

    @property
    def count(self) -> int:
        """Number of samples folded into the average."""
        return self._count

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new value."""
        sample = float(sample)
        if self._value is None:
            self._value = sample
        else:
            self._value = self.alpha * sample + (1.0 - self.alpha) * self._value
        self._count += 1
        return self._value

    def reset(self, initial: Optional[float] = None) -> None:
        """Discard all state, optionally re-seeding with ``initial``."""
        self._value = initial
        self._count = 0


# Two-sided critical values for the normal approximation.
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> Tuple[float, float]:
    """Return the half-width symmetric confidence interval of the mean.

    Uses the normal approximation, matching the paper's reporting of
    "95th-percentile confidence intervals" around per-node mean costs.

    Returns ``(low, high)``; degenerate (mean, mean) for < 2 samples.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("confidence_interval needs at least one sample")
    mean = float(arr.mean())
    if arr.size < 2:
        return (mean, mean)
    z = _Z_VALUES.get(round(level, 2))
    if z is None:
        raise ValueError(f"unsupported confidence level {level}")
    half = z * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return (mean - half, mean + half)


def mean_and_ci(
    samples: Sequence[float], level: float = 0.95
) -> Tuple[float, float]:
    """Return ``(mean, half_width)`` of the confidence interval."""
    arr = np.asarray(list(samples), dtype=float)
    low, high = confidence_interval(arr, level=level)
    return (float(arr.mean()), (high - low) / 2.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (q in [0, 100]) of ``samples``."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("percentile needs at least one sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return float(np.percentile(arr, q))


def summarize(samples: Sequence[float]) -> dict:
    """Return a dictionary with common summary statistics.

    Keys: ``count``, ``mean``, ``std``, ``min``, ``p50``, ``p95``, ``max``,
    ``ci95`` (half-width).
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("summarize needs at least one sample")
    mean, half = mean_and_ci(arr)
    return {
        "count": int(arr.size),
        "mean": mean,
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
        "ci95": half,
    }
