"""Shared utilities: RNG plumbing, statistics, validation, and simulation time.

These helpers are deliberately small and dependency-light; every other
subpackage of :mod:`repro` builds on them.
"""

from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.util.stats import (
    Ewma,
    confidence_interval,
    mean_and_ci,
    percentile,
    summarize,
)
from repro.util.validation import (
    ValidationError,
    check_matrix_square,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.util.simclock import SimClock

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "Ewma",
    "confidence_interval",
    "mean_and_ci",
    "percentile",
    "summarize",
    "ValidationError",
    "check_matrix_square",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "SimClock",
]
