"""Input-validation helpers with consistent, informative error messages."""

from __future__ import annotations

import numpy as np


class ValidationError(ValueError):
    """Raised when a caller supplies an invalid argument."""


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is strictly positive; return it as ``float``."""
    value = float(value)
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Ensure ``value`` is >= 0; return it as ``float``."""
    value = float(value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` lies in ``[0, 1]``; return it as ``float``."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return value


def check_matrix_square(matrix: np.ndarray, name: str) -> np.ndarray:
    """Ensure ``matrix`` is a 2-D square numpy array; return it as float64."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{name} must be a square 2-D matrix, got shape {arr.shape}"
        )
    return arr


def check_index(index: int, size: int, name: str) -> int:
    """Ensure ``index`` is a valid position in a container of ``size``."""
    index = int(index)
    if not 0 <= index < size:
        raise ValidationError(f"{name} must be in [0, {size}), got {index}")
    return index
