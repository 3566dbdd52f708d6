"""Tests for validation helpers."""

import numpy as np
import pytest

from repro.util.validation import (
    ValidationError,
    check_index,
    check_matrix_square,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestScalarChecks:
    def test_check_positive_ok(self):
        assert check_positive(3, "x") == 3.0

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative(-1, "x")

    def test_check_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValidationError):
            check_probability(1.5, "p")

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="epsilon"):
            check_positive(-2, "epsilon")


class TestMatrixAndIndex:
    def test_square_matrix_ok(self):
        arr = check_matrix_square([[1, 2], [3, 4]], "m")
        assert arr.shape == (2, 2)
        assert arr.dtype == float

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            check_matrix_square(np.zeros((2, 3)), "m")

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            check_matrix_square(np.zeros(4), "m")

    def test_check_index_ok(self):
        assert check_index(0, 5, "i") == 0
        assert check_index(4, 5, "i") == 4

    def test_check_index_out_of_range(self):
        with pytest.raises(ValidationError):
            check_index(5, 5, "i")
        with pytest.raises(ValidationError):
            check_index(-1, 5, "i")
