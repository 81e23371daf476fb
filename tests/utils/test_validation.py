"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.errors import NotSymmetricError, ValidationError
from repro.utils.validation import (
    as_float_vector,
    as_square_matrix,
    check_symmetric,
    require,
    require_index_array,
    require_positive,
)


def test_require_passes_and_fails():
    require(True, "fine")
    with pytest.raises(ValidationError, match="broken"):
        require(False, "broken")


def test_as_float_vector_coercion_and_length():
    v = as_float_vector([1, 2, 3], "v")
    assert v.dtype == np.float64 and v.shape == (3,)
    with pytest.raises(ValidationError, match="length 4"):
        as_float_vector([1, 2, 3], "v", size=4)


def test_as_float_vector_rejects_matrix_and_nan():
    with pytest.raises(ValidationError, match="1-D"):
        as_float_vector(np.zeros((2, 2)), "v")
    with pytest.raises(ValidationError, match="non-finite"):
        as_float_vector([1.0, np.nan], "v")


def test_as_square_matrix():
    m = as_square_matrix([[1, 2], [3, 4]], "m")
    assert m.shape == (2, 2)
    with pytest.raises(ValidationError):
        as_square_matrix(np.zeros((2, 3)), "m")


def test_check_symmetric_accepts_and_rejects():
    check_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    check_symmetric(np.zeros((3, 3)))  # zero matrix is fine
    with pytest.raises(NotSymmetricError):
        check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]), "bad")


def test_check_symmetric_relative_tolerance():
    a = np.array([[1e6, 1.0], [1.0 + 1e-8, 1e6]])
    check_symmetric(a)  # deviation tiny relative to scale


def test_require_positive():
    assert require_positive(2.5, "z") == 2.5
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            require_positive(bad, "z")


def test_require_index_array_bounds():
    idx = require_index_array([0, 2, 1], "idx", upper=3)
    assert idx.dtype == np.int64
    with pytest.raises(ValidationError):
        require_index_array([0, 3], "idx", upper=3)
    with pytest.raises(ValidationError):
        require_index_array([-1], "idx", upper=3)
    with pytest.raises(ValidationError):
        require_index_array([], "idx", upper=3, allow_empty=False)
