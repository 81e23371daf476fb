"""Small argument-validation helpers shared across the package.

These raise :class:`repro.errors.ValidationError` with messages that name
the offending argument, which keeps the public API's error reporting
uniform without repeating boilerplate in every constructor.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotSymmetricError, ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition*."""
    if not condition:
        raise ValidationError(message)


def as_float_vector(x, name: str, size: int | None = None) -> np.ndarray:
    """Coerce *x* to a contiguous 1-D float64 array, checking its length."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise ValidationError(
            f"{name} must have length {size}, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_square_matrix(a, name: str) -> np.ndarray:
    """Coerce *a* to a 2-D square float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square 2-D, got shape {arr.shape}")
    return arr


def check_symmetric(a: np.ndarray, name: str = "matrix", rtol: float = 1e-10) -> None:
    """Raise :class:`NotSymmetricError` if *a* deviates from its transpose.

    The tolerance is relative to the largest magnitude entry so that
    graph-scale weights (10⁻³…10³) are treated uniformly.
    """
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return
    dev = float(np.max(np.abs(a - a.T)))
    if dev > rtol * scale:
        raise NotSymmetricError(
            f"{name} is not symmetric: max |A - A^T| = {dev:.3e} "
            f"(scale {scale:.3e}, rtol {rtol:g})"
        )


def require_positive(value: float, name: str) -> float:
    """Return *value* as float, requiring it to be finite and > 0."""
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return v


def require_index_array(
    idx, name: str, *, upper: int, allow_empty: bool = True
) -> np.ndarray:
    """Coerce *idx* to a validated int64 index array in ``[0, upper)``."""
    arr = np.asarray(idx, dtype=np.int64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if arr.size and (arr.min() < 0 or arr.max() >= upper):
        raise ValidationError(
            f"{name} entries must lie in [0, {upper}), got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return arr
