"""Input validation helpers shared by the model classes and stage functions."""

from __future__ import annotations

import math

import numpy as np


def check_array(X, *, name: str = "X") -> np.ndarray:
    """Coerce to a contiguous 2-D float64 array and reject NaN/inf.

    A 1-D input becomes one column; an empty array is rejected.  ``name``
    labels the error messages.
    """
    arr = np.ascontiguousarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or inf")
    return arr


def row_dots(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A[i] @ b for i in rows]`` (``b`` one vector, or one per row) as
    one stack of 1-D dots, each bit-identical to ``A[i] @ b``; ``A @ b``
    would use a matrix-vector kernel that can round differently."""
    return np.matmul(A[:, None, :], b[..., None])[:, 0, 0]


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    iv = int(value)
    if iv != value or iv < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return iv


def check_fraction(value, name: str) -> float:
    fv = float(value)
    if not 0.0 <= fv <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return fv


def check_bbox(bbox, name: str = "bbox") -> tuple[float, float, float, float]:
    vals = tuple(float(v) for v in bbox)
    if len(vals) != 4:
        raise ValueError(f"{name} must have 4 entries (x, y, w, h)")
    if vals[2] <= 0 or vals[3] <= 0:
        raise ValueError(f"{name} must have positive width and height, "
                         f"got {vals}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{name} contains NaN or inf")
    return vals
