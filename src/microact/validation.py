"""Input validation helpers shared by the estimators and stage functions."""

from __future__ import annotations

import inspect
import math
from typing import Sequence

import numpy as np


class NotFittedError(ValueError, AttributeError):
    """Raised when an estimator is used before ``fit``."""


class ParamsMixin:
    """``get_params``/``set_params`` read off the ``__init__`` signature.

    Follows the scikit-learn estimator contract: every keyword parameter of
    ``__init__`` is stored unchanged as an attribute of the same name.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        return list(inspect.signature(cls.__init__).parameters)[1:]  # drop self

    def get_params(self, deep: bool = True) -> dict:
        """``{name: value}`` in signature order; ``deep`` is accepted for
        compatibility, no parameter here is itself an estimator."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set the named parameters and return self; an unknown name raises
        ValueError before anything is set."""
        valid = self._param_names()
        unknown = [name for name in params if name not in valid]
        if unknown:
            raise ValueError(f"invalid parameter(s) {unknown} for "
                             f"{type(self).__name__}; valid: {valid}")
        for name, value in params.items():
            setattr(self, name, value)
        return self


def check_array(X, *, ndim: int = 2, dtype=np.float64, name: str = "X",
                allow_empty: bool = False) -> np.ndarray:
    """Coerce to a contiguous float array and reject NaN/inf.

    Parameters
    ----------
    X : array-like
    ndim : expected number of dimensions (1 or 2)
    name : label used in error messages
    allow_empty : permit a zero-length first axis
    """
    arr = np.ascontiguousarray(X, dtype=dtype)
    if arr.ndim != ndim:
        if ndim == 2 and arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        else:
            raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or inf")
    return arr


def check_fitted(estimator, attributes: Sequence[str]) -> None:
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; "
            f"call 'fit' before using this method (missing {missing})."
        )


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    iv = int(value)
    if iv != value or iv < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return iv


def check_fraction(value, name: str, *, closed: bool = True) -> float:
    fv = float(value)
    ok = (0.0 <= fv <= 1.0) if closed else (0.0 < fv < 1.0)
    if not ok:
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
