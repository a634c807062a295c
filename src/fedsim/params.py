"""Flat float64 parameter vectors.

Every model, client update, and server-optimizer state in the simulator
is a :class:`ParamVector`: an immutable, finite, one-dimensional float64
array.  Keeping a single flat representation makes the update rules
(momentum, preconditioning, control variates) pure array arithmetic and
makes bit-for-bit reproducibility checks trivial.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np


class NonFiniteError(ArithmeticError):
    """Raised when a vector operation would produce or store NaN/Inf."""


def _frozen_finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError("vector contains NaN or Inf")
    arr.setflags(write=False)
    return arr


class ParamVector:
    """Immutable flat vector of float64 values.

    The wrapped array is validated as finite at construction and marked
    read-only, so any ParamVector in circulation is safe to share across
    threads and reuse without defensive copies.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float] | np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"expected a flat vector, got array of shape {arr.shape}")
        object.__setattr__(self, "values", _frozen_finite(arr.copy()))

    @classmethod
    def _own(cls, arr: np.ndarray) -> "ParamVector":
        """Wrap a freshly computed 1-D float64 array without copying it.

        Only for arrays nothing else references: the caller hands
        ``arr`` over, and it is checked finite and marked read-only here.
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", _frozen_finite(arr))
        return vec

    @classmethod
    def _own_rows(cls, arr: np.ndarray) -> list["ParamVector"]:
        """Wrap each row of a freshly computed 2-D float64 array without
        copying it.

        The same hand-over as ``_own``: the whole array is checked finite
        once and marked read-only before any row view is taken, so no
        row can be made writeable again.
        """
        rows = []
        for row in _frozen_finite(arr):
            vec = object.__new__(cls)
            object.__setattr__(vec, "values", row)
            rows.append(vec)
        return rows

    @classmethod
    def zeros(cls, length: int) -> "ParamVector":
        if length < 1:
            raise ValueError(f"vector length must be >= 1, got {length}")
        return cls(np.zeros(length, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParamVector(len={len(self)})"

    def __setattr__(self, name, value):
        raise AttributeError("ParamVector is immutable")

    def same_bits(self, other: "ParamVector") -> bool:
        """True when both vectors are byte-identical (the strictest equality)."""
        return self.values.tobytes() == other.values.tobytes()
