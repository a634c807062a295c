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
        arr = arr.copy()
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("vector contains NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

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
