"""Server-side aggregation and parameter updates.

Aggregation turns the selected clients' deltas into one pseudo-gradient:
each delta weighted by the client's share of the round's samples.  When
every update carries a coefficient norm (FedNova), each delta is first
divided by it (undoing how many effective steps that client took) and
the sum rescaled by the weighted mean norm, so clients with more local
steps no longer dominate the direction.  Mixed rounds are rejected.
Under scaf the clients' control differences are averaged the same way.

The sums are folds: a ``RoundSum``, built from the round's sample counts
before any client trains, adds each update into running sums in sampling
order, so a round need hold only the updates of the cohort that just
finished.  ``aggregate`` and ``aggregate_control`` finish a fold; given a
list of updates, they fold it first.

The pseudo-gradient then drives one of four server optimizers.  With
first-moment m and second-moment v (both zero-initialized):

    m <- beta1 * m + (1 - beta1) * delta
    adagrad: v <- v + delta^2
    adam:    v <- beta2 * v + (1 - beta2) * delta^2
    yogi:    v <- v - (1 - beta2) * delta^2 * sign(v - delta^2)
    w <- w + server_lr * m / (sqrt(v) + eps)

``sgd`` is simply w <- w + server_lr * delta and leaves m, v untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .params import ParamVector
from .client import ClientUpdate

SERVER_OPTIMIZERS = ("sgd", "adam", "adagrad", "yogi")


@dataclass(frozen=True)
class ServerConfig:
    opt_s: str = "sgd"
    server_lr: float | None = None
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.opt_s not in SERVER_OPTIMIZERS:
            raise ValueError(f"unknown opt_s {self.opt_s!r}; expected one of {SERVER_OPTIMIZERS}")
        if self.server_lr is not None and not (0.0 < self.server_lr < math.inf):
            raise ValueError(f"server_lr must be positive and finite, got {self.server_lr}")
        if not (0.0 <= self.beta1 < 1.0):
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not (0.0 <= self.beta2 < 1.0):
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if not (0.0 < self.eps < math.inf):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    @property
    def lr(self) -> float:
        """Effective server step size: 1.0 for sgd, 0.005 for the adaptive rules."""
        if self.server_lr is not None:
            return self.server_lr
        return 1.0 if self.opt_s == "sgd" else 0.005


@dataclass(frozen=True)
class ServerState:
    """Global params w, control variate c, moments m/v."""

    w: ParamVector
    c: ParamVector
    m: ParamVector
    v: ParamVector

    @classmethod
    def initial(cls, w: ParamVector) -> "ServerState":
        zero = ParamVector.zeros(len(w))
        return cls(w=w, c=zero, m=zero, v=zero)


class RoundSum:
    """A round's running weighted sums: sum_i w_i * delta_i (each delta over
    its coefficient norm when ``normalized``) and, when ``control``,
    sum_i w_i * delta_control_i, with w = sizes / sizes.sum().

    ``sizes`` are the round's sample counts in sampling order, and ``add``
    takes the updates in that order, each added into zeros in turn.
    """

    def __init__(self, sizes: Sequence[int], length: int, control: bool = False, normalized: bool = False):
        if len(sizes) == 0:
            raise ValueError("aggregate needs at least one client update")
        counts = np.array(sizes, dtype=np.float64)
        if (counts <= 0).any():
            raise ValueError("client updates must carry positive sample counts")
        self.weights = counts / counts.sum()
        self.normalized = normalized
        self.norms: list[float] = []
        self.delta = np.zeros(length)
        self.control = np.zeros(length) if control else None
        self.count = 0
        self.finished: set[str] = set()

    def add(self, u: ClientUpdate) -> None:
        if self.count == len(self.weights):
            raise ValueError(f"round sum already holds {self.count} of {len(self.weights)} updates")
        if len(u.delta) != len(self.delta):
            raise ValueError("client deltas disagree on parameter count")
        wgt = self.weights[self.count]
        if self.normalized:
            if u.coeff_norm is None or not (u.coeff_norm > 0):
                raise ValueError(
                    f"normalized aggregation needs a positive coeff_norm on every update "
                    f"(client {u.client_id} has {u.coeff_norm!r})"
                )
            self.delta += wgt * (u.delta.values / u.coeff_norm)
            self.norms.append(u.coeff_norm)
        else:
            self.delta += wgt * u.delta.values
        if self.control is not None:
            if u.delta_control is None:
                raise ValueError(f"update from client {u.client_id} carries no control difference")
            self.control += wgt * u.delta_control.values
        self.count += 1


def _fold(updates: RoundSum | list[ClientUpdate], control: bool) -> RoundSum:
    if isinstance(updates, RoundSum):
        if updates.count != len(updates.weights):
            raise ValueError(f"round sum holds {updates.count} of {len(updates.weights)} updates")
        part = "control" if control else "delta"
        if part in updates.finished:
            raise ValueError(f"round sum's {part} sum was already finished")
        updates.finished.add(part)
        return updates
    sums = RoundSum(
        [u.num_samples for u in updates],
        len(updates[0].delta) if updates else 0,
        control=control,
        normalized=any(u.coeff_norm is not None for u in updates),
    )
    for u in updates:
        sums.add(u)
    return sums


def aggregate(updates: RoundSum | list[ClientUpdate]) -> ParamVector:
    """The round's pseudo-gradient: a finished fold, or a list of updates
    folded in the order given.  A fold's sum is finished once."""
    sums = _fold(updates, control=False)
    if sums.normalized:
        sums.delta *= float(np.dot(sums.weights, sums.norms))
    return ParamVector._own(sums.delta)


def aggregate_control(updates: RoundSum | list[ClientUpdate]) -> ParamVector:
    """Weighted average of the clients' control-variate differences."""
    sums = _fold(updates, control=True)
    if sums.control is None:
        raise ValueError("this round sum holds no control differences")
    return ParamVector._own(sums.control)


def server_step(state: ServerState, delta: ParamVector, cfg: ServerConfig) -> ServerState:
    """Apply one server-optimizer update; returns the new state."""
    if len(delta) != len(state.w):
        raise ValueError(f"delta length {len(delta)} does not match params {len(state.w)}")
    # An overflowing step (and the inf/inf or inf - inf that an adaptive
    # rule then computes) yields a non-finite vector, which ParamVector
    # reports as NonFiniteError (divergence), so numpy's own warning is
    # redundant.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.opt_s == "sgd":
            new_w = ParamVector._own(state.w.values + cfg.lr * delta.values)
            return replace(state, w=new_w)

        d = delta.values
        m = cfg.beta1 * state.m.values + (1.0 - cfg.beta1) * d
        d2 = d * d
        if cfg.opt_s == "adagrad":
            v = state.v.values + d2
        elif cfg.opt_s == "yogi":
            v = state.v.values - (1.0 - cfg.beta2) * d2 * np.sign(state.v.values - d2)
        else:
            v = cfg.beta2 * state.v.values + (1.0 - cfg.beta2) * d2
        new_w = state.w.values + cfg.lr * m / (np.sqrt(v) + cfg.eps)
    return replace(
        state,
        w=ParamVector._own(new_w),
        m=ParamVector._own(m),
        v=ParamVector._own(v),
    )
