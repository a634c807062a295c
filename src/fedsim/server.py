"""Server-side aggregation and parameter updates.

Aggregation turns the selected clients' deltas into one pseudo-gradient:
each delta weighted by the client's share of the round's samples.  When
every update carries a coefficient norm (FedNova), each delta is first
divided by it (undoing how many effective steps that client took) and
the sum rescaled by the weighted mean norm, so clients with more local
steps no longer dominate the direction.  Mixed rounds are rejected.

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
from typing import Iterable

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


def _participant_weights(updates: list[ClientUpdate]) -> np.ndarray:
    if not updates:
        raise ValueError("aggregate needs at least one client update")
    sizes = np.array([u.num_samples for u in updates], dtype=np.float64)
    if (sizes <= 0).any():
        raise ValueError("client updates must carry positive sample counts")
    length = len(updates[0].delta)
    for u in updates:
        if len(u.delta) != length:
            raise ValueError("client deltas disagree on parameter count")
    return sizes / sizes.sum()


def _weighted_sum(weights: np.ndarray, vectors: Iterable[np.ndarray], length: int) -> np.ndarray:
    """sum_i weights[i] * vectors[i], added in order into zeros, one vector at a time."""
    acc = np.zeros(length)
    for wgt, vec in zip(weights, vectors):
        acc += wgt * vec
    return acc


def aggregate(updates: list[ClientUpdate]) -> ParamVector:
    """Combine client deltas into one pseudo-gradient (order as given)."""
    weights = _participant_weights(updates)
    length = len(updates[0].delta)
    norms = [u.coeff_norm for u in updates]
    if all(norm is None for norm in norms):
        return ParamVector._own(_weighted_sum(weights, (u.delta.values for u in updates), length))
    for u in updates:
        if u.coeff_norm is None or not (u.coeff_norm > 0):
            raise ValueError(
                f"normalized aggregation needs a positive coeff_norm on every update "
                f"(client {u.client_id} has {u.coeff_norm!r})"
            )
    acc = _weighted_sum(weights, (u.delta.values / u.coeff_norm for u in updates), length)
    acc *= float(np.dot(weights, norms))
    return ParamVector._own(acc)


def aggregate_control(updates: list[ClientUpdate]) -> ParamVector:
    """Weighted average of the clients' control-variate differences."""
    weights = _participant_weights(updates)
    for u in updates:
        if u.delta_control is None:
            raise ValueError(f"update from client {u.client_id} carries no control difference")
    deltas = (u.delta_control.values for u in updates)
    return ParamVector._own(_weighted_sum(weights, deltas, len(updates[0].delta_control)))


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
