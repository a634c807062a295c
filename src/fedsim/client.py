"""Client-side local training.

One round of local work is a pure function of (global params, control
variates, shard, config, round index, seed): E epochs of mini-batch SGD
with momentum and decoupled weight decay, optionally augmented by one of
three drift-mitigation mechanisms selected by ``opt_c``:

  - ``sgd``:  plain local SGD (FedAvg-style client).
  - ``prox``: proximal pull mu * (w_local - w_global) added to each
    mini-batch gradient, folded in before momentum.
  - ``scaf``: control-variate correction (c_global - c_local) added to
    each mini-batch gradient; the client also returns its updated
    control variate and the difference the server needs.
  - ``nova``: plain local steps, but the update carries the L1 norm of
    the momentum accumulation coefficients so the server can normalize
    away heterogeneous step counts.

Per step, with ghat the corrected mini-batch gradient:

    u <- momentum * u + (ghat + weight_decay * w)
    w <- w - lr * u

The momentum buffer starts at zero every round.  Mechanisms that are
switched off (mu = 0, momentum = 0, weight decay = 0) skip their branch
entirely, so disabling one reproduces the plain path bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import epoch_batches
from .model import Batch, ModelSpec, loss_and_grad, validate_xy
from .params import NonFiniteError, ParamVector

CLIENT_OPTIMIZERS = ("sgd", "prox", "scaf", "nova")
CONTROL_OPTIONS = ("I", "II")


class DivergenceError(RuntimeError):
    """Training produced non-finite parameters; carries where it happened."""

    def __init__(self, round_idx: int, client_id: int | None, step: int | None, detail: str):
        self.round_idx = round_idx
        self.client_id = client_id
        self.step = step
        where = f"round {round_idx}"
        if client_id is not None:
            where += f", client {client_id}"
        if step is not None:
            where += f", local step {step}"
        super().__init__(f"divergence at {where}: {detail}")


@dataclass(frozen=True)
class ClientConfig:
    opt_c: str = "sgd"
    local_epochs: int = 1
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    prox_mu: float = 0.005
    control_option: str = "I"

    def __post_init__(self) -> None:
        if self.opt_c not in CLIENT_OPTIMIZERS:
            raise ValueError(
                f"unknown opt_c {self.opt_c!r}; expected one of {CLIENT_OPTIMIZERS}"
            )
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not (0.0 <= self.prox_mu < math.inf):
            raise ValueError(f"prox_mu must be >= 0 and finite, got {self.prox_mu}")
        if self.control_option not in CONTROL_OPTIONS:
            raise ValueError(
                f"control_option must be one of {CONTROL_OPTIONS}, got {self.control_option!r}"
            )


@dataclass(frozen=True)
class ClientShard:
    """One client's local data, fixed for the whole simulation.

    The arrays are validated once, here, by ``validate_xy``; every batch
    cut from them later is trusted.
    """

    client_id: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats, labs = validate_xy(self.features, self.labels)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])

    def as_batch(self) -> Batch:
        return Batch._of_rows(self.features, self.labels)


@dataclass(frozen=True)
class ClientUpdate:
    """What a client sends back after local training.

    delta is (w_final - w_global); delta_control / coeff_norm are only
    populated for the scaf / nova mechanisms respectively; train_loss is
    the mean mini-batch loss over the final local epoch.
    """

    client_id: int
    delta: ParamVector
    num_samples: int
    step_count: int
    train_loss: float
    delta_control: ParamVector | None = None
    coeff_norm: float | None = None


def accum_coeff_norm(momentum: float, steps: int) -> float:
    """L1 norm of the per-step coefficients accumulated by momentum SGD.

    With u_0 = 0 and unit gradients, total displacement after ``steps``
    updates is sum_{t=1..steps} (1 - rho^t) / (1 - rho); this closed form
    equals that sum (and reduces to ``steps`` when momentum is zero).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if momentum == 0.0:
        return float(steps)
    rho = momentum
    return (steps - rho * (1.0 - rho**steps) / (1.0 - rho)) / (1.0 - rho)


def update_control_variate(
    option: str,
    spec: ModelSpec,
    shard: ClientShard,
    global_w: ParamVector,
    local_w: ParamVector,
    global_c: ParamVector,
    local_c: ParamVector,
    steps: int,
    lr: float,
) -> ParamVector:
    """New client control variate.

    Option I re-evaluates the full local gradient at the round-start
    global params (one extra pass, no stale terms).  Option II reuses
    quantities already computed: c_local - c_global + (w_global -
    w_local) / (steps * lr).
    """
    if option not in CONTROL_OPTIONS:
        raise ValueError(f"control option must be one of {CONTROL_OPTIONS}, got {option!r}")
    if option == "I":
        _, grad = loss_and_grad(spec, global_w, shard.as_batch())
        return grad
    if steps < 1 or not (lr > 0):
        raise ValueError("option II needs steps >= 1 and lr > 0")
    return ParamVector(
        local_c.values - global_c.values + (global_w.values - local_w.values) / (steps * lr)
    )


def local_train(
    spec: ModelSpec,
    global_w: ParamVector,
    shard: ClientShard,
    cfg: ClientConfig,
    round_idx: int,
    seed: int,
    global_c: ParamVector | None = None,
    local_c: ParamVector | None = None,
) -> tuple[ClientUpdate, ParamVector | None]:
    """Run one round of local training; returns (update, new control variate).

    The new control variate is None unless opt_c == "scaf".  Raises
    DivergenceError as soon as any step yields non-finite parameters.
    """
    if cfg.opt_c == "scaf":
        if global_c is None or local_c is None:
            raise ValueError("scaf requires both global and local control variates")
        correction = global_c.values - local_c.values
    else:
        correction = None
    prox_mu = cfg.prox_mu if cfg.opt_c == "prox" else 0.0

    w0 = global_w.values
    w = global_w
    u = np.zeros_like(w0)
    step = 0
    last_epoch_losses: list[float] = []
    indices = np.arange(shard.num_samples)
    # Overflow shows up as a non-finite loss or w and is reported as
    # DivergenceError, so numpy's own warning is redundant.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.local_epochs):
            final_epoch = epoch == cfg.local_epochs - 1
            for batch_idx in epoch_batches(indices, cfg.batch_size, epoch, seed):
                batch = Batch._of_rows(shard.features[batch_idx], shard.labels[batch_idx])
                try:
                    loss, grad = loss_and_grad(spec, w, batch)
                except NonFiniteError as exc:
                    raise DivergenceError(round_idx, shard.client_id, step, str(exc)) from exc
                g = grad.values
                if correction is not None:
                    g = g + correction
                elif prox_mu != 0.0:
                    g = g + prox_mu * (w.values - w0)
                if cfg.weight_decay != 0.0:
                    g = g + cfg.weight_decay * w.values
                u = cfg.momentum * u + g if cfg.momentum != 0.0 else g
                step += 1
                try:
                    w = ParamVector._own(w.values - cfg.lr * u)
                except NonFiniteError:
                    raise DivergenceError(
                        round_idx, shard.client_id, step, "parameters became NaN or Inf"
                    ) from None
                if final_epoch:
                    last_epoch_losses.append(loss)

        new_local_c: ParamVector | None = None
        delta_control: ParamVector | None = None
        try:
            delta = ParamVector._own(w.values - w0)
            if cfg.opt_c == "scaf":
                new_local_c = update_control_variate(
                    cfg.control_option,
                    spec,
                    shard,
                    global_w,
                    w,
                    global_c,
                    local_c,
                    steps=step,
                    lr=cfg.lr,
                )
                delta_control = ParamVector(new_local_c.values - local_c.values)
        except NonFiniteError as exc:
            raise DivergenceError(round_idx, shard.client_id, step, str(exc)) from exc

    update = ClientUpdate(
        client_id=shard.client_id,
        delta=delta,
        num_samples=shard.num_samples,
        step_count=step,
        train_loss=float(np.mean(last_epoch_losses)),
        delta_control=delta_control,
        coeff_norm=accum_coeff_norm(cfg.momentum, step) if cfg.opt_c == "nova" else None,
    )
    return update, new_local_c
