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

``train_cohort`` runs a round's clients side by side.  Their w and u
are rows of (clients x P) arrays.  At each local step index, the clients
whose next batch has the same size form a group: full batches form one
group, and partial last batches are grouped by their size.  Each group
takes one stacked ``loss_and_grad_rows`` call, and the step formulas
above apply row-wise.  Every client keeps its own batch stream
(``epoch_batches`` per epoch) and leaves the cohort when its batches run
out or its row stops being finite.  Each row gets the bits the client
would get alone, and a divergence names the client and step it would
name alone: the first diverging client in cohort order.  ``local_train``
is the cohort of one.  ``COHORT_BYTES`` caps a cohort's (clients x P)
arrays, so a wide model trains in cohorts of one.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import _read_only, epoch_batches
from .model import Batch, ModelSpec, loss_and_grad, loss_and_grad_rows, validate_xy
from .params import NonFiniteError, ParamVector

CLIENT_OPTIMIZERS = ("sgd", "prox", "scaf", "nova")
CONTROL_OPTIONS = ("I", "II")
#: Most bytes one (clients x parameters) float64 array of a cohort may
#: take.  Wider models train in smaller cohorts, down to one client.
COHORT_BYTES = 256 * 1024


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
    cut from them later is trusted.  They are kept as read-only views, so
    runs may share a shard, and the caller's own arrays stay writeable.
    """

    client_id: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats, labs = validate_xy(self.features, self.labels)
        object.__setattr__(self, "features", _read_only(feats))
        object.__setattr__(self, "labels", _read_only(labs))

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
    return ParamVector._own(
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
    This is ``train_cohort`` for a cohort of one.
    """
    local_cs = None if local_c is None else [local_c]
    return train_cohort(spec, global_w, [shard], cfg, round_idx, [seed], global_c, local_cs)[0]


def cohort_size(param_count: int) -> int:
    """Most clients one cohort holds for a model of ``param_count`` parameters."""
    return max(1, COHORT_BYTES // (8 * param_count))


def train_cohort(
    spec: ModelSpec,
    global_w: ParamVector,
    shards: Sequence[ClientShard],
    cfg: ClientConfig,
    round_idx: int,
    seeds: Sequence[int],
    global_c: ParamVector | None = None,
    local_cs: Sequence[ParamVector] | None = None,
) -> list[tuple[ClientUpdate, ParamVector | None]]:
    """Run one round of local training for every shard, side by side.

    Entry i is what ``local_train`` returns for shard i, seed i and
    control variate i alone, bit for bit.  If clients diverge, the
    DivergenceError raised is that of the first of them in ``shards``
    order, as if they had trained one after another.
    """
    scaf = cfg.opt_c == "scaf"
    if scaf and (global_c is None or local_cs is None):
        raise ValueError("scaf requires both global and local control variates")
    prox_mu = cfg.prox_mu if cfg.opt_c == "prox" else 0.0
    count = len(shards)
    size = cfg.batch_size
    w0 = global_w.values
    rows = np.repeat(w0[None], count, axis=0)
    moms = np.zeros_like(rows) if cfg.momentum != 0.0 else None
    corrections = None
    if scaf:
        corrections = np.empty_like(rows)
        for row, local_c in zip(corrections, local_cs):
            np.subtract(global_c.values, local_c.values, out=row)

    # The cohort's samples end to end, and each client's schedule over
    # them: order[i, t, :n] indexes client i's batch of size n at step t.
    feats = np.concatenate([shard.features for shard in shards])
    labels = np.concatenate([shard.labels for shard in shards])
    samples = [shard.num_samples for shard in shards]
    per_epoch = [-(-n // size) for n in samples]
    last_size = [n - (nb - 1) * size for n, nb in zip(samples, per_epoch)]
    steps = [cfg.local_epochs * nb for nb in per_epoch]
    width = min(size, max(samples))
    order = np.empty((count, max(steps), width), dtype=np.int64)
    offset = 0
    for i, (n, seed) in enumerate(zip(samples, seeds)):
        indices = np.arange(offset, offset + n)
        nb = per_epoch[i]
        for epoch in range(cfg.local_epochs):
            block = order[i, epoch * nb : (epoch + 1) * nb].reshape(-1)
            block[:n] = np.concatenate(epoch_batches(indices, size, epoch, seed))
        offset += n
    losses = np.empty((count, max(steps)))
    errors: list[DivergenceError | None] = [None] * count

    # Overflow shows up as a non-finite loss or w and is reported as
    # DivergenceError, so numpy's own warning is redundant.
    with np.errstate(over="ignore", invalid="ignore"):
        live = list(range(count))
        step = 0
        while live:
            groups: dict[int, list[int]] = {}
            for i in live:
                n = size if step % per_epoch[i] < per_epoch[i] - 1 else last_size[i]
                groups.setdefault(n, []).append(i)
            for n, members in groups.items():
                first, last = members[0], members[-1]
                # Consecutive rows are a view, so a lone client copies no row.
                view = last - first + 1 == len(members)
                sel = slice(first, last + 1) if view else members
                idx = order[sel, step, :n]
                w = rows[sel]
                row_losses, grad = loss_and_grad_rows(spec, w, feats[idx], labels[idx])
                g = grad
                if corrections is not None:
                    g = g + corrections[sel]
                elif prox_mu != 0.0:
                    g = g + prox_mu * (w - w0)
                if cfg.weight_decay != 0.0:
                    g = g + cfg.weight_decay * w
                if moms is not None:
                    u = moms[sel]
                    u *= cfg.momentum
                    u += g
                    g = u
                w -= cfg.lr * g
                if not view:
                    rows[sel] = w
                    if moms is not None:
                        moms[sel] = u
                losses[sel, step] = row_losses
                if not (np.isfinite(row_losses).all() and np.isfinite(w).all()):
                    for k, i in enumerate(members):
                        if not (np.isfinite(row_losses[k]) and np.isfinite(w[k]).all()):
                            errors[i] = _divergence(
                                round_idx, shards[i], step, row_losses[k], grad[k]
                            )
            step += 1
            live = [i for i in live if errors[i] is None and steps[i] > step]

        results = []
        for i, shard in enumerate(shards):
            if errors[i] is not None:
                raise errors[i]
            new_local_c: ParamVector | None = None
            delta_control: ParamVector | None = None
            try:
                delta = ParamVector._own(rows[i] - w0)
                if scaf:
                    new_local_c = update_control_variate(
                        cfg.control_option,
                        spec,
                        shard,
                        global_w,
                        ParamVector._own(rows[i]),
                        global_c,
                        local_cs[i],
                        steps=steps[i],
                        lr=cfg.lr,
                    )
                    delta_control = ParamVector._own(new_local_c.values - local_cs[i].values)
            except NonFiniteError as exc:
                raise DivergenceError(round_idx, shard.client_id, steps[i], str(exc)) from exc
            update = ClientUpdate(
                client_id=shard.client_id,
                delta=delta,
                num_samples=samples[i],
                step_count=steps[i],
                train_loss=float(np.mean(losses[i, steps[i] - per_epoch[i] : steps[i]])),
                delta_control=delta_control,
                coeff_norm=accum_coeff_norm(cfg.momentum, steps[i]) if cfg.opt_c == "nova" else None,
            )
            results.append((update, new_local_c))
    return results


def _divergence(round_idx, shard, step, loss, grad) -> DivergenceError:
    """The error a client alone would have raised at ``step`` for a row
    whose loss, gradient or new parameters are not all finite."""
    if not np.isfinite(loss):
        return DivergenceError(round_idx, shard.client_id, step, "loss is NaN or Inf")
    if not np.isfinite(grad).all():
        return DivergenceError(round_idx, shard.client_id, step, "vector contains NaN or Inf")
    return DivergenceError(round_idx, shard.client_id, step + 1, "parameters became NaN or Inf")
