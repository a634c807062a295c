"""Softmax classifiers over flat parameter vectors.

Two architectures share one interface: multinomial logistic regression
and a one-hidden-layer MLP (relu or tanh).  Parameters live in a single
:class:`~fedsim.params.ParamVector` laid out layer by layer, weights
before biases, weight matrices flattened row-major:

    logistic: [W (d*K), b (K)]
    mlp1:     [W1 (d*h), b1 (h), W2 (h*K), b2 (K)]

A ``ModelSpec`` computes that layout once, on first use: each layer's
(weight slice, bias slice, fan_in, fan_out) and ``param_count`` are kept
on the instance, outside its fields, so equality and hashing ignore them.

The loss is mean cross-entropy over the batch (softmax computed with
max-subtraction for stability), so gradient magnitudes are independent
of batch size.  One kernel computes it: ``_forward``, ``_cross_entropy``
and ``_backward`` over C stacked parameter rows, each with a batch of
its own size laid end to end as N samples; ``loss_and_grad``,
``mean_loss`` and ``evaluate`` are its one-row case.  The log-softmax
and its gradient run once over all N samples.  Each run of adjacent rows
whose batches share one size n goes through the layers on its own (one
stacked matmul per layer, still one gemm with M = n per row, bias adds,
activations, loss and bias-gradient sums, divisions by n), so every row
gets the bits it would get alone and a single run costs what one stacked
call did.  The kernel writes only its own temporaries (the log-softmax
and softmax in place) and never its inputs; on request it hands back
each row's gradient at the first layer's output, a copy.
``finite_diff_grad`` provides a slow central-difference oracle for
validating the analytic gradients.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import NonFiniteError, ParamVector
from .rng import seeded_rng

MODEL_KINDS = ("logistic", "mlp1")
ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; immutable and hashable."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int | None = None
    activation: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of the valid tokens {list(MODEL_KINDS)}, got {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "mlp1":
            if self.hidden_dim is None or self.hidden_dim < 1:
                raise ValueError(f"hidden_dim must be >= 1 for mlp1, got {self.hidden_dim}")
            if self.activation not in ACTIVATIONS:
                raise ValueError(
                    f"activation must be one of {ACTIVATIONS} for mlp1, got {self.activation!r}"
                )
        else:
            if self.hidden_dim is not None:
                raise ValueError(f"hidden_dim must be unset for logistic, got {self.hidden_dim}")
            if self.activation is not None:
                raise ValueError(f"activation must be unset for logistic, got {self.activation!r}")

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per layer, in storage order."""
        if self.kind == "logistic":
            return ((self.input_dim, self.num_classes),)
        return ((self.input_dim, self.hidden_dim), (self.hidden_dim, self.num_classes))

    @cached_property
    def layout(self) -> tuple[tuple[slice, slice, int, int], ...]:
        """(weight slice, bias slice, fan_in, fan_out) per layer of a flat
        parameter vector."""
        layers, off = [], 0
        for fan_in, fan_out in self.layer_shapes:
            end = off + fan_in * fan_out
            layers.append((slice(off, end), slice(end, end + fan_out), fan_in, fan_out))
            off = end + fan_out
        return tuple(layers)

    @cached_property
    def param_count(self) -> int:
        return self.layout[-1][1].stop


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Batch:
    """Labelled rows: finite float64 features (n >= 1, d) and non-negative
    int64 labels (n,), checked here once; rows cut from them are trusted.

    The arrays are kept as read-only views: runs may share a Batch, and
    the caller's own arrays stay writeable.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D (n, d), got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError(
                f"labels must be 1-D with one entry per row: {labs.shape} vs {feats.shape}"
            )
        if feats.shape[0] == 0:
            raise ValueError("need at least one sample")
        if not np.isfinite(feats).all():
            raise ValueError("features contain NaN or Inf")
        if not np.issubdtype(labs.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labs.dtype}")
        if labs.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "features", _read_only(feats))
        object.__setattr__(self, "labels", _read_only(labs.astype(np.int64, copy=False)))

    def __len__(self) -> int:
        return int(self.features.shape[0])


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Normal(0, 1/sqrt(fan_in)) weights, zero biases; deterministic in seed."""
    rng = seeded_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layer_shapes:
        parts.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(parts))


def _runs(sizes) -> list[tuple[slice, slice, int, int]]:
    """(rows, samples, row count, n) of each run of adjacent rows whose
    batches share one size n; the rows' samples lie end to end."""
    runs, first, start, last = [], 0, 0, len(sizes)
    for end, n in enumerate(sizes, 1):
        if end == last or sizes[end] != n:
            stop = start + (end - first) * n
            runs.append((slice(first, end), slice(start, stop), end - first, n))
            first, start = end, stop
    return runs


def _forward(spec: ModelSpec, rows: np.ndarray, feats: np.ndarray, runs):
    """Logits (N, K) for parameter rows (C, P) and their samples (N, d) end
    to end, and per run the (rows, n, width) views backprop needs: its
    samples, hidden activations (the samples again for logistic), logits."""
    if feats.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {feats.shape[1]} does not match input_dim {spec.input_dim}")
    if rows.shape[1] != spec.param_count:
        raise ValueError(f"parameter vector has length {rows.shape[1]}, expected {spec.param_count}")
    *hidden_layer, (w, b, fan_in, fan_out) = spec.layout
    logits, cache = np.empty((len(feats), fan_out)), []
    for sel, samples, count, n in runs:
        # x @ W + b per layer, each row's samples through that row's layer.
        x = h = feats[samples].reshape(count, n, spec.input_dim)
        if hidden_layer:
            ((w1, b1, _, hidden_dim),) = hidden_layer
            h = np.matmul(x, rows[sel, w1].reshape(count, spec.input_dim, hidden_dim))
            h += rows[sel, None, b1]
            h = np.maximum(h, 0.0) if spec.activation == "relu" else np.tanh(h)
        y = logits[samples].reshape(count, n, fan_out)
        np.matmul(h, rows[sel, w].reshape(count, fan_in, fan_out), out=y)
        y += rows[sel, None, b]
        cache.append((x, h, y))
    return logits, cache


def _cross_entropy(spec: ModelSpec, logits: np.ndarray, labels: np.ndarray, runs, count: int):
    """Mean cross-entropy per row (C,) of logits (N, K) and labels (N,),
    the log-probs (N, K), computed in the logits' buffer, and the flat
    index of each sample's label into them.  A row's loss may be NaN or Inf."""
    # Log-softmax with max-subtraction, over the samples of all rows.
    logp = logits
    logp -= np.maximum.reduce(logp, axis=1, keepdims=True)
    norm = np.add.reduce(np.exp(logp), axis=1, keepdims=True)
    logp -= np.log(norm, out=norm)
    try:  # Labels are non-negative (Batch), so only one too large fails.
        picks = np.ravel_multi_index((np.arange(len(labels)), labels), logp.shape)
    except ValueError:
        raise ValueError(f"label {int(labels.max())} out of range for {spec.num_classes} classes") from None
    picked = logp.ravel()[picks]
    # np.mean's own float64 arithmetic, without its Python-level overhead.
    losses = np.empty(count)
    for sel, samples, rows_in_run, n in runs:
        mean = losses[sel]
        np.add.reduce(picked[samples].reshape(rows_in_run, n), axis=1, out=mean)
        mean /= n
    return np.negative(losses, out=losses), logp, picks


def _backward(spec: ModelSpec, rows, logp, picks, cache, runs, out=None, firsts=None) -> np.ndarray:
    """Gradient rows (C, P) of the per-row mean cross-entropy, into ``out``
    if given; the softmax is taken in ``logp``'s buffer."""
    dout = np.exp(logp, out=logp)
    dout.ravel()[picks] -= 1.0
    grad = np.empty(rows.shape) if out is None else out
    # Each layer's gradient goes into its slots of the rows, last layer
    # first; d is the gradient at its output, first the run's dout view.
    for (sel, _, count, n), (x, h, d) in zip(runs, cache):
        d /= n
        for w, b, fan_in, fan_out in reversed(spec.layout):
            np.matmul(h.transpose(0, 2, 1), d, out=grad[sel, w].reshape(count, fan_in, fan_out))
            np.add.reduce(d, axis=1, out=grad[sel, b])
            if h is x:
                if firsts is not None:
                    firsts.extend(map(np.copy, d))
                break
            # Back through the output layer and the activations h.
            d = d @ rows[sel, w].reshape(count, fan_in, fan_out).transpose(0, 2, 1)
            if spec.activation == "relu":
                d *= h > 0.0  # max(pre, 0) > 0 exactly where pre > 0
            else:
                d *= 1.0 - h**2
            h = x
    return grad


def loss_and_grad_rows(
    spec: ModelSpec, rows: np.ndarray, features: np.ndarray,
    labels: np.ndarray, sizes, out: np.ndarray | None = None, firsts: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient for C stacked (params, batch) pairs.

    ``rows`` is (C, P); row c's batch is ``sizes[c]`` samples, and the
    batches lie end to end in ``features`` (N, d) and ``labels`` (N,), all
    trusted.  Returns losses (C,) and gradient rows (C, P): ``out``, a
    (C, P) float64 array whose rows are P contiguous values, when given.
    Row c holds the bits ``loss_and_grad`` gives for row c alone.
    Nothing is checked finite: the caller decides per row.  ``firsts``, if
    given, gets a copy of each row's (n, fan_out) gradient d at the first
    layer's output, whose x.T @ d is the row's first-layer weight gradient.
    """
    runs = _runs(sizes)
    total, count = runs[-1][1].stop if runs else 0, len(rows)
    if total != len(features) or len(sizes) != count:
        raise ValueError(
            f"{len(sizes)} batch sizes summing to {total} for {count} rows of {len(features)} samples"
        )
    logits, cache = _forward(spec, rows, features, runs)
    losses, logp, picks = _cross_entropy(spec, logits, labels, runs, count)
    return losses, _backward(spec, rows, logp, picks, cache, runs, out, firsts)


def _finite(loss: np.floating) -> float:
    if not np.isfinite(loss):
        raise NonFiniteError("loss is NaN or Inf")
    return float(loss)


def mean_loss(spec: ModelSpec, params: ParamVector, batch: Batch) -> float:
    """Forward-only mean cross-entropy (used by the finite-difference oracle)."""
    runs = _runs([len(batch)])
    logits, _ = _forward(spec, params.values[None], batch.features, runs)
    return _finite(_cross_entropy(spec, logits, batch.labels, runs, 1)[0][0])


def loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch) -> tuple[float, ParamVector]:
    """Mean cross-entropy and its exact gradient as a flat vector: the
    one-row case of ``loss_and_grad_rows``."""
    losses, grads = loss_and_grad_rows(
        spec, params.values[None], batch.features, batch.labels, [len(batch)]
    )
    return _finite(losses[0]), ParamVector._own(grads[0])


def finite_diff_grad(spec: ModelSpec, params: ParamVector, batch: Batch) -> ParamVector:
    """Central-difference gradient oracle: (L(p+h*e) - L(p-h*e)) / 2h per
    coordinate, at h = 1e-6."""
    h = 1e-6
    base = params.values
    grad = np.empty_like(base)
    probe = base.copy()
    for i in range(base.shape[0]):
        orig = probe[i]
        probe[i] = orig + h
        up = mean_loss(spec, ParamVector(probe), batch)
        probe[i] = orig - h
        down = mean_loss(spec, ParamVector(probe), batch)
        probe[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return ParamVector(grad)


def evaluate(spec: ModelSpec, params: ParamVector, batch: Batch) -> tuple[float, float]:
    """(mean loss, accuracy); argmax ties resolve to the lowest class index."""
    runs = _runs([len(batch)])
    logits, _ = _forward(spec, params.values[None], batch.features, runs)
    # Taken before _cross_entropy shifts the logits in place.
    preds = logits.argmax(axis=1)
    loss = _finite(_cross_entropy(spec, logits, batch.labels, runs, 1)[0][0])
    acc = float((preds == batch.labels).mean())
    return loss, acc
