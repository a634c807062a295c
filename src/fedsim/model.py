"""Softmax classifiers over flat parameter vectors.

Two architectures share one interface: multinomial logistic regression
and a one-hidden-layer MLP (relu or tanh).  Parameters live in a single
:class:`~fedsim.params.ParamVector` laid out layer by layer, weights
before biases, weight matrices flattened row-major:

    logistic: [W (d*K), b (K)]
    mlp1:     [W1 (d*h), b1 (h), W2 (h*K), b2 (K)]

The loss is mean cross-entropy over the batch (softmax computed with
max-subtraction for stability), so gradient magnitudes are independent
of batch size.  ``finite_diff_grad`` provides a slow central-difference
oracle for validating the analytic gradients.
"""
from __future__ import annotations

from dataclasses import dataclass

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
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
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

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per layer, in storage order."""
        if self.kind == "logistic":
            return ((self.input_dim, self.num_classes),)
        return ((self.input_dim, self.hidden_dim), (self.hidden_dim, self.num_classes))

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes)


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


def _unpack(spec: ModelSpec, rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of (W, b) per layer of parameter rows (C, P): W is
    (C, fan_in, fan_out) and b is (C, fan_out); no copies."""
    count = rows.shape[0]
    layers = []
    off = 0
    for fan_in, fan_out in spec.layer_shapes:
        w = rows[:, off : off + fan_in * fan_out].reshape(count, fan_in, fan_out)
        off += fan_in * fan_out
        b = rows[:, off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    if off != rows.shape[1]:
        raise ValueError(f"parameter vector has length {rows.shape[1]}, expected {off}")
    return layers


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Normal(0, 1/sqrt(fan_in)) weights, zero biases; deterministic in seed."""
    rng = seeded_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layer_shapes:
        parts.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(parts))


def _forward(spec: ModelSpec, rows: np.ndarray, feats: np.ndarray):
    """Return (logits (C, n, K), caches-needed-for-backprop)."""
    layers = _unpack(spec, rows)
    if spec.kind == "logistic":
        w, b = layers[0]
        return feats @ w + b[:, None, :], None
    (w1, b1), (w2, b2) = layers
    pre = feats @ w1 + b1[:, None, :]
    hidden = np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre)
    return hidden @ w2 + b2[:, None, :], (pre, hidden, w2)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax of each row of 2-D logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _cross_entropy(spec: ModelSpec, rows: np.ndarray, feats: np.ndarray, labels: np.ndarray):
    """Forward pass shared by every loss over parameter rows (C, P) and
    batches (C, n, d): (mean cross-entropy per row (C,), logits (C, n, K),
    log-probs (C*n, K), each sample's (index, label) pair into them,
    cache).  A row's loss may be NaN or Inf."""
    if feats.shape[2] != spec.input_dim:
        raise ValueError(
            f"feature dim {feats.shape[2]} does not match input_dim {spec.input_dim}"
        )
    logits, cache = _forward(spec, rows, feats)
    count, n = labels.shape
    # The samples of all rows one after another, as 2-D (C*n, K) arrays.
    logp = _log_softmax(logits.reshape(count * n, -1))
    picks = (np.arange(count * n), labels.ravel())
    try:
        # Labels are non-negative (Batch), so only one too large fails.
        picked = logp[picks]
    except IndexError:
        raise ValueError(
            f"label {int(labels.max())} out of range for {spec.num_classes} classes"
        ) from None
    # np.mean's own float64 arithmetic, without its Python-level overhead.
    losses = -(picked.reshape(count, n).sum(axis=1) / n)
    return losses, logits, logp, picks, cache


def _backward(spec: ModelSpec, feats: np.ndarray, logp, picks, cache, out=None) -> np.ndarray:
    """Gradient rows (C, P) of the per-row mean cross-entropy, into ``out`` if given."""
    count, n, _ = feats.shape
    dlogits = np.exp(logp)
    dlogits[picks] -= 1.0
    dlogits /= n
    dlogits = dlogits.reshape(count, n, -1)
    grad = np.empty((count, spec.param_count)) if out is None else out
    # Each layer's gradient is written into its slots of the rows, in
    # the layout of _unpack.
    (dw1, db1), *rest = _unpack(spec, grad)
    if spec.kind == "logistic":
        np.matmul(feats.transpose(0, 2, 1), dlogits, out=dw1)
        dlogits.sum(axis=1, out=db1)
        return grad
    pre, hidden, w2 = cache
    ((dw2, db2),) = rest
    np.matmul(hidden.transpose(0, 2, 1), dlogits, out=dw2)
    dlogits.sum(axis=1, out=db2)
    dhidden = dlogits @ w2.transpose(0, 2, 1)
    if spec.activation == "relu":
        dpre = dhidden * (pre > 0.0)
    else:
        dpre = dhidden * (1.0 - hidden**2)
    np.matmul(feats.transpose(0, 2, 1), dpre, out=dw1)
    dpre.sum(axis=1, out=db1)
    return grad


def loss_and_grad_rows(
    spec: ModelSpec, rows: np.ndarray, features: np.ndarray,
    labels: np.ndarray, out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient for C stacked (params, batch) pairs.

    ``rows`` is (C, P), ``features`` (C, n, d) and ``labels`` (C, n), all
    trusted.  Returns losses (C,) and gradient rows (C, P): ``out``, a
    (C, P) float64 array whose rows are P contiguous values, when given.
    Row c holds the bits ``loss_and_grad`` gives for row c alone.
    Nothing is checked finite: the caller decides per row.
    """
    losses, _, logp, picks, cache = _cross_entropy(spec, rows, features, labels)
    return losses, _backward(spec, features, logp, picks, cache, out)


def _finite(loss: np.floating) -> float:
    if not np.isfinite(loss):
        raise NonFiniteError("loss is NaN or Inf")
    return float(loss)


def mean_loss(spec: ModelSpec, params: ParamVector, batch: Batch) -> float:
    """Forward-only mean cross-entropy (used by the finite-difference oracle)."""
    losses = _cross_entropy(spec, params.values[None], batch.features[None], batch.labels[None])[0]
    return _finite(losses[0])


def loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch) -> tuple[float, ParamVector]:
    """Mean cross-entropy and its exact gradient as a flat vector: the
    one-row case of ``loss_and_grad_rows``."""
    feats = batch.features[None]
    losses, _, logp, picks, cache = _cross_entropy(
        spec, params.values[None], feats, batch.labels[None]
    )
    loss = _finite(losses[0])
    return loss, ParamVector._own(_backward(spec, feats, logp, picks, cache)[0])


def finite_diff_grad(
    spec: ModelSpec, params: ParamVector, batch: Batch, h: float = 1e-6
) -> ParamVector:
    """Central-difference gradient oracle: (L(p+h*e) - L(p-h*e)) / 2h per coordinate."""
    if not (h > 0):
        raise ValueError(f"step size must be positive, got {h}")
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
    losses, logits, _, _, _ = _cross_entropy(
        spec, params.values[None], batch.features[None], batch.labels[None]
    )
    loss = _finite(losses[0])
    preds = logits[0].argmax(axis=1)
    acc = float((preds == batch.labels).mean())
    return loss, acc
