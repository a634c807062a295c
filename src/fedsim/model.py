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
                raise ValueError(f"mlp1 needs hidden_dim >= 1, got {self.hidden_dim}")
            if self.activation not in ACTIVATIONS:
                raise ValueError(
                    f"mlp1 needs activation in {ACTIVATIONS}, got {self.activation!r}"
                )
        else:
            if self.hidden_dim is not None or self.activation is not None:
                raise ValueError("logistic model takes no hidden_dim/activation")

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per layer, in storage order."""
        if self.kind == "logistic":
            return ((self.input_dim, self.num_classes),)
        return ((self.input_dim, self.hidden_dim), (self.hidden_dim, self.num_classes))

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes)


def validate_xy(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """Coerce to finite float64 features (n >= 1, d) and non-negative int64 labels (n,)."""
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
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
    return feats, labs.astype(np.int64)


@dataclass(frozen=True)
class Batch:
    """A design matrix plus integer labels, validated once at construction."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats, labs = validate_xy(self.features, self.labels)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def _of_rows(cls, features: np.ndarray, labels: np.ndarray) -> "Batch":
        """Batch of rows cut from arrays ``validate_xy`` already accepted.

        Skips the validation ``Batch(...)`` does for every other caller.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "features", features)
        object.__setattr__(batch, "labels", labels)
        return batch

    def __len__(self) -> int:
        return int(self.features.shape[0])


def _unpack(spec: ModelSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of (W, b) per layer; no copies."""
    layers = []
    off = 0
    for fan_in, fan_out in spec.layer_shapes:
        w = values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = values[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    if off != values.shape[0]:
        raise ValueError(f"parameter vector has length {values.shape[0]}, expected {off}")
    return layers


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Normal(0, 1/sqrt(fan_in)) weights, zero biases; deterministic in seed."""
    rng = seeded_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layer_shapes:
        parts.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(parts))


def _forward(spec: ModelSpec, values: np.ndarray, feats: np.ndarray):
    """Return (logits, caches-needed-for-backprop)."""
    layers = _unpack(spec, values)
    if spec.kind == "logistic":
        w, b = layers[0]
        return feats @ w + b, None
    (w1, b1), (w2, b2) = layers
    pre = feats @ w1 + b1
    hidden = np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre)
    return hidden @ w2 + b2, (pre, hidden, w2)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _cross_entropy(spec: ModelSpec, params: ParamVector, batch: Batch):
    """Forward pass shared by every loss: (mean cross-entropy, logits, log-probs, cache)."""
    if batch.features.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature dim {batch.features.shape[1]} does not match input_dim {spec.input_dim}"
        )
    logits, cache = _forward(spec, params.values, batch.features)
    logp = _log_softmax(logits)
    n = len(batch)
    try:
        # Labels are non-negative (validate_xy), so only one too large fails.
        picked = logp[np.arange(n), batch.labels]
    except IndexError:
        raise ValueError(
            f"label {int(batch.labels.max())} out of range for {spec.num_classes} classes"
        ) from None
    # np.mean's own float64 arithmetic, without its Python-level overhead.
    loss = -(picked.sum() / n)
    if not np.isfinite(loss):
        raise NonFiniteError("loss is NaN or Inf")
    return float(loss), logits, logp, cache


def mean_loss(spec: ModelSpec, params: ParamVector, batch: Batch) -> float:
    """Forward-only mean cross-entropy (used by the finite-difference oracle)."""
    return _cross_entropy(spec, params, batch)[0]


def loss_and_grad(spec: ModelSpec, params: ParamVector, batch: Batch) -> tuple[float, ParamVector]:
    """Mean cross-entropy and its exact gradient as a flat vector."""
    loss, _, logp, cache = _cross_entropy(spec, params, batch)
    feats, labs = batch.features, batch.labels
    n = len(batch)
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labs] -= 1.0
    dlogits /= n

    if spec.kind == "logistic":
        dw = feats.T @ dlogits
        db = dlogits.sum(axis=0)
        grad = np.concatenate([dw.ravel(), db])
    else:
        pre, hidden, w2 = cache
        dw2 = hidden.T @ dlogits
        db2 = dlogits.sum(axis=0)
        dhidden = dlogits @ w2.T
        if spec.activation == "relu":
            dpre = dhidden * (pre > 0.0)
        else:
            dpre = dhidden * (1.0 - hidden**2)
        dw1 = feats.T @ dpre
        db1 = dpre.sum(axis=0)
        grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])
    return loss, ParamVector._own(grad)


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
    loss, logits, _, _ = _cross_entropy(spec, params, batch)
    preds = logits.argmax(axis=1)
    acc = float((preds == batch.labels).mean())
    return loss, acc
