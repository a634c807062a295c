from __future__ import annotations

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from fedsim.model import (
    Batch,
    ModelSpec,
    evaluate,
    finite_diff_grad,
    init_params,
    loss_and_grad,
    loss_and_grad_rows,
    mean_loss,
)
from fedsim.params import ParamVector


LOGISTIC = ModelSpec("logistic", 5, 3)
MLP_RELU = ModelSpec("mlp1", 4, 3, hidden_dim=6, activation="relu")
MLP_TANH = ModelSpec("mlp1", 4, 3, hidden_dim=6, activation="tanh")


def random_batch(spec: ModelSpec, seed: int, n: int = 12) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(
        rng.normal(size=(n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("cnn", 4, 2)
    with pytest.raises(ValueError):
        ModelSpec("logistic", 4, 1)
    with pytest.raises(ValueError):
        ModelSpec("mlp1", 4, 2)  # missing hidden_dim/activation
    with pytest.raises(ValueError):
        ModelSpec("mlp1", 4, 2, hidden_dim=3, activation="gelu")
    with pytest.raises(ValueError):
        ModelSpec("logistic", 4, 2, hidden_dim=3)


@pytest.mark.parametrize(
    "kwargs, want",
    [
        (dict(kind="mlp1", hidden_dim=0, activation="relu"), "hidden_dim must be >= 1 for mlp1, got 0"),
        (dict(kind="mlp1", hidden_dim=3, activation="gelu"),
         "activation must be one of ('relu', 'tanh') for mlp1, got 'gelu'"),
        (dict(kind="logistic", hidden_dim=3), "hidden_dim must be unset for logistic, got 3"),
        (dict(kind="logistic", activation="tanh"), "activation must be unset for logistic, got 'tanh'"),
    ],
)
def test_spec_rules_start_with_the_key_they_break(kwargs, want):
    # config errors point at the line of the key a message starts with
    kind = kwargs.pop("kind")
    with pytest.raises(ValueError) as exc:
        ModelSpec(kind, 4, 2, **kwargs)
    assert str(exc.value) == want


def test_param_count():
    assert ModelSpec("logistic", 3, 2).param_count == 3 * 2 + 2
    assert ModelSpec("mlp1", 4, 3, hidden_dim=6, activation="relu").param_count == (
        4 * 6 + 6 + 6 * 3 + 3
    )


def test_init_layout_biases_zero():
    spec = ModelSpec("mlp1", 4, 3, hidden_dim=6, activation="relu")
    params = init_params(spec, 0)
    assert len(params) == spec.param_count
    vals = params.values
    b1 = vals[4 * 6 : 4 * 6 + 6]
    b2 = vals[4 * 6 + 6 + 6 * 3 :]
    npt.assert_array_equal(b1, np.zeros(6))
    npt.assert_array_equal(b2, np.zeros(3))
    assert np.any(vals[: 4 * 6] != 0)


def test_init_deterministic():
    a = init_params(LOGISTIC, 42)
    b = init_params(LOGISTIC, 42)
    c = init_params(LOGISTIC, 43)
    assert a.same_bits(b)
    assert not a.same_bits(c)


def test_weight_layout_is_row_major_fan_in_by_fan_out():
    # W = [[1, 0], [0, 1]], b = [0, 5]: logits must equal x + b.
    spec = ModelSpec("logistic", 2, 2)
    params = ParamVector([1.0, 0.0, 0.0, 1.0, 0.0, 5.0])
    batch = Batch(np.array([[3.0, -1.0]]), np.array([1]))
    loss, _ = loss_and_grad(spec, params, batch)
    # logits = [3, 4]; loss = -log softmax_1 = log(1 + e^(3-4))
    assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), rel=1e-12)
    _, acc = evaluate(spec, params, batch)
    assert acc == 1.0


def test_zero_params_loss_is_log_num_classes():
    for spec in (LOGISTIC, MLP_RELU):
        batch = random_batch(spec, 1)
        loss, _ = loss_and_grad(spec, ParamVector.zeros(spec.param_count), batch)
        assert loss == pytest.approx(math.log(spec.num_classes), rel=1e-14)


def test_logistic_gradient_matches_hand_derivation():
    # One sample, d=1, K=2: dW = x * (p - onehot), db = p - onehot.
    spec = ModelSpec("logistic", 1, 2)
    w00, w01, b0, b1 = 0.3, -0.2, 0.1, 0.05
    x, y = 2.0, 1
    z0, z1 = w00 * x + b0, w01 * x + b1
    e0, e1 = math.exp(z0), math.exp(z1)
    p0, p1 = e0 / (e0 + e1), e1 / (e0 + e1)
    expected_loss = -math.log(p1)
    expected_grad = [x * p0, x * (p1 - 1.0), p0, p1 - 1.0]

    params = ParamVector([w00, w01, b0, b1])
    loss, grad = loss_and_grad(spec, params, Batch(np.array([[x]]), np.array([y])))
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    npt.assert_allclose(grad.values, expected_grad, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("spec", [LOGISTIC, MLP_RELU, MLP_TANH], ids=lambda s: s.kind + (s.activation or ""))
def test_gradient_matches_finite_differences(spec):
    params = init_params(spec, 3)
    batch = random_batch(spec, 4)
    _, grad = loss_and_grad(spec, params, batch)
    fd = finite_diff_grad(spec, params, batch)
    scale = np.maximum(np.abs(fd.values), 1e-8)
    assert float(np.max(np.abs(grad.values - fd.values) / scale)) < 1e-6


def test_mean_semantics_duplication_invariance():
    # Duplicating every sample must not change mean loss or gradient.
    spec = LOGISTIC
    params = init_params(spec, 5)
    batch = random_batch(spec, 6, n=8)
    doubled = Batch(
        np.vstack([batch.features, batch.features]),
        np.concatenate([batch.labels, batch.labels]),
    )
    loss1, grad1 = loss_and_grad(spec, params, batch)
    loss2, grad2 = loss_and_grad(spec, params, doubled)
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    npt.assert_allclose(grad2.values, grad1.values, atol=1e-12)


def test_permutation_invariance():
    spec = MLP_TANH
    params = init_params(spec, 7)
    batch = random_batch(spec, 8, n=10)
    perm = np.random.default_rng(9).permutation(10)
    shuffled = Batch(batch.features[perm], batch.labels[perm])
    loss1, grad1 = loss_and_grad(spec, params, batch)
    loss2, grad2 = loss_and_grad(spec, params, shuffled)
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    npt.assert_allclose(grad2.values, grad1.values, atol=1e-12)


def test_large_logits_stay_finite():
    spec = ModelSpec("logistic", 2, 2)
    params = ParamVector([500.0, -500.0, 0.0, 0.0, 0.0, 0.0])
    batch = Batch(np.array([[2.0, 2.0]]), np.array([1]))
    loss, grad = loss_and_grad(spec, params, batch)
    assert math.isfinite(loss)
    assert np.all(np.isfinite(grad.values))


def test_evaluate_argmax_ties_pick_lowest_class():
    spec = ModelSpec("logistic", 2, 3)
    params = ParamVector.zeros(spec.param_count)  # all logits equal
    batch = Batch(np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]), np.array([0, 1, 0]))
    loss, acc = evaluate(spec, params, batch)
    assert acc == pytest.approx(2.0 / 3.0)
    assert loss == pytest.approx(math.log(3), rel=1e-14)


def test_evaluate_perfect_and_chance():
    spec = ModelSpec("logistic", 2, 2)
    perfect = ParamVector([10.0, -10.0, -10.0, 10.0, 0.0, 0.0])
    batch = Batch(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([0, 1]))
    _, acc = evaluate(spec, perfect, batch)
    assert acc == 1.0
    flipped = ParamVector([-10.0, 10.0, 10.0, -10.0, 0.0, 0.0])
    _, acc0 = evaluate(spec, flipped, batch)
    assert acc0 == 0.0


def test_label_and_shape_validation():
    params = ParamVector.zeros(LOGISTIC.param_count)
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, Batch(np.zeros((2, 5)), np.array([0, 3])))
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, params, Batch(np.zeros((2, 4)), np.array([0, 1])))
    with pytest.raises(ValueError):
        loss_and_grad(LOGISTIC, ParamVector.zeros(7), random_batch(LOGISTIC, 0))


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(np.array([[np.nan, 1.0]]), np.array([0]))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 2)), np.array([-1, 0]))
    with pytest.raises(ValueError):
        Batch(np.zeros(4), np.array([0]))


def test_batch_shares_int64_labels_read_only_and_leaves_the_callers_writeable():
    features, labels = np.zeros((3, 2)), np.array([0, 2, 1], dtype=np.int64)
    batch = Batch(features, labels)
    for mine, kept in ((features, batch.features), (labels, batch.labels)):
        assert np.shares_memory(kept, mine)
        assert not kept.flags.writeable and mine.flags.writeable
    assert batch.labels.dtype == np.int64
    # Other integer labels are converted, into a copy.
    narrow = Batch(features, labels.astype(np.int32))
    assert narrow.labels.dtype == np.int64 and narrow.labels.tolist() == [0, 2, 1]


@pytest.mark.parametrize("spec", [LOGISTIC, MLP_RELU], ids=["logistic", "mlp1"])
def test_label_past_the_classes_is_rejected(spec):
    params = init_params(spec, 0)
    batch = random_batch(spec, 4)
    labels = batch.labels.copy()
    labels[5] = spec.num_classes
    bad = Batch(batch.features, labels)
    message = f"label {spec.num_classes} out of range for {spec.num_classes} classes"
    for fn in (loss_and_grad, mean_loss, evaluate):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(spec, params, bad)


def test_activations_differ():
    params = init_params(MLP_RELU, 11)
    batch = random_batch(MLP_RELU, 12)
    loss_r, _ = loss_and_grad(MLP_RELU, params, batch)
    loss_t, _ = loss_and_grad(MLP_TANH, params, batch)
    assert loss_r != loss_t


def test_mean_loss_matches_loss_and_grad():
    params = init_params(MLP_TANH, 13)
    batch = random_batch(MLP_TANH, 14)
    assert mean_loss(MLP_TANH, params, batch) == loss_and_grad(MLP_TANH, params, batch)[0]


# ------------------------------------------------------------------ stacked rows


def reference_loss_and_grad(spec: ModelSpec, values: np.ndarray, feats, labels):
    """The one-client forward/backward as plain 2-D numpy calls."""
    layers, off = [], 0
    for fan_in, fan_out in spec.layer_shapes:
        w = values[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        layers.append((w, values[off : off + fan_out]))
        off += fan_out
    if spec.kind == "logistic":
        (w, b), = layers
        logits = feats @ w + b
    else:
        (w1, b1), (w2, b2) = layers
        pre = feats @ w1 + b1
        hidden = np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre)
        logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = feats.shape[0]
    loss = -(logp[np.arange(n), labels].sum() / n)
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    if spec.kind == "logistic":
        return loss, np.concatenate([(feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    dhidden = dlogits @ w2.T
    dpre = dhidden * (pre > 0.0) if spec.activation == "relu" else dhidden * (1.0 - hidden**2)
    return loss, np.concatenate(
        [(feats.T @ dpre).ravel(), dpre.sum(axis=0), (hidden.T @ dlogits).ravel(), dlogits.sum(axis=0)]
    )


STACK_SPECS = {
    "logistic-d20": ModelSpec("logistic", 20, 10),
    "logistic-d30": ModelSpec("logistic", 30, 10),
    "mlp1-relu": ModelSpec("mlp1", 200, 10, hidden_dim=256, activation="relu"),
    "mlp1-tanh": ModelSpec("mlp1", 200, 10, hidden_dim=256, activation="tanh"),
}
STACK_ROWS = (1, 2, 10, 20)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 31, 32, 33, 127, 128, 257])
@pytest.mark.parametrize("name", list(STACK_SPECS))
def test_stacked_rows_match_each_row_alone_bit_for_bit(name, n):
    """Bit identity of stacking is a property of the numpy/BLAS build;
    on a build without it, this test fails."""
    spec = STACK_SPECS[name]
    rng = np.random.default_rng(n)
    count = max(STACK_ROWS)
    rows = np.stack([init_params(spec, s).values for s in range(count)])
    rows += 0.01 * rng.normal(size=rows.shape)
    feats = rng.normal(size=(count, n, spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=(count, n))
    alone = []
    for c in range(count):
        loss, grad = loss_and_grad(spec, ParamVector(rows[c]), Batch(feats[c], labels[c]))
        ref_loss, ref_grad = reference_loss_and_grad(spec, rows[c], feats[c], labels[c])
        assert np.float64(loss).tobytes() == ref_loss.tobytes()
        assert grad.values.tobytes() == ref_grad.tobytes()
        alone.append((np.float64(loss).tobytes(), grad.values.tobytes()))
    for stacked in STACK_ROWS:
        losses, grads = loss_and_grad_rows(
            spec, rows[:stacked], feats[:stacked].reshape(-1, spec.input_dim),
            labels[:stacked].ravel(), [n] * stacked,
        )
        assert losses.shape == (stacked,) and grads.shape == (stacked, spec.param_count)
        got = [(losses[c].tobytes(), grads[c].tobytes()) for c in range(stacked)]
        assert got == alone[:stacked], f"{stacked} stacked rows differ from each row alone"


@pytest.mark.parametrize("spec", [LOGISTIC, MLP_RELU, MLP_TANH], ids=["logistic", "relu", "tanh"])
def test_rows_written_into_out_hold_the_allocating_calls_bits(spec):
    rng = np.random.default_rng(9)
    rows = np.stack([init_params(spec, s).values for s in range(3)])
    sizes = [5, 5, 2]
    feats = rng.normal(size=(sum(sizes), spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=sum(sizes))
    want_losses, want = loss_and_grad_rows(spec, rows, feats, labels, sizes)
    # A run of rows inside a larger array, as a cohort's gradient rows are.
    cohort = np.full((5, spec.param_count), np.nan)
    buf = cohort[1:4]
    losses, got = loss_and_grad_rows(spec, rows, feats, labels, sizes, out=buf)
    assert got is buf
    assert losses.tobytes() == want_losses.tobytes()
    assert cohort[1:4].tobytes() == want.tobytes()
    assert np.isnan(cohort[[0, 4]]).all()


@pytest.mark.parametrize("stacked", [1, 3])
@pytest.mark.parametrize("spec", [LOGISTIC, MLP_RELU, MLP_TANH], ids=["logistic", "relu", "tanh"])
def test_the_kernel_reads_read_only_inputs_and_writes_only_its_own(spec, stacked):
    rng = np.random.default_rng(stacked)
    rows = np.stack([init_params(spec, s).values for s in range(stacked)])
    sizes = [6, 3, 6][:stacked]
    starts = np.cumsum([0] + sizes)
    feats = rng.normal(size=(sum(sizes), spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=sum(sizes))
    inputs = (rows, feats, labels)
    before = [arr.tobytes() for arr in inputs]
    for arr in inputs:
        arr.flags.writeable = False
    cohort = np.full((stacked + 2, spec.param_count), np.nan)
    losses, _ = loss_and_grad_rows(spec, rows, feats, labels, sizes, out=cohort[1:-1])
    assert np.isnan(cohort[[0, -1]]).all() and np.isfinite(cohort[1:-1]).all()
    for c in range(stacked):
        mine = slice(starts[c], starts[c + 1])
        params, batch = ParamVector(rows[c]), Batch(feats[mine], labels[mine])
        loss, grad = loss_and_grad(spec, params, batch)
        assert (loss, grad.values.tobytes()) == (losses[c], cohort[1 + c].tobytes())
        assert mean_loss(spec, params, batch) == loss
        assert evaluate(spec, params, batch)[0] == loss
        assert not (params.values.flags.writeable or batch.features.flags.writeable)
    assert [arr.tobytes() for arr in inputs] == before
    for arr in inputs:
        with pytest.raises(ValueError, match="read-only"):
            arr += 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(STACK_SPECS))
def test_rows_of_mixed_batch_sizes_match_each_row_alone_bit_for_bit(name, seed):
    """One call over rows whose batches differ in size, as a cohort's
    step with partial last batches makes."""
    spec = STACK_SPECS[name]
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 41, size=12).tolist()
    # Equal sizes next to each other and apart, and sizes 4 does not divide.
    sizes[3:6] = [sizes[2]] * 3
    sizes[9] = sizes[0]
    sizes[7:9] = [13, 13]
    assert sizes[8] != sizes[9] != sizes[10] and any(n % 4 for n in sizes)
    rows = np.stack([init_params(spec, s).values for s in range(len(sizes))])
    rows += 0.01 * rng.normal(size=rows.shape)
    feats = rng.normal(size=(sum(sizes), spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=sum(sizes))
    losses, grads = loss_and_grad_rows(spec, rows, feats, labels, sizes)
    starts = np.cumsum([0] + sizes)
    for c in range(len(sizes)):
        mine = slice(starts[c], starts[c + 1])
        loss, grad = loss_and_grad(spec, ParamVector(rows[c]), Batch(feats[mine], labels[mine]))
        assert np.float64(loss).tobytes() == losses[c].tobytes(), f"row {c} (n={sizes[c]})"
        assert grad.values.tobytes() == grads[c].tobytes(), f"row {c} (n={sizes[c]})"


@pytest.mark.parametrize("spec", [LOGISTIC, MLP_TANH], ids=["logistic", "mlp1"])
def test_the_kernel_names_sizes_that_do_not_fit_its_inputs(spec):
    rng = np.random.default_rng(4)
    rows = np.stack([init_params(spec, s).values for s in range(2)])
    feats = rng.normal(size=(9, spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=9)
    with pytest.raises(ValueError, match=r"summing to 8 for 2 rows of 9 samples"):
        loss_and_grad_rows(spec, rows, feats, labels, [4, 4])
    with pytest.raises(ValueError, match=r"3 batch sizes summing to 9 for 2 rows"):
        loss_and_grad_rows(spec, rows, feats, labels, [3, 3, 3])
    wide = rng.normal(size=(9, spec.input_dim + 1))
    with pytest.raises(ValueError, match=rf"feature dim {spec.input_dim + 1} does not match input_dim {spec.input_dim}"):
        loss_and_grad_rows(spec, rows, wide, labels, [4, 5])


@pytest.mark.parametrize("n", [1, 7, 33, 128])
@pytest.mark.parametrize("name", list(STACK_SPECS))
def test_evaluate_and_mean_loss_give_the_reference_bits(name, n):
    spec = STACK_SPECS[name]
    rng = np.random.default_rng(n)
    values = init_params(spec, n).values + 0.01 * rng.normal(size=spec.param_count)
    feats = rng.normal(size=(n, spec.input_dim))
    labels = rng.integers(0, spec.num_classes, size=n)
    ref_loss, _ = reference_loss_and_grad(spec, values, feats, labels)
    params, batch = ParamVector(values), Batch(feats, labels)
    loss, acc = evaluate(spec, params, batch)
    assert np.float64(loss).tobytes() == ref_loss.tobytes()
    assert np.float64(mean_loss(spec, params, batch)).tobytes() == ref_loss.tobytes()
    assert acc == float((predict(spec, values, feats) == labels).mean())


def predict(spec: ModelSpec, values: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Plain 2-D argmax of the logits, each layer cut by hand."""
    d, k = spec.input_dim, spec.num_classes
    if spec.kind == "logistic":
        return (feats @ values[: d * k].reshape(d, k) + values[d * k :]).argmax(axis=1)
    h = spec.hidden_dim
    pre = feats @ values[: d * h].reshape(d, h) + values[d * h : d * h + h]
    hidden = np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre)
    w2 = values[d * h + h : d * h + h + h * k].reshape(h, k)
    return (hidden @ w2 + values[d * h + h + h * k :]).argmax(axis=1)


@pytest.mark.parametrize("spec", [LOGISTIC, MLP_TANH], ids=["logistic", "mlp1"])
def test_a_specs_layout_is_built_once_and_not_part_of_its_value(spec):
    fresh = dataclasses.replace(spec)
    assert "layout" not in vars(fresh)
    layout = fresh.layout
    loss_and_grad(fresh, init_params(fresh, 0), random_batch(fresh, 0))
    evaluate(fresh, init_params(fresh, 0), random_batch(fresh, 0))
    assert fresh.layout is layout and vars(fresh)["layout"] is layout
    assert fresh.param_count == layout[-1][1].stop == sum(fi * fo + fo for fi, fo in fresh.layer_shapes)
    other = dataclasses.replace(spec)
    assert "layout" not in vars(other)
    assert fresh == other and hash(fresh) == hash(other) and repr(fresh) == repr(other)
    assert {fresh: 1}[other] == 1
    assert dataclasses.replace(fresh, num_classes=4) != fresh
    assert "layout" not in vars(dataclasses.replace(fresh))
    off = 0
    for (w, b, fan_in, fan_out), shape in zip(layout, fresh.layer_shapes):
        assert (fan_in, fan_out) == shape
        mid = off + fan_in * fan_out
        assert (w, b) == (slice(off, mid), slice(mid, mid + fan_out))
        off = mid + fan_out
