from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from fedsim.client import (
    ClientConfig,
    ClientShard,
    DivergenceError,
    accum_coeff_norm,
    local_train,
    update_control_variate,
)
from fedsim.data import epoch_batches
from fedsim.model import Batch, ModelSpec, init_params, loss_and_grad
from fedsim.params import ParamVector

SPEC = ModelSpec("logistic", 4, 3)
MLP_RELU = ModelSpec("mlp1", 4, 3, hidden_dim=5, activation="relu")
MLP_TANH = ModelSpec("mlp1", 4, 3, hidden_dim=5, activation="tanh")


def make_shard(cid=0, n=20, seed=0, spec=SPEC) -> ClientShard:
    rng = np.random.default_rng(seed)
    return ClientShard(
        cid,
        rng.normal(size=(n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n).astype(np.int64),
    )


def replay(shard: ClientShard, w0: ParamVector, cfg: ClientConfig, seed: int,
           c_global: np.ndarray | None = None, c_local: np.ndarray | None = None,
           spec: ModelSpec = SPEC):
    """Straight-line reimplementation of the local update loop."""
    w = w0.values.copy()
    u = np.zeros_like(w)
    losses = []
    steps = 0
    for epoch in range(cfg.local_epochs):
        for bidx in epoch_batches(np.arange(shard.num_samples), cfg.batch_size, epoch, seed):
            loss, grad = loss_and_grad(spec, ParamVector(w), Batch(shard.features[bidx], shard.labels[bidx]))
            g = grad.values.copy()
            if cfg.opt_c == "scaf":
                g = g + (c_global - c_local)
            elif cfg.opt_c == "prox" and cfg.prox_mu != 0.0:
                g = g + cfg.prox_mu * (w - w0.values)
            if cfg.weight_decay != 0.0:
                g = g + cfg.weight_decay * w
            u = cfg.momentum * u + g if cfg.momentum != 0.0 else g
            w = w - cfg.lr * u
            steps += 1
            if epoch == cfg.local_epochs - 1:
                losses.append(loss)
    return w, steps, float(np.mean(losses))


# ------------------------------------------------------------------ config


def test_client_config_validation():
    with pytest.raises(ValueError):
        ClientConfig(opt_c="fedavg")
    with pytest.raises(ValueError):
        ClientConfig(local_epochs=0)
    with pytest.raises(ValueError):
        ClientConfig(batch_size=0)
    with pytest.raises(ValueError):
        ClientConfig(lr=0.0)
    with pytest.raises(ValueError):
        ClientConfig(momentum=1.0)
    with pytest.raises(ValueError):
        ClientConfig(momentum=-0.1)
    with pytest.raises(ValueError):
        ClientConfig(weight_decay=-1e-4)
    with pytest.raises(ValueError):
        ClientConfig(prox_mu=-0.1)
    with pytest.raises(ValueError):
        ClientConfig(control_option="III")


# ------------------------------------------------------------------ coefficient norm


def test_coeff_norm_closed_form_values():
    assert accum_coeff_norm(0.0, 7) == 7.0
    assert accum_coeff_norm(0.5, 1) == pytest.approx(1.0, abs=1e-15)
    assert accum_coeff_norm(0.5, 2) == pytest.approx(2.5, abs=1e-12)
    assert accum_coeff_norm(0.5, 3) == pytest.approx(4.25, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=0.99),
    st.integers(min_value=1, max_value=50),
)
def test_coeff_norm_matches_unrolled_momentum(rho, tau):
    u = total = 0.0
    for _ in range(tau):
        u = rho * u + 1.0
        total += u
    assert accum_coeff_norm(rho, tau) == pytest.approx(total, rel=1e-9)


def test_coeff_norm_validation():
    with pytest.raises(ValueError):
        accum_coeff_norm(0.5, 0)
    with pytest.raises(ValueError):
        accum_coeff_norm(1.0, 3)


# ------------------------------------------------------------------ single step


def test_single_full_batch_step_is_minus_lr_grad():
    shard = make_shard(n=10)
    w0 = init_params(SPEC, 1)
    cfg = ClientConfig(opt_c="sgd", batch_size=100, lr=0.1, momentum=0.0, weight_decay=0.0)
    update, ctrl = local_train(SPEC, w0, shard, cfg, round_idx=1, seed=5)
    assert ctrl is None
    assert update.step_count == 1
    assert update.num_samples == 10
    _, grad = loss_and_grad(SPEC, w0, shard.as_batch())
    # row order inside the single batch is shuffled, so the gradient mean
    # accumulates in a different order: equality holds to rounding error
    npt.assert_allclose(update.delta.values, -0.1 * grad.values, rtol=1e-12, atol=1e-15)
    assert update.delta_control is None
    assert update.coeff_norm is None


def test_step_count_is_epochs_times_batches():
    shard = make_shard(n=20)
    cfg = ClientConfig(opt_c="sgd", local_epochs=3, batch_size=8)
    update, _ = local_train(SPEC, init_params(SPEC, 0), shard, cfg, 1, 2)
    assert update.step_count == 3 * 3  # ceil(20/8) = 3 batches per epoch


# ------------------------------------------------------------------ replay oracles


def _replay_cases():
    """Every branch of the step loop, on each architecture."""
    for name, spec in (("logistic", SPEC), ("relu", MLP_RELU), ("tanh", MLP_TANH)):
        for opt_c in ("sgd", "prox", "nova", "scaf"):
            for momentum in (0.0, 0.9):
                for weight_decay in (0.0, 1e-4):
                    # The logistic cases with momentum and weight decay
                    # keep their original ids.
                    plain = spec is SPEC and momentum and weight_decay and opt_c != "scaf"
                    case = opt_c if plain else f"{name}-{opt_c}-m{momentum}-wd{weight_decay}"
                    yield pytest.param(spec, opt_c, momentum, weight_decay, 0.05, id=case)
        yield pytest.param(spec, "prox", 0.9, 1e-4, 0.0, id=f"{name}-prox-mu0")


@pytest.mark.parametrize("spec,opt_c,momentum,weight_decay,prox_mu", list(_replay_cases()))
def test_local_train_matches_replay(spec, opt_c, momentum, weight_decay, prox_mu):
    shard = make_shard(n=19, seed=3, spec=spec)
    w0 = init_params(spec, 2)
    cfg = ClientConfig(
        opt_c=opt_c, local_epochs=2, batch_size=5, lr=0.05,
        momentum=momentum, weight_decay=weight_decay, prox_mu=prox_mu,
    )
    c_global = c_local = None
    controls = {}
    if opt_c == "scaf":
        rng = np.random.default_rng(8)
        c_global, c_local = (0.1 * rng.normal(size=len(w0)) for _ in range(2))
        controls = dict(global_c=ParamVector(c_global), local_c=ParamVector(c_local))
    update, _ = local_train(spec, w0, shard, cfg, round_idx=4, seed=11, **controls)
    w_ref, steps_ref, loss_ref = replay(
        shard, w0, cfg, seed=11, c_global=c_global, c_local=c_local, spec=spec
    )
    npt.assert_array_equal(update.delta.values, w_ref - w0.values)
    assert update.step_count == steps_ref
    assert update.train_loss == loss_ref
    if opt_c == "nova":
        assert update.coeff_norm == pytest.approx(
            accum_coeff_norm(momentum, steps_ref), rel=1e-15
        )
    else:
        assert update.coeff_norm is None


def test_returned_vectors_are_read_only_and_not_aliased():
    shard = make_shard(n=19, seed=3)
    w0 = init_params(SPEC, 2)
    w0_bits = w0.values.copy()
    rng = np.random.default_rng(6)
    c_g = ParamVector(0.01 * rng.normal(size=len(w0)))
    c_l = ParamVector(0.01 * rng.normal(size=len(w0)))
    cfg = ClientConfig(opt_c="scaf", local_epochs=2, batch_size=5, control_option="I")
    update, new_c = local_train(SPEC, w0, shard, cfg, 1, 11, global_c=c_g, local_c=c_l)
    returned = (update.delta, update.delta_control, new_c)
    kept = [vec.values.copy() for vec in returned]
    for vec in returned:
        assert not vec.values.flags.writeable
    # A later call must not write through any buffer of the first one.
    local_train(SPEC, w0, make_shard(n=23, seed=4), cfg, 2, 12, global_c=c_g, local_c=new_c)
    for vec, bits in zip(returned, kept):
        npt.assert_array_equal(vec.values, bits)
    npt.assert_array_equal(w0.values, w0_bits)


def test_scaf_matches_replay_and_option_two_identity():
    shard = make_shard(n=16, seed=4)
    w0 = init_params(SPEC, 5)
    rng = np.random.default_rng(6)
    c_g = ParamVector(0.01 * rng.normal(size=len(w0)))
    c_l = ParamVector(0.01 * rng.normal(size=len(w0)))
    cfg = ClientConfig(opt_c="scaf", local_epochs=2, batch_size=4, lr=0.02,
                       momentum=0.5, weight_decay=0.0, control_option="II")
    update, new_c = local_train(
        SPEC, w0, shard, cfg, round_idx=2, seed=13, global_c=c_g, local_c=c_l
    )
    w_ref, steps_ref, _ = replay(shard, w0, cfg, seed=13, c_global=c_g.values, c_local=c_l.values)
    npt.assert_array_equal(update.delta.values, w_ref - w0.values)
    # option II: c_i' = c_i - c + (w0 - w_final) / (steps * lr)
    expected_c = c_l.values - c_g.values + (w0.values - w_ref) / (steps_ref * cfg.lr)
    npt.assert_array_equal(new_c.values, expected_c)
    npt.assert_array_equal(update.delta_control.values, expected_c - c_l.values)


def test_scaf_option_one_is_full_batch_gradient_at_start():
    shard = make_shard(n=12, seed=9)
    w0 = init_params(SPEC, 3)
    zero = ParamVector.zeros(len(w0))
    cfg = ClientConfig(opt_c="scaf", batch_size=4, control_option="I")
    update, new_c = local_train(
        SPEC, w0, shard, cfg, round_idx=1, seed=17, global_c=zero, local_c=zero
    )
    _, full_grad = loss_and_grad(SPEC, w0, shard.as_batch())
    assert new_c.same_bits(full_grad)
    npt.assert_array_equal(update.delta_control.values, full_grad.values)


def test_update_control_variate_directly():
    shard = make_shard(n=8)
    w0 = init_params(SPEC, 1)
    w1 = init_params(SPEC, 2)
    zero = ParamVector.zeros(len(w0))
    got = update_control_variate("I", SPEC, shard, w0, w1, zero, zero, steps=3, lr=0.1)
    _, expected = loss_and_grad(SPEC, w0, shard.as_batch())
    assert got.same_bits(expected)
    got2 = update_control_variate("II", SPEC, shard, w0, w1, zero, zero, steps=4, lr=0.5)
    npt.assert_array_equal(got2.values, (w0.values - w1.values) / 2.0)
    with pytest.raises(ValueError):
        update_control_variate("X", SPEC, shard, w0, w1, zero, zero, 1, 0.1)
    with pytest.raises(ValueError):
        update_control_variate("II", SPEC, shard, w0, w1, zero, zero, 0, 0.1)


# ------------------------------------------------------------------ degenerate equivalences


def test_prox_mu_zero_is_bitwise_plain():
    shard = make_shard(n=18, seed=8)
    w0 = init_params(SPEC, 4)
    common = dict(local_epochs=2, batch_size=6, lr=0.05, momentum=0.9, weight_decay=1e-4)
    plain, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="sgd", **common), 3, 21)
    prox, _ = local_train(
        SPEC, w0, shard, ClientConfig(opt_c="prox", prox_mu=0.0, **common), 3, 21
    )
    assert plain.delta.same_bits(prox.delta)
    assert plain.train_loss == prox.train_loss


def test_scaf_equal_variates_matches_plain_values():
    shard = make_shard(n=18, seed=8)
    w0 = init_params(SPEC, 4)
    common = dict(local_epochs=2, batch_size=6, lr=0.05, momentum=0.9, weight_decay=1e-4)
    plain, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="sgd", **common), 3, 21)
    c = ParamVector(0.05 * np.arange(len(w0), dtype=np.float64))
    scaf, _ = local_train(
        SPEC, w0, shard, ClientConfig(opt_c="scaf", **common), 3, 21,
        global_c=c, local_c=c,
    )
    npt.assert_array_equal(scaf.delta.values, plain.delta.values)


def test_nova_delta_equals_plain_delta():
    # nova only adds bookkeeping on the client; the trajectory is identical
    shard = make_shard(n=15, seed=2)
    w0 = init_params(SPEC, 6)
    common = dict(local_epochs=1, batch_size=4, lr=0.03, momentum=0.9, weight_decay=1e-4)
    plain, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="sgd", **common), 1, 31)
    nova, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="nova", **common), 1, 31)
    assert plain.delta.same_bits(nova.delta)
    assert nova.coeff_norm == pytest.approx(accum_coeff_norm(0.9, plain.step_count), rel=1e-15)


# ------------------------------------------------------------------ behavior


def test_momentum_buffer_resets_every_round():
    shard = make_shard(n=12, seed=1)
    w0 = init_params(SPEC, 9)
    cfg = ClientConfig(opt_c="sgd", momentum=0.9, batch_size=4)
    first, _ = local_train(SPEC, w0, shard, cfg, round_idx=1, seed=7)
    second, _ = local_train(SPEC, w0, shard, cfg, round_idx=1, seed=7)
    assert first.delta.same_bits(second.delta)


def test_determinism_and_seed_sensitivity():
    shard = make_shard(n=25, seed=5)
    w0 = init_params(SPEC, 8)
    cfg = ClientConfig(opt_c="sgd", batch_size=8)
    a, _ = local_train(SPEC, w0, shard, cfg, 1, 100)
    b, _ = local_train(SPEC, w0, shard, cfg, 1, 100)
    c, _ = local_train(SPEC, w0, shard, cfg, 1, 101)
    assert a.delta.same_bits(b.delta)
    assert not a.delta.same_bits(c.delta)


def test_prox_pull_strengthens_with_mu():
    # larger mu anchors the local params closer to the global point
    shard = make_shard(n=32, seed=12)
    w0 = init_params(SPEC, 10)
    drifts = []
    for mu in (0.0, 0.05, 0.5, 5.0):
        cfg = ClientConfig(
            opt_c="prox", prox_mu=mu, local_epochs=4, batch_size=8,
            lr=0.1, momentum=0.0, weight_decay=0.0,
        )
        update, _ = local_train(SPEC, w0, shard, cfg, 1, 3)
        drifts.append(float(np.linalg.norm(update.delta.values)))
    assert drifts == sorted(drifts, reverse=True), drifts


def test_scaf_requires_control_variates():
    shard = make_shard()
    w0 = init_params(SPEC, 0)
    with pytest.raises(ValueError):
        local_train(SPEC, w0, shard, ClientConfig(opt_c="scaf"), 1, 0)


@pytest.mark.parametrize(
    "features, labels",
    [
        (np.zeros((3, 4)), np.array([0, -1, 2])),
        (np.array([[0.0, np.nan, 0.0, 0.0]] * 3), np.array([0, 1, 2])),
        (np.zeros(4), np.array([0, 1, 2, 0])),
        (np.zeros((3, 4)), np.array([0, 1])),
    ],
    ids=["negative-label", "nan-feature", "1d-features", "count-mismatch"],
)
def test_shard_validates_at_construction(features, labels):
    with pytest.raises(ValueError):
        ClientShard(0, features, labels)


def test_overflow_in_forward_pass_is_a_divergence():
    shard = make_shard(n=10, seed=3)
    w0 = ParamVector(np.full(SPEC.param_count, 1e308))
    with pytest.raises(DivergenceError) as exc_info:
        local_train(SPEC, w0, shard, ClientConfig(batch_size=4), round_idx=2, seed=1)
    err = exc_info.value
    assert (err.round_idx, err.client_id, err.step) == (2, 0, 0)
    assert str(err).endswith("loss is NaN or Inf")


def test_divergence_error_carries_location():
    shard = make_shard(n=10, seed=3)
    w0 = init_params(SPEC, 0)
    cfg = ClientConfig(opt_c="sgd", lr=1e300, batch_size=4, local_epochs=2)
    with pytest.raises(DivergenceError) as exc_info:
        local_train(SPEC, w0, shard, cfg, round_idx=7, seed=1)
    err = exc_info.value
    assert err.round_idx == 7
    assert err.client_id == 0
    assert err.step is not None and err.step >= 1
    assert "round 7" in str(err) and "client 0" in str(err)
