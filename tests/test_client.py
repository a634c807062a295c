from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from fedsim import client as client_mod
from fedsim.client import (
    ClientConfig,
    DivergenceError,
    accum_coeff_norm,
    cohort_size,
    local_train,
    train_cohort,
    update_control_variate,
)
from fedsim.data import epoch_batches
from fedsim.model import Batch, ModelSpec, init_params, loss_and_grad
from fedsim.params import NonFiniteError, ParamVector
from fedsim.server import ServerConfig, ServerState, aggregate, aggregate_control, server_step

SPEC = ModelSpec("logistic", 4, 3)
MLP_RELU = ModelSpec("mlp1", 4, 3, hidden_dim=5, activation="relu")
MLP_TANH = ModelSpec("mlp1", 4, 3, hidden_dim=5, activation="tanh")


def make_shard(n=20, seed=0, spec=SPEC) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(
        rng.normal(size=(n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n).astype(np.int64),
    )


def replay(shard: Batch, w0: ParamVector, cfg: ClientConfig, seed: int,
           c_global: np.ndarray | None = None, c_local: np.ndarray | None = None,
           spec: ModelSpec = SPEC):
    """Straight-line reimplementation of the local update loop."""
    w = w0.values.copy()
    u = np.zeros_like(w)
    losses = []
    steps = 0
    for epoch in range(cfg.local_epochs):
        for bidx in epoch_batches(np.arange(len(shard)), cfg.batch_size, epoch, seed):
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


def seeded_orders(shards, cfg: ClientConfig, seeds):
    """Each shard's batch orders, one per local epoch, drawn from its seed
    by ``epoch_batches`` as ``local_train`` draws them."""
    return [
        [
            np.concatenate(epoch_batches(np.arange(len(shard)), cfg.batch_size, epoch, seed))
            for epoch in range(cfg.local_epochs)
        ]
        for shard, seed in zip(shards, seeds)
    ]


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
    update, ctrl = local_train(SPEC, w0, shard, cfg, round_idx=1, client_id=0, seed=5)
    assert ctrl is None
    assert update.step_count == 1
    assert update.num_samples == 10
    _, grad = loss_and_grad(SPEC, w0, shard)
    # row order inside the single batch is shuffled, so the gradient mean
    # accumulates in a different order: equality holds to rounding error
    npt.assert_allclose(update.delta.values, -0.1 * grad.values, rtol=1e-12, atol=1e-15)
    assert update.delta_control is None
    assert update.coeff_norm is None


def test_step_count_is_epochs_times_batches():
    shard = make_shard(n=20)
    cfg = ClientConfig(opt_c="sgd", local_epochs=3, batch_size=8)
    update, _ = local_train(SPEC, init_params(SPEC, 0), shard, cfg, 1, 0, 2)
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
    update, _ = local_train(spec, w0, shard, cfg, round_idx=4, client_id=0, seed=11, **controls)
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
    update, new_c = local_train(SPEC, w0, shard, cfg, 1, 0, 11, global_c=c_g, local_c=c_l)
    returned = (update.delta, update.delta_control, new_c)
    kept = [vec.values.copy() for vec in returned]
    for vec in returned:
        assert not vec.values.flags.writeable
    # A later call must not write through any buffer of the first one.
    second, _ = local_train(
        SPEC, w0, make_shard(n=23, seed=4), cfg, 2, 0, 12, global_c=c_g, local_c=new_c
    )
    for vec, bits in zip(returned, kept):
        npt.assert_array_equal(vec.values, bits)
    npt.assert_array_equal(w0.values, w0_bits)

    # Nor may option II's control variate or the server's outputs share a
    # buffer with what they were made from.
    updates = [update, second]
    nova = [replace(u, coeff_norm=float(u.step_count)) for u in updates]
    state = replace(ServerState.initial(w0), m=c_g, v=ParamVector(np.abs(c_l.values)))
    served = [aggregate(updates), aggregate(nova), aggregate_control(updates)]
    w1 = ParamVector(w0.values + update.delta.values)
    served.append(update_control_variate("II", SPEC, shard, w0, w1, c_g, c_l, 3, cfg.lr))
    for opt_s in ("sgd", "adam", "adagrad", "yogi"):
        new = server_step(state, served[0], ServerConfig(opt_s=opt_s))
        served += [new.w, new.m, new.v]
    inputs = [
        w0, w1, c_g, c_l, new_c, state.m, state.v, *served[:3],
        *(vec for u in updates for vec in (u.delta, u.delta_control)),
    ]
    for vec in served:
        assert not vec.values.flags.writeable
        for other in inputs:
            assert vec is other or not np.shares_memory(vec.values, other.values)


def test_scaf_matches_replay_and_option_two_identity():
    shard = make_shard(n=16, seed=4)
    w0 = init_params(SPEC, 5)
    rng = np.random.default_rng(6)
    c_g = ParamVector(0.01 * rng.normal(size=len(w0)))
    c_l = ParamVector(0.01 * rng.normal(size=len(w0)))
    cfg = ClientConfig(opt_c="scaf", local_epochs=2, batch_size=4, lr=0.02,
                       momentum=0.5, weight_decay=0.0, control_option="II")
    update, new_c = local_train(
        SPEC, w0, shard, cfg, round_idx=2, client_id=0, seed=13, global_c=c_g, local_c=c_l
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
        SPEC, w0, shard, cfg, round_idx=1, client_id=0, seed=17, global_c=zero, local_c=zero
    )
    _, full_grad = loss_and_grad(SPEC, w0, shard)
    assert new_c.same_bits(full_grad)
    npt.assert_array_equal(update.delta_control.values, full_grad.values)


def test_update_control_variate_directly():
    shard = make_shard(n=8)
    w0 = init_params(SPEC, 1)
    w1 = init_params(SPEC, 2)
    zero = ParamVector.zeros(len(w0))
    got = update_control_variate("I", SPEC, shard, w0, w1, zero, zero, steps=3, lr=0.1)
    _, expected = loss_and_grad(SPEC, w0, shard)
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
    plain, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="sgd", **common), 3, 0, 21)
    prox, _ = local_train(
        SPEC, w0, shard, ClientConfig(opt_c="prox", prox_mu=0.0, **common), 3, 0, 21
    )
    assert plain.delta.same_bits(prox.delta)
    assert plain.train_loss == prox.train_loss


def test_scaf_equal_variates_matches_plain_values():
    shard = make_shard(n=18, seed=8)
    w0 = init_params(SPEC, 4)
    common = dict(local_epochs=2, batch_size=6, lr=0.05, momentum=0.9, weight_decay=1e-4)
    plain, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="sgd", **common), 3, 0, 21)
    c = ParamVector(0.05 * np.arange(len(w0), dtype=np.float64))
    scaf, _ = local_train(
        SPEC, w0, shard, ClientConfig(opt_c="scaf", **common), 3, 0, 21,
        global_c=c, local_c=c,
    )
    npt.assert_array_equal(scaf.delta.values, plain.delta.values)


def test_nova_delta_equals_plain_delta():
    # nova only adds bookkeeping on the client; the trajectory is identical
    shard = make_shard(n=15, seed=2)
    w0 = init_params(SPEC, 6)
    common = dict(local_epochs=1, batch_size=4, lr=0.03, momentum=0.9, weight_decay=1e-4)
    plain, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="sgd", **common), 1, 0, 31)
    nova, _ = local_train(SPEC, w0, shard, ClientConfig(opt_c="nova", **common), 1, 0, 31)
    assert plain.delta.same_bits(nova.delta)
    assert nova.coeff_norm == pytest.approx(accum_coeff_norm(0.9, plain.step_count), rel=1e-15)


# ------------------------------------------------------------------ behavior


def test_momentum_buffer_resets_every_round():
    shard = make_shard(n=12, seed=1)
    w0 = init_params(SPEC, 9)
    cfg = ClientConfig(opt_c="sgd", momentum=0.9, batch_size=4)
    first, _ = local_train(SPEC, w0, shard, cfg, round_idx=1, client_id=0, seed=7)
    second, _ = local_train(SPEC, w0, shard, cfg, round_idx=1, client_id=0, seed=7)
    assert first.delta.same_bits(second.delta)


def test_determinism_and_seed_sensitivity():
    shard = make_shard(n=25, seed=5)
    w0 = init_params(SPEC, 8)
    cfg = ClientConfig(opt_c="sgd", batch_size=8)
    a, _ = local_train(SPEC, w0, shard, cfg, 1, 0, 100)
    b, _ = local_train(SPEC, w0, shard, cfg, 1, 0, 100)
    c, _ = local_train(SPEC, w0, shard, cfg, 1, 0, 101)
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
        update, _ = local_train(SPEC, w0, shard, cfg, 1, 0, 3)
        drifts.append(float(np.linalg.norm(update.delta.values)))
    assert drifts == sorted(drifts, reverse=True), drifts


def test_scaf_requires_control_variates():
    shard = make_shard()
    w0 = init_params(SPEC, 0)
    with pytest.raises(ValueError):
        local_train(SPEC, w0, shard, ClientConfig(opt_c="scaf"), 1, 0, 0)


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
        Batch(features, labels)


def test_overflow_in_forward_pass_is_a_divergence():
    shard = make_shard(n=10, seed=3)
    w0 = ParamVector(np.full(SPEC.param_count, 1e308))
    with pytest.raises(DivergenceError) as exc_info:
        local_train(SPEC, w0, shard, ClientConfig(batch_size=4), round_idx=2, client_id=0, seed=1)
    err = exc_info.value
    assert (err.round_idx, err.client_id, err.step) == (2, 0, 0)
    assert str(err).endswith("loss is NaN or Inf")


def test_divergence_error_carries_location():
    shard = make_shard(n=10, seed=3)
    w0 = init_params(SPEC, 0)
    cfg = ClientConfig(opt_c="sgd", lr=1e300, batch_size=4, local_epochs=2)
    with pytest.raises(DivergenceError) as exc_info:
        local_train(SPEC, w0, shard, cfg, round_idx=7, client_id=4, seed=1)
    err = exc_info.value
    assert err.round_idx == 7
    assert err.client_id == 4
    assert err.step is not None and err.step >= 1
    assert "round 7" in str(err) and "client 4" in str(err)


def test_non_finite_control_variate_is_the_clients_divergence(monkeypatch):
    def blow_up(*args, **kwargs):
        raise NonFiniteError("vector contains NaN or Inf")

    monkeypatch.setattr(client_mod, "update_control_variate", blow_up)
    shards = [make_shard(n, seed=cid) for cid, n in enumerate((8, 12))]
    w0 = init_params(SPEC, 0)
    zero = ParamVector.zeros(len(w0))
    cfg = ClientConfig(opt_c="scaf", batch_size=4)
    with pytest.raises(DivergenceError) as exc_info:
        train_cohort(
            SPEC, w0, shards, cfg, 5, [6, 9], seeded_orders(shards, cfg, (1, 2)),
            global_c=zero, local_cs=[zero, zero],
        )
    err = exc_info.value
    assert (err.round_idx, err.client_id, err.step) == (5, 6, 2)
    assert str(err) == "divergence at round 5, client 6, local step 2: vector contains NaN or Inf"


def overflowing_start() -> ParamVector:
    """Zero weights and equal biases of 1.1e308: with lr 1, momentum 0.9
    and weight decay 0.8 the biases go 1.1e308 -> 0.22e308 -> -0.748e308,
    every loss and step finite, so a client of two steps ends with a
    delta of -1.848e308, which overflows, and one of one step does not."""
    values = np.zeros(SPEC.param_count)
    values[-SPEC.num_classes :] = 1.1e308
    return ParamVector(values)


OVERFLOW_CFG = ClientConfig(batch_size=4, lr=1.0, momentum=0.9, weight_decay=0.8)


def test_a_delta_that_overflows_is_the_clients_divergence_after_its_steps():
    w0 = overflowing_start()
    with pytest.raises(DivergenceError) as exc_info:
        local_train(SPEC, w0, make_shard(8, seed=1), OVERFLOW_CFG, round_idx=3, client_id=6, seed=1)
    err = exc_info.value
    assert (err.round_idx, err.client_id, err.step) == (3, 6, 2)
    assert str(err) == "divergence at round 3, client 6, local step 2: vector contains NaN or Inf"
    update, _ = local_train(SPEC, w0, make_shard(4, seed=0), OVERFLOW_CFG, round_idx=3, client_id=5, seed=1)
    assert np.isfinite(update.delta.values).all() and update.step_count == 1


def test_a_cohorts_errors_keep_the_callers_order(monkeypatch):
    # Client 5 (one step) keeps a finite delta, client 6 (two steps) overflows.
    shards = [make_shard(4, seed=0), make_shard(8, seed=1)]
    w0 = overflowing_start()
    for ids, order in (([5, 6], [0, 1]), ([6, 5], [1, 0])):
        with pytest.raises(DivergenceError) as exc_info:
            train_cohort(
                SPEC, w0, [shards[i] for i in order], OVERFLOW_CFG, 3, ids,
                [seeded_orders(shards, OVERFLOW_CFG, (1, 1))[i] for i in order],
            )
        assert (exc_info.value.client_id, exc_info.value.step) == (6, 2)

    # Under scaf, a control-variate error of an earlier client comes first.
    def blow_up_for_client_5(option, spec, shard, *args, **kwargs):
        if shard is shards[0]:
            raise NonFiniteError("vector contains NaN or Inf")
        return ParamVector.zeros(spec.param_count)

    monkeypatch.setattr(client_mod, "update_control_variate", blow_up_for_client_5)
    cfg = replace(OVERFLOW_CFG, opt_c="scaf")
    zero = ParamVector.zeros(SPEC.param_count)
    for ids, order, want in (([5, 6], [0, 1], (5, 1)), ([6, 5], [1, 0], (6, 2))):
        with pytest.raises(DivergenceError) as exc_info:
            train_cohort(
                SPEC, w0, [shards[i] for i in order], cfg, 3, ids,
                [seeded_orders(shards, cfg, (1, 1))[i] for i in order],
                global_c=zero, local_cs=[zero, zero],
            )
        assert (exc_info.value.client_id, exc_info.value.step) == want
        assert str(exc_info.value).endswith("vector contains NaN or Inf")


def test_a_cohorts_deltas_are_read_only_all_the_way_down():
    shards = [make_shard(n, seed=cid) for cid, n in enumerate((8, 12, 5))]
    cfg = ClientConfig(batch_size=4)
    results = train_cohort(
        SPEC, init_params(SPEC, 0), shards, cfg, 1, [0, 1, 2], seeded_orders(shards, cfg, (1, 2, 3))
    )
    base = results[0][0].delta.values.base
    assert base is not None and not base.flags.writeable
    for update, _ in results:
        values = update.delta.values
        assert values.base is base and not values.flags.writeable
        with pytest.raises(ValueError):
            values.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


# ------------------------------------------------------------------ cohorts

# With batch_size 4: full batches of 4 and partial last batches of 1, 1,
# 2 and 3 rows, so a step's groups hold runs of rows and scattered rows.
COHORT_SIZES = (13, 4, 8, 3, 13, 1, 20, 6, 9)


def assert_same_result(got, want):
    (update, new_c), (ref, ref_c) = got, want
    assert update.client_id == ref.client_id
    assert update.delta.same_bits(ref.delta)
    assert (update.num_samples, update.step_count) == (ref.num_samples, ref.step_count)
    assert np.float64(update.train_loss).tobytes() == np.float64(ref.train_loss).tobytes()
    assert update.coeff_norm == ref.coeff_norm
    for vec, ref_vec in ((update.delta_control, ref.delta_control), (new_c, ref_c)):
        assert (vec is None) == (ref_vec is None)
        assert vec is None or vec.same_bits(ref_vec)


def _cohort_cases():
    for name, spec in (("logistic", SPEC), ("relu", MLP_RELU)):
        for epochs in (1, 2):
            for opt_c in ("sgd", "prox", "nova"):
                yield pytest.param(spec, opt_c, epochs, "I", id=f"{name}-{opt_c}-e{epochs}")
            for option in ("I", "II"):
                yield pytest.param(spec, "scaf", epochs, option, id=f"{name}-scaf{option}-e{epochs}")


@pytest.mark.parametrize("spec,opt_c,epochs,option", list(_cohort_cases()))
def test_cohort_matches_each_client_alone(spec, opt_c, epochs, option):
    shards = [make_shard(n, seed=cid, spec=spec) for cid, n in enumerate(COHORT_SIZES)]
    ids = list(range(len(shards)))
    seeds = [40 + cid for cid in ids]
    w0 = init_params(spec, 3)
    cfg = ClientConfig(opt_c=opt_c, local_epochs=epochs, batch_size=4, lr=0.05, control_option=option)
    controls = {}
    local_cs = [None] * len(shards)
    if opt_c == "scaf":
        rng = np.random.default_rng(5)
        local_cs = [ParamVector(0.1 * rng.normal(size=len(w0))) for _ in shards]
        controls = dict(global_c=ParamVector(0.1 * rng.normal(size=len(w0))), local_cs=local_cs)
    orders = seeded_orders(shards, cfg, seeds)
    cohort = train_cohort(spec, w0, shards, cfg, 2, ids, orders, **controls)
    assert len(cohort) == len(shards)
    for shard, cid, seed, local_c, got in zip(shards, ids, seeds, local_cs, cohort):
        alone = local_train(
            spec, w0, shard, cfg, 2, cid, seed, global_c=controls.get("global_c"), local_c=local_c
        )
        assert got[0].client_id == cid
        assert_same_result(got, alone)


@pytest.mark.parametrize("opt_c", ["sgd", "scaf"])
@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("permutation", ["reversed", "shuffled"])
def test_cohort_order_is_invisible(permutation, epochs, opt_c):
    """train_cohort sorts its rows into slots of its own; a permuted
    cohort returns the permuted results, bit for bit."""
    count = len(COHORT_SIZES)
    shards = [make_shard(n, seed=cid) for cid, n in enumerate(COHORT_SIZES)]
    w0 = init_params(SPEC, 3)
    cfg = ClientConfig(opt_c=opt_c, local_epochs=epochs, batch_size=4, lr=0.05)
    orders = seeded_orders(shards, cfg, [40 + cid for cid in range(count)])
    rng = np.random.default_rng(6)
    local_cs = [ParamVector(0.1 * rng.normal(size=len(w0))) for _ in shards]
    global_c = ParamVector(0.1 * rng.normal(size=len(w0)))

    def train(perm):
        controls = {}
        if opt_c == "scaf":
            controls = dict(global_c=global_c, local_cs=[local_cs[i] for i in perm])
        return train_cohort(
            SPEC, w0, [shards[i] for i in perm], cfg, 2, list(perm), [orders[i] for i in perm],
            **controls,
        )

    base = train(range(count))
    perm = range(count)[::-1] if permutation == "reversed" else rng.permutation(count).tolist()
    for i, got in zip(perm, train(perm)):
        assert got[0].client_id == i
        assert_same_result(got, base[i])


def _diverging_shard(seed, n, huge_rows):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, SPEC.input_dim))
    features[:huge_rows] *= 1e300
    return Batch(features, rng.integers(0, SPEC.num_classes, size=n))


@pytest.mark.parametrize(
    "lr, order, message",
    [
        (0.1, [0, 1, 2], "client 3, local step 2: loss is NaN or Inf"),
        (1e300, [0, 1, 2], "client 3, local step 2: parameters became NaN or Inf"),
        (0.1, [1, 0, 2], "client 5, local step 0: loss is NaN or Inf"),
    ],
    ids=["loss", "parameters", "reversed"],
)
def test_cohort_raises_the_first_clients_divergence(lr, order, message):
    """Client 5's rows are all huge, so its loss overflows at step 0;
    client 3 diverges at a later step on its one huge row.  Whichever
    comes first in cohort order is reported, as when clients trained one
    after another (the messages are those clients trained alone give)."""
    values = init_params(SPEC, 0).values.copy()
    values[0 : SPEC.input_dim * SPEC.num_classes : SPEC.num_classes] = 1e10
    w0 = ParamVector(values)
    all_ids = [3, 5, 8]
    all_shards = [_diverging_shard(3, 13, 1), _diverging_shard(5, 10, 10), _diverging_shard(8, 6, 0)]
    shards = [all_shards[i] for i in order]
    ids = [all_ids[i] for i in order]
    seeds = [2 + i for i in order]
    cfg = ClientConfig(opt_c="sgd", lr=lr, batch_size=4, local_epochs=2)
    with pytest.raises(DivergenceError) as exc_info:
        train_cohort(SPEC, w0, shards, cfg, 3, ids, seeded_orders(shards, cfg, seeds))
    assert str(exc_info.value) == f"divergence at round 3, {message}"
    with pytest.raises(DivergenceError) as alone:
        for shard, cid, seed in zip(shards, ids, seeds):
            local_train(SPEC, w0, shard, cfg, 3, cid, seed)
    assert str(alone.value) == str(exc_info.value)


def test_a_finish_phase_error_comes_before_a_later_clients_step_error(monkeypatch):
    """Client 6's 8 rows take fewer steps than client 9's 12, so it trains
    in a later slot; its non-finite control variate is still raised
    before client 9's divergence in its steps, as one after another."""
    real = client_mod.update_control_variate

    def blow_up_for_eight_rows(option, spec, shard, *args, **kwargs):
        if len(shard) == 8:
            raise NonFiniteError("vector contains NaN or Inf")
        return real(option, spec, shard, *args, **kwargs)

    monkeypatch.setattr(client_mod, "update_control_variate", blow_up_for_eight_rows)
    values = init_params(SPEC, 0).values.copy()
    values[0 : SPEC.input_dim * SPEC.num_classes : SPEC.num_classes] = 1e10
    w0 = ParamVector(values)
    shards = [make_shard(8, seed=1), _diverging_shard(3, 12, 1)]
    zero = ParamVector.zeros(len(w0))
    cfg = ClientConfig(opt_c="scaf", batch_size=4, lr=0.1)
    with pytest.raises(DivergenceError) as exc_info:
        train_cohort(
            SPEC, w0, shards, cfg, 5, [6, 9], seeded_orders(shards, cfg, (1, 2)),
            global_c=zero, local_cs=[zero, zero],
        )
    want = "divergence at round 5, client 6, local step 2: vector contains NaN or Inf"
    assert str(exc_info.value) == want
    with pytest.raises(DivergenceError) as alone:
        for shard, cid, seed in zip(shards, (6, 9), (1, 2)):
            local_train(SPEC, w0, shard, cfg, 5, cid, seed, global_c=zero, local_c=zero)
    assert str(alone.value) == want
    with pytest.raises(DivergenceError, match="client 9, local step"):
        local_train(SPEC, w0, shards[1], cfg, 5, 9, 2, global_c=zero, local_c=zero)


def test_batch_size_past_every_shard_trains_each_shard_as_one_batch():
    shards = [make_shard(n, seed=cid) for cid, n in enumerate((5, 9, 2))]
    w0 = init_params(SPEC, 1)
    cfg = ClientConfig(batch_size=10**12)
    huge = train_cohort(SPEC, w0, shards, cfg, 1, [0, 1, 2], seeded_orders(shards, cfg, (7, 8, 9)))
    for cid, shard, seed, got in zip((0, 1, 2), shards, (7, 8, 9), huge):
        exact = ClientConfig(batch_size=len(shard))
        assert_same_result(got, local_train(SPEC, w0, shard, exact, 1, cid, seed))
        assert got[0].step_count == 1


def test_cohort_needs_one_id_and_one_seed_per_shard():
    shards = [make_shard(n, seed=cid) for cid, n in enumerate((5, 9))]
    w0 = init_params(SPEC, 1)
    for ids, seeds in (([0], [7, 8]), ([0, 1], [7]), ([0, 1, 2], [7, 8])):
        orders = seeded_orders(shards, ClientConfig(), seeds)
        with pytest.raises(ValueError):
            train_cohort(SPEC, w0, shards, ClientConfig(), 1, ids, orders)


def test_cohort_size_caps_a_cohorts_bytes():
    # desk's logistic model, sweep-csv's, and mlp-wide's (one per cohort).
    assert cohort_size(210) == 156
    assert cohort_size(310) == 105
    assert cohort_size(54_026) == 1
