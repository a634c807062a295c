from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from fedsim.client import ClientUpdate
from fedsim.params import NonFiniteError, ParamVector
from fedsim.server import (
    RoundSum,
    ServerConfig,
    ServerState,
    aggregate,
    aggregate_control,
    server_step,
)


def upd(cid, delta, n, coeff_norm=None, delta_control=None):
    return ClientUpdate(
        client_id=cid,
        delta=ParamVector(delta),
        num_samples=n,
        step_count=1,
        train_loss=0.0,
        delta_control=None if delta_control is None else ParamVector(delta_control),
        coeff_norm=coeff_norm,
    )


# ------------------------------------------------------------------ config


def test_server_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(opt_s="rmsprop")
    with pytest.raises(ValueError):
        ServerConfig(server_lr=0.0)
    with pytest.raises(ValueError):
        ServerConfig(beta1=1.0)
    with pytest.raises(ValueError):
        ServerConfig(beta2=-0.1)
    with pytest.raises(ValueError):
        ServerConfig(eps=0.0)


def test_server_lr_defaults():
    assert ServerConfig(opt_s="sgd").lr == 1.0
    assert ServerConfig(opt_s="adam").lr == 0.005
    assert ServerConfig(opt_s="adagrad").lr == 0.005
    assert ServerConfig(opt_s="yogi").lr == 0.005
    assert ServerConfig(opt_s="sgd", server_lr=0.25).lr == 0.25


def test_initial_state_is_zeroed():
    w = ParamVector([1.0, -2.0])
    state = ServerState.initial(w)
    assert state.w.same_bits(w)
    npt.assert_array_equal(state.c.values, [0.0, 0.0])
    npt.assert_array_equal(state.m.values, [0.0, 0.0])
    npt.assert_array_equal(state.v.values, [0.0, 0.0])


# ------------------------------------------------------------------ aggregation


def test_weighted_avg_hand_example():
    # weights 1/4, 1/4, 2/4: 4*0.25 + 0*0.25 + 2*0.5 = 2
    out = aggregate([upd(0, [4.0], 1), upd(1, [0.0], 1), upd(2, [2.0], 2)])
    assert out.values[0] == 2.0


def test_weighted_avg_equal_sizes_is_plain_mean():
    out = aggregate([upd(0, [1.0, 5.0], 7), upd(1, [3.0, -1.0], 7)])
    npt.assert_allclose(out.values, [2.0, 2.0], rtol=1e-15)


def test_weighted_avg_is_linear_in_deltas():
    rng = np.random.default_rng(0)
    deltas = [rng.normal(size=6) for _ in range(3)]
    sizes = [2, 5, 3]
    base = aggregate([upd(i, d, n) for i, (d, n) in enumerate(zip(deltas, sizes))])
    scaled = aggregate([upd(i, 3.0 * d, n) for i, (d, n) in enumerate(zip(deltas, sizes))])
    npt.assert_allclose(scaled.values, 3.0 * base.values, rtol=1e-13)


def test_nova_hand_example():
    # p = (0.25, 0.75), norms (2, 4), deltas (8, 4):
    # normalized mean = 0.25*(8/2) + 0.75*(4/4) = 1.75
    # effective norm  = 0.25*2 + 0.75*4 = 3.5  ->  1.75 * 3.5 = 6.125
    out = aggregate([upd(0, [8.0], 1, coeff_norm=2.0), upd(1, [4.0], 3, coeff_norm=4.0)])
    assert out.values[0] == pytest.approx(6.125, abs=1e-15)


def test_nova_equals_weighted_avg_when_homogeneous():
    rng = np.random.default_rng(1)
    deltas = [rng.normal(size=8) for _ in range(6)]
    nova = aggregate([upd(i, d, 5, coeff_norm=4.25) for i, d in enumerate(deltas)])
    avg = aggregate([upd(i, d, 5) for i, d in enumerate(deltas)])
    npt.assert_allclose(nova.values, avg.values, rtol=0, atol=1e-12)


def test_nova_requires_coeff_norms():
    # Norms on some updates but not all: which rule applies is ambiguous.
    with pytest.raises(ValueError, match=r"coeff_norm.*client 1"):
        aggregate([upd(0, [1.0], 1, coeff_norm=2.0), upd(1, [1.0], 1)])
    with pytest.raises(ValueError, match=r"coeff_norm.*client 0"):
        aggregate([upd(0, [1.0], 1), upd(1, [1.0], 1, coeff_norm=2.0)])
    for norm in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=r"positive coeff_norm.*client 1"):
            aggregate([upd(0, [1.0], 1, coeff_norm=2.0), upd(1, [1.0], 1, coeff_norm=norm)])


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([upd(0, [1.0], 1), upd(1, [1.0, 2.0], 1)])
    with pytest.raises(ValueError):
        aggregate([upd(0, [1.0], 0)])


def test_aggregate_control():
    out = aggregate_control(
        [upd(0, [0.0], 1, delta_control=[2.0]), upd(1, [0.0], 3, delta_control=[-2.0])]
    )
    assert out.values[0] == pytest.approx(0.25 * 2.0 + 0.75 * (-2.0), abs=1e-15)
    with pytest.raises(ValueError, match="control"):
        aggregate_control([upd(0, [1.0], 1)])


def weighted_sum(weights, vectors, length):
    """The arithmetic aggregation has always had: sum_i weights[i] *
    vectors[i], added in order into zeros, one vector at a time."""
    acc = np.zeros(length)
    for wgt, vec in zip(weights, vectors):
        acc += wgt * vec
    return acc


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 9),
    length=st.integers(1, 70),
    kind=st.sampled_from(["plain", "nova", "scaf"]),
)
def test_a_fold_gives_the_bits_of_a_weighted_sum(seed, count, length, kind):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 10 ** int(rng.integers(1, 7)), size=count)
    norms = rng.uniform(0.01, 100.0, size=count).tolist()
    scale = 10.0 ** rng.uniform(-6, 6)
    deltas = [rng.normal(scale=scale, size=length) for _ in range(count)]
    controls = [rng.normal(scale=scale, size=length) for _ in range(count)]
    nova, scaf = kind == "nova", kind == "scaf"
    updates = [
        upd(i, deltas[i], int(sizes[i]), norms[i] if nova else None, controls[i] if scaf else None)
        for i in range(count)
    ]

    weights = sizes.astype(np.float64) / sizes.astype(np.float64).sum()
    if nova:
        want = weighted_sum(weights, (d / n for d, n in zip(deltas, norms)), length)
        want *= float(np.dot(weights, norms))
    else:
        want = weighted_sum(weights, deltas, length)

    sums = RoundSum(sizes.tolist(), length, control=scaf, normalized=nova)
    for u in updates:
        sums.add(u)
    for got in (aggregate(updates), aggregate(sums)):
        assert got.values.tobytes() == want.tobytes()
    if scaf:
        want_c = weighted_sum(weights, controls, length)
        for got in (aggregate_control(updates), aggregate_control(sums)):
            assert got.values.tobytes() == want_c.tobytes()


def test_a_round_sum_is_finished_only_when_every_update_is_in():
    sums = RoundSum([1, 3], 1, control=True)
    sums.add(upd(0, [1.0], 1, delta_control=[2.0]))
    with pytest.raises(ValueError, match="holds 1 of 2 updates"):
        aggregate(sums)
    with pytest.raises(ValueError, match="holds 1 of 2 updates"):
        aggregate_control(sums)
    sums.add(upd(1, [5.0], 3, delta_control=[-2.0]))
    assert aggregate(sums).values[0] == 0.25 * 1.0 + 0.75 * 5.0
    assert aggregate_control(sums).values[0] == 0.25 * 2.0 + 0.75 * (-2.0)
    plain = RoundSum([1], 1)
    plain.add(upd(0, [1.0], 1, delta_control=[2.0]))
    with pytest.raises(ValueError, match="no control differences"):
        aggregate_control(plain)


def test_a_round_sum_takes_no_update_past_its_end():
    sums = RoundSum([1], 1)
    sums.add(upd(0, [1.0], 1))
    with pytest.raises(ValueError, match=r"^round sum already holds 1 of 1 updates$"):
        sums.add(upd(1, [2.0], 1))
    assert sums.count == 1 and sums.delta.tolist() == [1.0]


@pytest.mark.parametrize("kind", ["plain", "nova", "scaf"])
def test_finishing_a_round_sum_twice_gives_the_same_bits(kind):
    nova, scaf = kind == "nova", kind == "scaf"
    sums = RoundSum([1, 3], 2, control=scaf, normalized=nova)
    for cid, n in ((0, 1), (1, 3)):
        sums.add(upd(cid, [1.0, -2.0], n, 2.0 if nova else None, [0.5, 1.0] if scaf else None))
    first, again = aggregate(sums), aggregate(sums)
    assert first.values.tolist() == [1.0, -2.0]
    assert again.same_bits(first)
    # FedNova's rescaling goes into a new array: the fold keeps its sum
    # of normalized deltas.
    assert sums.delta.tolist() == ([0.5, -1.0] if nova else [1.0, -2.0])
    if scaf:
        control, again = aggregate_control(sums), aggregate_control(sums)
        assert control.values.tolist() == [0.5, 1.0]
        assert again.same_bits(control)
    with pytest.raises(ValueError, match="already holds 2 of 2 updates"):
        sums.add(upd(2, [1.0, 1.0], 1))


# ------------------------------------------------------------------ server step


def test_sgd_step_unit_lr_adds_delta_exactly():
    w = ParamVector([1.0, -2.0, 0.5])
    delta = ParamVector([0.25, 0.5, -1.0])
    state = ServerState.initial(w)
    new = server_step(state, delta, ServerConfig(opt_s="sgd"))
    npt.assert_array_equal(new.w.values, w.values + delta.values)
    # moments and control must be untouched by the sgd path
    assert new.m.same_bits(state.m)
    assert new.v.same_bits(state.v)
    assert new.c.same_bits(state.c)


def test_sgd_step_respects_lr():
    state = ServerState.initial(ParamVector([0.0]))
    new = server_step(state, ParamVector([2.0]), ServerConfig(opt_s="sgd", server_lr=0.25))
    assert new.w.values[0] == 0.5


@pytest.mark.parametrize("opt_s", ["adam", "adagrad", "yogi"])
def test_adaptive_first_step_hand_algebra(opt_s):
    # From zero state with every delta element 0.1, independently derived:
    #   m = (1 - 0.9) * 0.1
    #   adagrad: v = 0.1^2          adam/yogi: v = (1 - 0.99) * 0.1^2
    #   w = 0.005 * m / (sqrt(v) + 1e-8)
    d = 0.1
    m = (1.0 - 0.9) * d
    v = d * d if opt_s == "adagrad" else (1.0 - 0.99) * (d * d)
    expected = 0.005 * m / (np.sqrt(v) + 1e-8)
    state = ServerState.initial(ParamVector.zeros(4))
    new = server_step(state, ParamVector(np.full(4, d)), ServerConfig(opt_s=opt_s))
    npt.assert_allclose(new.w.values, np.full(4, expected), rtol=0, atol=1e-12)
    npt.assert_allclose(new.m.values, np.full(4, m), rtol=0, atol=1e-15)
    npt.assert_allclose(new.v.values, np.full(4, v), rtol=0, atol=1e-15)


def test_yogi_sign_zero_leaves_v_unchanged():
    # when v == delta^2 the sign term is 0 and v must stay exactly put
    d = np.array([0.2, -0.3])
    state = ServerState(
        w=ParamVector.zeros(2),
        c=ParamVector.zeros(2),
        m=ParamVector.zeros(2),
        v=ParamVector(d * d),
    )
    new = server_step(state, ParamVector(d), ServerConfig(opt_s="yogi"))
    assert new.v.same_bits(state.v)


@pytest.mark.parametrize("opt_s", ["adam", "adagrad", "yogi"])
def test_adaptive_v_stays_nonnegative(opt_s):
    # v >= 0 is what keeps sqrt(v) finite in every adaptive rule
    rng = np.random.default_rng(3)
    state = ServerState.initial(ParamVector.zeros(5))
    cfg = ServerConfig(opt_s=opt_s)
    for _ in range(200):
        state = server_step(state, ParamVector(rng.normal(scale=0.5, size=5)), cfg)
        assert (state.v.values >= 0.0).all()


def test_adagrad_v_is_monotone_nondecreasing():
    rng = np.random.default_rng(4)
    state = ServerState.initial(ParamVector.zeros(5))
    cfg = ServerConfig(opt_s="adagrad")
    for _ in range(50):
        prev = state.v.values
        state = server_step(state, ParamVector(rng.normal(size=5)), cfg)
        assert (state.v.values >= prev).all()


def test_yogi_and_adam_agree_on_first_step_only():
    state = ServerState.initial(ParamVector.zeros(3))
    delta = ParamVector([0.1, 0.2, -0.1])
    a1 = server_step(state, delta, ServerConfig(opt_s="adam"))
    y1 = server_step(state, delta, ServerConfig(opt_s="yogi"))
    npt.assert_allclose(a1.w.values, y1.w.values, atol=1e-15)
    delta2 = ParamVector([0.01, 0.3, -0.05])
    a2 = server_step(a1, delta2, ServerConfig(opt_s="adam"))
    y2 = server_step(y1, delta2, ServerConfig(opt_s="yogi"))
    assert not np.array_equal(a2.v.values, y2.v.values)


def test_length_mismatch_rejected():
    state = ServerState.initial(ParamVector.zeros(3))
    with pytest.raises(ValueError):
        server_step(state, ParamVector.zeros(4), ServerConfig(opt_s="sgd"))


@pytest.mark.parametrize("opt_s", ["sgd", "adam"])
def test_server_step_overflow_is_non_finite_error(opt_s):
    # sgd overflows in w + lr * delta, adam in delta**2; either way the
    # result is a divergence, not a stray numpy warning.
    state = ServerState.initial(ParamVector.zeros(3))
    cfg = ServerConfig(opt_s=opt_s, server_lr=1e300)
    with pytest.raises(NonFiniteError):
        server_step(state, ParamVector(np.full(3, 1e200)), cfg)
