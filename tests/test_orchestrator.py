from __future__ import annotations

import csv
import dataclasses
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from fedsim import client as client_mod
from fedsim import orchestrator as orchestrator_mod
from fedsim.client import CLIENT_OPTIMIZERS, ClientConfig, DivergenceError, cohort_size
from fedsim.data import Dataset, epoch_batches, gen_synthetic, split_train_test, subset
from fedsim.model import Batch, ModelSpec, init_params, loss_and_grad
from fedsim.orchestrator import (
    ALGORITHM_NAMES,
    DataConfig,
    ExperimentConfig,
    FederatedRun,
    METRICS_COLUMNS,
    ModelConfig,
    Schedule,
    TAG_CLIENT,
    TAG_SAMPLING,
    algorithm_name,
    build_dataset,
    load_params,
    prepare_data,
    run_experiment,
    sample_clients,
    save_params,
    shared_data,
    write_metrics_csv,
)
from fedsim.params import NonFiniteError, ParamVector
from fedsim.rng import spawn_seed
from fedsim.server import ServerConfig


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        client=ClientConfig(opt_c="sgd", batch_size=8),
        server=ServerConfig(opt_s="sgd"),
        model=ModelConfig(),
        data=DataConfig(num_classes=3, dim=4, samples_per_class=30, spread=1.0),
        num_clients=6,
        sample_ratio=0.5,
        rounds=4,
        eval_every=2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ names


def test_algorithm_name_table():
    expected = {
        ("sgd", "sgd"): "FedAvg",
        ("sgd", "adam"): "FedAdam",
        ("sgd", "adagrad"): "FedAdagrad",
        ("sgd", "yogi"): "FedYogi",
        ("prox", "sgd"): "FedProx",
        ("prox", "adam"): "ProxAdam",
        ("prox", "adagrad"): "ProxAdagrad",
        ("prox", "yogi"): "ProxYogi",
        ("scaf", "sgd"): "Scaffold",
        ("scaf", "adam"): "ScafAdam",
        ("scaf", "adagrad"): "ScafAdagrad",
        ("scaf", "yogi"): "ScafYogi",
        ("nova", "sgd"): "FedNova",
        ("nova", "adam"): "NovaAdam",
        ("nova", "adagrad"): "NovaAdagrad",
        ("nova", "yogi"): "NovaYogi",
    }
    assert ALGORITHM_NAMES == expected
    assert algorithm_name("scaf", "yogi") == "ScafYogi"
    with pytest.raises(ValueError):
        algorithm_name("sgd", "rmsprop")


# ------------------------------------------------------------------ sampling


def test_sample_clients_count_and_range():
    ids = sample_clients(100, 0.1, round_idx=1, seed=0)
    assert len(ids) == 10
    assert ids == sorted(ids)
    assert len(set(ids)) == 10
    assert all(0 <= i < 100 for i in ids)


def test_sample_clients_at_least_one():
    assert len(sample_clients(10, 0.01, 1, 0)) == 1


def test_sample_clients_full_participation():
    assert sample_clients(8, 1.0, 3, 7) == list(range(8))


def test_sample_clients_deterministic_and_round_dependent():
    a = sample_clients(50, 0.2, 5, 9)
    assert a == sample_clients(50, 0.2, 5, 9)
    assert a != sample_clients(50, 0.2, 6, 9) or a != sample_clients(50, 0.2, 7, 9)
    assert a != sample_clients(50, 0.2, 5, 10)


def test_sample_clients_validation():
    with pytest.raises(ValueError):
        sample_clients(0, 0.5, 1, 0)
    with pytest.raises(ValueError):
        sample_clients(10, 0.0, 1, 0)
    with pytest.raises(ValueError):
        sample_clients(10, 1.5, 1, 0)


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 1, 2**64 + 9])
def test_schedule_is_what_the_reference_functions_derive_round_by_round(seed):
    """Sampled ids, client seeds and every epoch's batch order, for seeds
    of one, two and three words; a shard may be smaller or larger than
    a batch."""
    rounds, epochs, batch_size = 5, 3, 4
    schedule = Schedule(seed, 7, 0.4, rounds, epochs)
    assert schedule.ids.shape == schedule.seeds.shape == (rounds, 2)
    assert schedule.order_words.shape == (rounds, 2, epochs, 4)
    sampling = spawn_seed(seed, TAG_SAMPLING)
    sizes = [1, 3, 4, 9, 16, 17, 40]  # client id -> shard size
    for r in range(1, rounds + 1):
        ids = sample_clients(7, 0.4, r, sampling)
        assert schedule.ids[r - 1].tolist() == ids
        seeds = [spawn_seed(seed, TAG_CLIENT, r, cid) for cid in ids]
        assert schedule.seeds[r - 1].tolist() == seeds
        got = schedule.batch_orders(r, [sizes[cid] for cid in ids])
        for cid, client_seed, orders in zip(ids, seeds, got):
            rows = np.arange(sizes[cid])
            want = [
                np.concatenate(epoch_batches(rows, batch_size, e, client_seed))
                for e in range(epochs)
            ]
            assert [o.tolist() for o in orders] == [w.tolist() for w in want]


def test_run_round_outside_the_configured_rounds_is_refused():
    run = FederatedRun(tiny_config(rounds=3))
    for round_idx in (0, -1, 4):
        with pytest.raises(ValueError, match=r"^round_idx must be in 1\.\.3, got "):
            run.run_round(round_idx)
    assert run.run_round(3).round_idx == 3
    assert not run.metrics[:-1]  # the refused rounds left no trace


# ------------------------------------------------------------------ reference equivalences


def test_single_client_full_batch_is_centralized_gd():
    # One client holding all data, full batches, no momentum/decay, unit
    # server lr: the loop must reproduce plain centralized gradient descent.
    cfg = tiny_config(
        client=ClientConfig(opt_c="sgd", batch_size=10**6, lr=0.1,
                            momentum=0.0, weight_decay=0.0),
        num_clients=1,
        sample_ratio=1.0,
        rounds=20,
        eval_every=20,
    )
    run = FederatedRun(cfg)
    w_ref = run.state.w.values.copy()
    train_batch = Batch(run.shards[0].features, run.shards[0].labels)
    result = run.run()
    for _ in range(20):
        _, grad = loss_and_grad(run.spec, ParamVector(w_ref), train_batch)
        w_ref = w_ref - 0.1 * grad.values
    npt.assert_allclose(result.final_state.w.values, w_ref, rtol=0, atol=1e-10)


def test_prox_mu_zero_run_equals_plain_run():
    plain = run_experiment(tiny_config())
    prox = run_experiment(
        tiny_config(client=ClientConfig(opt_c="prox", prox_mu=0.0, batch_size=8))
    )
    assert plain.final_state.w.same_bits(prox.final_state.w)
    assert [m.train_loss for m in plain.metrics] == [m.train_loss for m in prox.metrics]


def test_scaf_first_round_equals_plain_first_round():
    # all control variates start at zero, so round 1 corrections vanish
    plain = run_experiment(tiny_config(rounds=1, eval_every=1))
    scaf = run_experiment(
        tiny_config(client=ClientConfig(opt_c="scaf", batch_size=8), rounds=1, eval_every=1)
    )
    npt.assert_array_equal(scaf.final_state.w.values, plain.final_state.w.values)


def test_scaf_control_variates_start_moving_after_round_one():
    cfg = tiny_config(client=ClientConfig(opt_c="scaf", batch_size=8), rounds=3, eval_every=3)
    run = FederatedRun(cfg)
    run.run()
    assert np.any(run.state.c.values != 0.0)
    touched = [cid for cid, c in run.controls.items() if np.any(c.values != 0.0)]
    assert touched  # selected clients updated their local variates


# ------------------------------------------------------------------ loop behavior


def test_zero_rounds_gives_empty_series_and_initial_model():
    cfg = tiny_config(rounds=0)
    run = FederatedRun(cfg)
    w0 = run.state.w
    result = run.run()
    assert result.status == "ok"
    assert result.metrics == []
    assert result.final_state.w.same_bits(w0)
    assert 0.0 <= result.best_acc <= 1.0  # initial model was still evaluated


def test_eval_cadence():
    result = run_experiment(tiny_config(rounds=5, eval_every=2))
    assert [m.round_idx for m in result.metrics] == [1, 2, 3, 4, 5]
    evaluated = [m.round_idx for m in result.metrics if m.test_acc is not None]
    assert evaluated == [2, 4, 5]  # multiples of eval_every plus the final round


def test_best_acc_is_running_max():
    result = run_experiment(tiny_config(rounds=6, eval_every=2))
    bests = [m.best_acc for m in result.metrics if m.best_acc is not None]
    assert bests == sorted(bests)  # non-decreasing across checkpoints
    assert result.best_acc == bests[-1]
    accs = [m.test_acc for m in result.metrics if m.test_acc is not None]
    assert all(b >= a for a, b in zip(accs, bests))


def test_rerun_and_cohorts_of_one_are_bit_identical(monkeypatch):
    cfg = tiny_config(client=ClientConfig(opt_c="scaf", batch_size=8),
                      server=ServerConfig(opt_s="yogi"))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    monkeypatch.setattr(client_mod, "COHORT_BYTES", 1)  # every cohort holds one client
    c = run_experiment(cfg)
    assert a.final_state.w.same_bits(b.final_state.w)
    assert a.final_state.w.same_bits(c.final_state.w)
    assert [m.train_loss for m in a.metrics] == [m.train_loss for m in c.metrics]


def test_clients_train_on_one_thread_only():
    with pytest.raises(ValueError, match="threads must be 1, got 2"):
        FederatedRun(tiny_config(), 2)


def test_cohorts_cut_by_the_byte_cap_give_the_same_bits(monkeypatch):
    cfg = tiny_config(
        client=ClientConfig(opt_c="scaf", batch_size=8),
        server=ServerConfig(opt_s="adam"),
        sample_ratio=1.0,
    )
    sizes = []
    train_cohort = orchestrator_mod.train_cohort

    def spy(spec, global_w, shards, *args, **kwargs):
        sizes.append(len(shards))
        return train_cohort(spec, global_w, shards, *args, **kwargs)

    monkeypatch.setattr(orchestrator_mod, "train_cohort", spy)
    whole = run_experiment(cfg)
    assert sizes == [6] * cfg.rounds
    sizes.clear()
    monkeypatch.setattr(client_mod, "COHORT_BYTES", 2 * 8 * (4 + 1) * 3)  # 2 rows of P = 15
    cut = run_experiment(cfg)
    assert sizes == [2, 2, 2] * cfg.rounds  # serially, in cohorts of 2
    for name in ("w", "c", "m", "v"):
        assert getattr(cut.final_state, name).same_bits(getattr(whole.final_state, name))
    untimed = lambda result: [dataclasses.replace(m, wall_ms=0.0) for m in result.metrics]
    assert untimed(cut) == untimed(whole)


@pytest.mark.parametrize("opt_c", ["sgd", "scaf", "nova"])
def test_a_round_holds_one_cohorts_updates(monkeypatch, opt_c):
    """The server folds each cohort's updates into its sums as the cohort
    finishes, so none is alive when the next cohort starts training."""
    monkeypatch.setattr(client_mod, "COHORT_BYTES", 1)  # every cohort holds one client
    train_cohort = orchestrator_mod.train_cohort
    returned: list[weakref.ref] = []
    alive = []

    def spy(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in returned))
        results = train_cohort(*args, **kwargs)
        returned.extend(weakref.ref(upd) for upd, _ in results)
        return results

    monkeypatch.setattr(orchestrator_mod, "train_cohort", spy)
    cfg = tiny_config(client=ClientConfig(opt_c=opt_c, batch_size=8))
    assert run_experiment(cfg).status == "ok"
    assert alive == [0] * (cfg.rounds * 3)  # 3 sampled clients a round, one per cohort


# Each way to break round 2 returns what its error message must match.
def _blow_up_a_shard_of_round_2(monkeypatch, run: FederatedRun) -> str:
    last = int(orchestrator_mod.prepare_schedule(run.cfg).ids[1][-1])  # round 2's last cohort
    shard = run.shards[last]
    blown = Dataset(shard.features * 1e300, shard.labels, shard.num_classes)
    run.shards = run.shards[:last] + (blown,) + run.shards[last + 1 :]
    return f"^divergence at round 2, client {last}, "


def _raise_from(name: str):
    def patch(monkeypatch, run: FederatedRun) -> str:
        def fail(*args, **kwargs):
            raise NonFiniteError(f"{name} failed")

        monkeypatch.setattr(orchestrator_mod, name, fail)
        return f"^{name} failed$"

    return patch


@pytest.mark.parametrize(
    "break_round_2",
    [
        _blow_up_a_shard_of_round_2,
        _raise_from("aggregate_control"),
        _raise_from("server_step"),
        _raise_from("evaluate"),
    ],
    ids=["client", "aggregate_control", "server_step", "evaluate"],
)
def test_a_round_that_raises_leaves_the_run_as_the_last_finished_round_left_it(monkeypatch, break_round_2):
    monkeypatch.setattr(client_mod, "COHORT_BYTES", 1)  # every cohort holds one client
    cfg = tiny_config(
        client=ClientConfig(opt_c="scaf", batch_size=8), server=ServerConfig(opt_s="adam"), eval_every=1
    )
    run = FederatedRun(cfg)
    run.run_round(1)
    state, controls, metrics = run.state, dict(run.controls), list(run.metrics)
    best_acc, best_params, last_delta = run.best_acc, run.best_params, run.last_delta
    expected = break_round_2(monkeypatch, run)
    with pytest.raises((DivergenceError, NonFiniteError), match=expected):
        run.run_round(2)
    for name in ("w", "c", "m", "v"):
        assert getattr(run.state, name).same_bits(getattr(state, name)), name
    assert run.controls.keys() == controls.keys()
    assert all(run.controls[cid].same_bits(controls[cid]) for cid in controls)
    assert run.best_acc == best_acc
    assert run.best_params.same_bits(best_params) and run.last_delta.same_bits(last_delta)
    assert run.metrics == metrics


def test_a_run_that_diverges_at_a_server_step_ends_in_the_last_finished_rounds_state():
    cfg = tiny_config(
        client=ClientConfig(opt_c="scaf", batch_size=8),
        server=ServerConfig(opt_s="sgd", server_lr=1e307),
        eval_every=1,
        seed=2,
    )
    run = FederatedRun(cfg)
    seen = []
    result = run.run(on_round=lambda r, rm: seen.append((r.state, dict(r.controls))))
    assert (result.status, result.error) == ("diverged", "divergence at round 2: vector contains NaN or Inf")
    assert len(seen) == 1
    state, controls = seen[0]
    assert np.any(state.c.values != 0.0)
    for name in ("w", "c", "m", "v"):
        assert getattr(result.final_state, name).same_bits(getattr(state, name)), name
    assert all(run.controls[cid].same_bits(c) for cid, c in controls.items())


def test_option_one_controls_are_kept_as_first_layer_factors_where_smaller():
    """A client whose shard has fewer rows than the model's 12 inputs
    keeps n * hidden + (P - 12 * hidden) values; the others, shard 0's
    12 rows among them, keep P, and the never selected share the zero."""
    cfg = tiny_config(
        client=ClientConfig(opt_c="scaf", batch_size=8), rounds=3,
        data=DataConfig(num_classes=3, dim=12, samples_per_class=30, spread=1.0),
        model=ModelConfig(kind="mlp1", hidden_dim=6, activation="relu"),
    )
    run = FederatedRun(cfg)
    run.run()
    selected = set(orchestrator_mod.prepare_schedule(cfg).ids.ravel().tolist())
    count, block = run.spec.param_count, 12 * 6
    sizes = {cid: len(run.shards[cid]) for cid in selected}
    factored = [cid for cid, n in sizes.items() if n < 12]
    assert factored and len(factored) < len(selected) and 12 in sizes.values()
    stored = {cid: c.rest.size + (0 if c.factor is None else c.factor.size) for cid, c in run.controls.items()}
    assert sum(stored[cid] for cid in factored) == sum(sizes[cid] * 6 + count - block for cid in factored)
    assert all(run.controls[cid].factor is None for cid in selected.difference(factored))
    assert all(stored[cid] == count for cid in run.controls if cid not in factored)
    for cid in selected:
        assert run.controls[cid].values.size == count


def test_seed_changes_results():
    a = run_experiment(tiny_config(seed=0))
    b = run_experiment(tiny_config(seed=1))
    assert not a.final_state.w.same_bits(b.final_state.w)


def test_running_delta_sum_reconstructs_final_params_exactly():
    # with opt_s=sgd at unit lr, w_T is the left-fold of the per-round
    # aggregated deltas onto w_0, exactly
    cfg = tiny_config(rounds=5, eval_every=5)
    run = FederatedRun(cfg)
    folded = run.state.w.values.copy()
    seen = []

    def on_round(r: FederatedRun, rm) -> None:
        seen.append(rm.round_idx)
        nonlocal folded
        folded = folded + r.last_delta.values

    result = run.run(on_round=on_round)
    assert seen == [1, 2, 3, 4, 5]
    assert result.final_state.w.values.tobytes() == folded.tobytes()


def test_divergence_aborts_with_sentinel_row():
    cfg = tiny_config(
        client=ClientConfig(opt_c="sgd", lr=1e300, batch_size=8), rounds=10, eval_every=5
    )
    result = run_experiment(cfg)
    assert result.status == "diverged"
    assert result.error and "client" in result.error
    last = result.metrics[-1]
    assert last.status == "diverged"
    assert last.round_idx == 1  # blows up immediately at these scales
    assert len(result.metrics) == 1  # stopped right away: just the sentinel


def test_num_clients_exceeding_samples_raises():
    with pytest.raises(ValueError, match="exceeds"):
        FederatedRun(tiny_config(num_clients=80))  # only 72 training samples


def test_prepare_data_arrays_are_read_only():
    cfg = tiny_config()
    data = prepare_data(cfg)
    train, _ = split_train_test(build_dataset(cfg.data, cfg.seed), cfg.data.test_fraction, cfg.seed)
    test, part, shard = data.test_batch, data.partition, data.shards[0]
    for arr in (test.features, test.labels, part.counts, shard.features, shard.labels):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert len(data.shards) == part.num_clients
    for cut, idx in zip(data.shards, part.assignment):
        assert cut.features.tobytes() == train.features[idx].tobytes()
        npt.assert_array_equal(cut.labels, train.labels[idx])


def layout_data(tmp_path, source: str) -> DataConfig:
    """Synthetic data, or 90 CSV rows of 4 features and a label in 0..2:
    label last, or a middle column named ``y`` under a header."""
    if source == "synthetic":
        return DataConfig(num_classes=3, dim=4, samples_per_class=30, spread=1.0)
    rng = np.random.default_rng(5)
    labels = (np.arange(90) % 3).tolist()
    feats = (rng.normal(size=(3, 4))[labels] + rng.standard_normal((90, 4))).tolist()
    path = tmp_path / f"{source}.csv"
    if source == "csv-label-last":
        path.write_text("".join(",".join(map(repr, [*f, y])) + "\n" for f, y in zip(feats, labels)))
        return DataConfig(source="csv", path=str(path))
    rows = (",".join(map(repr, [*f[:2], y, *f[2:]])) for f, y in zip(feats, labels))
    path.write_text("a,b,y,c,d\n" + "\n".join(rows) + "\n")
    return DataConfig(source="csv", path=str(path), label_col="y", has_header=True)


@pytest.mark.parametrize("source", ["synthetic", "csv-label-last", "csv-label-named"])
def test_shards_are_client_ordered_views_of_one_read_only_block(tmp_path, source):
    cfg = tiny_config(data=layout_data(tmp_path, source))
    data = prepare_data(cfg)
    train, _ = split_train_test(build_dataset(cfg.data, cfg.seed), cfg.data.test_fraction, cfg.seed)
    for shard, idx in zip(data.shards, data.partition.assignment, strict=True):
        cut = subset(train, idx)
        assert shard.features.tobytes() == cut.features.tobytes()
        assert shard.labels.tobytes() == cut.labels.tobytes()
        assert shard.num_classes == train.num_classes
    for column in ("features", "labels"):
        arrays = [getattr(shard, column) for shard in data.shards]
        block = arrays[0].base
        assert all(arr.base is block for arr in arrays)
        assert not block.flags.writeable and len(block) == len(train)
        address = block.__array_interface__["data"][0]
        for arr in arrays:  # client i's rows follow client i - 1's
            assert arr.__array_interface__["data"][0] == address
            address += arr.nbytes
        assert address == block.__array_interface__["data"][0] + block.nbytes


def test_prepare_data_keeps_the_training_rows_once():
    """Set-up holds the dataset and its two splits at once, about twice the
    feature matrix, and keeps the shards' block and the test split."""
    cfg = tiny_config(data=DataConfig(num_classes=10, dim=200, samples_per_class=400), num_clients=200)
    matrix = 4000 * 200 * 8
    tracemalloc.start()
    try:
        data = prepare_data(cfg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.shards) == 200
    assert retained <= 1.1 * matrix, retained / matrix
    assert peak <= 2.2 * matrix, peak / matrix


def test_shared_data_builds_each_input_once_within_its_block(builds):
    cfg = tiny_config()
    assert prepare_data(cfg) is not prepare_data(cfg)  # no memo outside a block
    assert len(builds) == 2
    with shared_data():
        first = prepare_data(cfg)
        # Cells that differ only in their optimizers share one build.
        assert prepare_data(tiny_config(client=ClientConfig(opt_c="scaf"))) is first
        assert len(builds) == 3
        for other in (
            tiny_config(seed=1),
            tiny_config(num_clients=5),
            tiny_config(data=DataConfig(num_classes=3, dim=4, samples_per_class=30, alpha=1.0)),
        ):
            assert prepare_data(other) is not first
        assert len(builds) == 6
        with shared_data():  # an inner block starts empty ...
            assert prepare_data(cfg) is not first
        assert prepare_data(cfg) is first  # ... and the outer memo comes back
        assert len(builds) == 7
    with pytest.raises(RuntimeError):
        with shared_data():
            prepare_data(cfg)
            raise RuntimeError
    prepare_data(cfg)
    assert len(builds) == 9  # no memo survives a block, even one that raised


def test_shared_values_are_read_only_and_named_by_their_whole_input():
    cfg = tiny_config(client=ClientConfig(opt_c="scaf", local_epochs=2, batch_size=8))
    with shared_data():
        shared = run_experiment(cfg)
        memo = orchestrator_mod._shared.get()
    assert {key[0] for key in memo} == {"data", "schedule", "orders"}
    assert len(memo) == 2 + cfg.rounds
    schedule_key = (cfg.seed, cfg.num_clients, cfg.sample_ratio, cfg.rounds, 2)
    for key, value in memo.items():
        if key[0] == "schedule":  # (seed, num_clients, sample_ratio, rounds, local_epochs)
            assert isinstance(value, orchestrator_mod.Schedule)
            assert key[1:] == value.key == schedule_key
            for arr in (value.ids, value.seeds, value.order_words):
                assert not arr.flags.writeable
            assert all(type(i) is int for rm in shared.metrics for i in rm.selected)
        elif key[0] == "orders":  # (*schedule key, round, shard sizes)
            assert key[1:6] == schedule_key and 1 <= key[6] <= cfg.rounds
            sizes = key[7]
            assert len(value) == len(sizes) == 3
            for n, orders in zip(sizes, value, strict=True):  # one per epoch
                assert len(orders) == 2
                for order in orders:
                    assert not order.flags.writeable
                    assert sorted(order.tolist()) == list(range(n))
        else:
            assert key[0] == "data"
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.shards = ()
    alone = run_experiment(cfg)
    assert orchestrator_mod._shared.get() is None
    assert alone.final_state.w.same_bits(shared.final_state.w)


def test_batch_orders_outside_a_block_are_fresh_and_read_only():
    schedule = Schedule(0, 6, 0.5, 2, 2)
    orders = schedule.batch_orders(1, [5, 9, 3])
    assert type(orders) is tuple and [type(o) for o in orders] == [tuple] * 3
    for n, client_orders in zip([5, 9, 3], orders):
        assert len(client_orders) == 2
        for order in client_orders:
            assert sorted(order.tolist()) == list(range(n))
            with pytest.raises(ValueError, match="read-only"):
                order[0] = 0
    again = schedule.batch_orders(1, [5, 9, 3])
    assert again is not orders  # no memo outside a block
    assert [[o.tolist() for o in c] for c in again] == [[o.tolist() for o in c] for c in orders]


def _assert_frozen(value, where: str) -> None:
    """``value`` is immutable or read-only all the way down."""
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable, where
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _assert_frozen(item, f"{where}[{i}]")
    elif dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, where
        for f in dataclasses.fields(value):
            _assert_frozen(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, Schedule):
        # Its generator is reseeded before every draw (see its docstring).
        for name, item in vars(value).items():
            if name != "_rng":
                _assert_frozen(item, f"{where}.{name}")
    else:
        assert isinstance(value, (bool, int, float, str, type(None))), f"{where}: {type(value)}"


def test_every_memo_value_is_immutable_or_read_only_all_the_way_down():
    with shared_data():
        for opt_c in ("sgd", "scaf"):
            run_experiment(tiny_config(client=ClientConfig(opt_c=opt_c, local_epochs=2, batch_size=8)))
        memo = orchestrator_mod._shared.get()
    assert {key[0] for key in memo} == {"data", "schedule", "orders"}
    for key, value in memo.items():
        _assert_frozen(value, repr(key[:2]))


def test_cells_in_one_block_share_each_rounds_batch_orders(monkeypatch):
    seen: list[tuple] = []  # (opt_c, round, client id, its orders)
    real = orchestrator_mod.train_cohort

    def recording(spec, w, shards, cfg, round_idx, ids, orders, *args, **kwargs):
        seen.extend((cfg.opt_c, round_idx, cid, o) for cid, o in zip(ids, orders))
        return real(spec, w, shards, cfg, round_idx, ids, orders, *args, **kwargs)

    monkeypatch.setattr(orchestrator_mod, "train_cohort", recording)
    with shared_data():
        for opt_c in ("sgd", "prox"):
            run_experiment(tiny_config(client=ClientConfig(opt_c=opt_c, batch_size=8)))
    sgd = [row for row in seen if row[0] == "sgd"]
    prox = [row for row in seen if row[0] == "prox"]
    assert len(sgd) == len(prox) == 4 * 3
    for a, b in zip(sgd, prox, strict=True):
        assert a[1:3] == b[1:3] and a[3] is b[3]


def test_payload_accounting_scaf_doubles_vectors():
    plain = run_experiment(tiny_config(rounds=1, eval_every=1))
    scaf = run_experiment(
        tiny_config(client=ClientConfig(opt_c="scaf", batch_size=8), rounds=1, eval_every=1)
    )
    p_plain = plain.metrics[0].payload_bytes
    p_scaf = scaf.metrics[0].payload_bytes
    assert p_scaf > 1.9 * p_plain


# ------------------------------------------------------------------ csv source


def test_run_on_csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for k in range(2):
        for _ in range(30):
            x = rng.normal(loc=3.0 * k, size=2)
            rows.append(f"{x[0]},{x[1]},{k}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = tiny_config(
        data=DataConfig(source="csv", path=str(path), alpha=1.0),
        num_clients=4,
        rounds=2,
        eval_every=1,
    )
    result = run_experiment(cfg)
    assert result.status == "ok"
    assert len(result.metrics) == 2


# ------------------------------------------------------------------ metrics csv


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_metrics_csv_schema_and_content(tmp_path):
    cfg = tiny_config(rounds=3, eval_every=2)
    result = run_experiment(cfg, out_dir=tmp_path / "out")
    rows = read_csv(tmp_path / "out" / "metrics.csv")
    assert rows[0] == list(METRICS_COLUMNS)
    # the in-memory series tracks every round, the file only checkpoints:
    # rounds 2 (cadence) and 3 (final round)
    assert len(result.metrics) == 3
    assert len(rows) == 3
    first = dict(zip(rows[0], rows[1]))
    assert first["round"] == "2"
    assert first["algorithm_name"] == "FedAvg"
    assert first["opt_c"] == "sgd" and first["opt_s"] == "sgd"
    assert float(first["train_loss"]) == result.metrics[1].train_loss
    assert float(first["test_acc"]) == result.metrics[1].test_acc
    assert float(first["best_acc"]) == result.metrics[1].best_acc
    assert first["wall_ms"] != ""
    assert first["status"] == "ok"
    last = dict(zip(rows[0], rows[2]))
    assert last["round"] == "3"
    assert float(last["test_loss"]) == result.metrics[2].test_loss


def test_metrics_csv_without_timing_is_stable(tmp_path):
    cfg = tiny_config(rounds=2, eval_every=1)
    result = run_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(p1, result.metrics, cfg.opt_c, cfg.opt_s, include_timing=False)
    write_metrics_csv(p2, result.metrics, cfg.opt_c, cfg.opt_s, include_timing=False)
    assert p1.read_bytes() == p2.read_bytes()
    rows = read_csv(p1)
    assert all(row[8] == "" for row in rows[1:])  # wall_ms column empty


def test_diverged_run_writes_sentinel_row(tmp_path):
    cfg = tiny_config(
        client=ClientConfig(opt_c="sgd", lr=1e300, batch_size=8), rounds=6, eval_every=3
    )
    run_experiment(cfg, out_dir=tmp_path / "out")
    rows = read_csv(tmp_path / "out" / "metrics.csv")
    assert rows[-1][-1] == "diverged"
    assert rows[-1][4] == ""  # no usable train loss in the sentinel row


# ------------------------------------------------------------------ persistence


def test_params_save_load_roundtrip(tmp_path):
    cfg = tiny_config(rounds=2, eval_every=1)
    result = run_experiment(cfg, out_dir=tmp_path / "out")
    loaded = load_params(tmp_path / "out" / "model_final.bin")
    assert loaded.same_bits(result.final_state.w)
    meta = (tmp_path / "out" / "model_final.bin.meta.txt").read_text()
    assert "kind: logistic" in meta
    assert f"param_count: {len(loaded)}" in meta


def test_mlp1_params_meta_names_its_hidden_layer(tmp_path):
    model = ModelConfig(kind="mlp1", hidden_dim=5, activation="tanh")
    result = run_experiment(tiny_config(model=model, rounds=1, eval_every=1), out_dir=tmp_path)
    meta = (tmp_path / "model_final.bin.meta.txt").read_text().splitlines()
    assert meta[:6] == [
        "kind: mlp1",
        "input_dim: 4",
        "num_classes: 3",
        "hidden_dim: 5",
        "activation: tanh",
        f"param_count: {len(result.final_state.w)}",
    ]


def test_load_params_rejects_corrupt_files(tmp_path):
    good = tmp_path / "p.bin"
    save_params(good, ParamVector([1.0, 2.0]), LOGISTIC_4x3)
    raw = good.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match="expected"):
        load_params(bad)
    tiny = tmp_path / "tiny.bin"
    tiny.write_bytes(b"abc")
    with pytest.raises(ValueError, match="truncated"):
        load_params(tiny)


LOGISTIC_4x3 = ModelSpec("logistic", 4, 3)
MLP_4x3 = ModelSpec("mlp1", 4, 3, hidden_dim=5, activation="tanh")


@pytest.mark.parametrize("spec", [LOGISTIC_4x3, MLP_4x3], ids=["logistic", "mlp1"])
def test_load_params_checks_the_sidecar_against_a_spec(tmp_path, spec):
    path = tmp_path / "p.bin"
    params = init_params(spec, 0)
    save_params(path, params, spec)
    assert load_params(path, spec).same_bits(params)
    assert load_params(path).same_bits(params)


@pytest.mark.parametrize(
    "saved, expected, field",
    [
        (LOGISTIC_4x3, MLP_4x3, "kind"),
        (LOGISTIC_4x3, ModelSpec("logistic", 5, 3), "input_dim"),
        (LOGISTIC_4x3, ModelSpec("logistic", 4, 2), "num_classes"),
        (MLP_4x3, ModelSpec("mlp1", 4, 3, hidden_dim=6, activation="tanh"), "hidden_dim"),
        (MLP_4x3, ModelSpec("mlp1", 4, 3, hidden_dim=5, activation="relu"), "activation"),
    ],
)
def test_load_params_names_the_first_field_the_sidecar_disagrees_on(tmp_path, saved, expected, field):
    path = tmp_path / "p.bin"
    save_params(path, init_params(saved, 0), saved)
    want = getattr(expected, field)
    with pytest.raises(ValueError) as exc:
        load_params(path, expected)
    assert str(exc.value).startswith(f"{path}: sidecar {field} is ")
    assert str(exc.value).endswith(f"the model has {str(want)!r}")


def test_load_params_with_a_spec_needs_a_matching_sidecar_and_length(tmp_path):
    path = tmp_path / "p.bin"
    save_params(path, init_params(LOGISTIC_4x3, 0), LOGISTIC_4x3)
    (tmp_path / "p.bin.meta.txt").unlink()
    with pytest.raises(ValueError, match=f"^{path}: no .meta.txt sidecar"):
        load_params(path, LOGISTIC_4x3)
    # A sidecar that agrees with the spec does not vouch for a blob of another length.
    save_params(path, ParamVector([1.0, 2.0]), LOGISTIC_4x3)
    with pytest.raises(ValueError, match=f"^{path}: holds 2 values, the model has 15$"):
        load_params(path, LOGISTIC_4x3)
    # The sidecar's param_count is checked on its own too.
    meta = tmp_path / "p.bin.meta.txt"
    save_params(path, init_params(LOGISTIC_4x3, 0), LOGISTIC_4x3)
    meta.write_text(meta.read_text().replace("param_count: 15", "param_count: 16"))
    with pytest.raises(ValueError, match="sidecar param_count is '16', the model has '15'"):
        load_params(path, LOGISTIC_4x3)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        tiny_config(num_clients=0)
    with pytest.raises(ValueError):
        tiny_config(sample_ratio=0.0)
    with pytest.raises(ValueError):
        tiny_config(rounds=-1)
    with pytest.raises(ValueError):
        tiny_config(eval_every=0)
    with pytest.raises(ValueError):
        tiny_config(seed=-1)
    with pytest.raises(ValueError):
        DataConfig(source="imagenet")
    with pytest.raises(ValueError):
        DataConfig(source="csv")  # missing path
    with pytest.raises(ValueError):
        ModelConfig(kind="logistic", hidden_dim=4)


def test_traced_benchmark_hooks_hold(monkeypatch):
    """The hooks the traced benchmark wraps: one
    ``update_control_variate`` per scaf cohort, reached through
    ``fedsim.client``; one ``aggregate`` and one ``server_step`` per
    round, plus one ``aggregate_control`` per scaf round, all reached
    through ``fedsim.orchestrator``; ``threads`` passed positionally.
    ``fedsim.client.epoch_batches`` stays wrappable, but a run calls it
    no more: its batch orders come from the run's schedule."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("epoch_batches", "update_control_variate"):
        monkeypatch.setattr(client_mod, name, counting(name, getattr(client_mod, name)))
    for name in ("aggregate", "aggregate_control", "server_step"):
        monkeypatch.setattr(orchestrator_mod, name, counting(name, getattr(orchestrator_mod, name)))
    for opt_c in ("sgd", "scaf"):
        calls.clear()
        client = ClientConfig(opt_c=opt_c, batch_size=8, local_epochs=2)
        result = FederatedRun(tiny_config(client=client, rounds=3), 1).run()
        assert result.status == "ok"
        scaf = opt_c == "scaf"
        expected = []
        for rm in result.metrics:
            cohorts = -(-len(rm.selected) // cohort_size(result.final_state.w.values.size))
            expected += ["update_control_variate"] * cohorts if scaf else []
            expected += ["aggregate", "aggregate_control"] if scaf else ["aggregate"]
            expected += ["server_step"]
        assert calls == expected


def test_labelled_rows_are_checked_only_while_a_run_sets_up(monkeypatch):
    """``Batch.__post_init__``, the one check of labelled rows, runs while
    ``FederatedRun(...)`` sets up: once for the dataset, once per split
    and once per client's shard.  No round checks rows again, in any
    client mechanism's step loop or option I's control variates."""
    checked = []
    post_init = Batch.__post_init__

    def counting(batch):
        checked.append(type(batch))
        post_init(batch)

    monkeypatch.setattr(Batch, "__post_init__", counting)
    for opt_c in CLIENT_OPTIMIZERS:
        checked.clear()
        cfg = tiny_config(client=ClientConfig(opt_c=opt_c, batch_size=8, local_epochs=2))
        run = FederatedRun(cfg)
        assert checked == [Dataset] * (1 + 2 + cfg.num_clients)
        assert run.run().status == "ok"
        assert len(checked) == 1 + 2 + cfg.num_clients


def test_metrics_csv_is_written_once_per_eval_round(tmp_path, monkeypatch):
    writes = []
    real_write = orchestrator_mod.write_metrics_csv

    def counting_write(path, metrics, *args, **kwargs):
        writes.append([rm.round_idx for rm in metrics])
        real_write(path, metrics, *args, **kwargs)

    monkeypatch.setattr(orchestrator_mod, "write_metrics_csv", counting_write)
    run_experiment(tiny_config(rounds=10, eval_every=5), out_dir=tmp_path / "ok")
    assert writes == [list(range(1, 6)), list(range(1, 11))]

    writes.clear()
    run_experiment(tiny_config(rounds=0), out_dir=tmp_path / "zero")
    assert writes == [[]]
    assert read_csv(tmp_path / "zero" / "metrics.csv") == [list(METRICS_COLUMNS)]

    writes.clear()
    diverging = ClientConfig(opt_c="sgd", lr=1e300, batch_size=8)
    run_experiment(tiny_config(client=diverging, rounds=6), out_dir=tmp_path / "diverged")
    assert writes == [[1]]
