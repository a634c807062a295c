"""Acceptance suite: nine end-to-end criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion.

Every test freezes its seeds, pins its numeric tolerance, and asserts
the runtime budget it was designed against.  Expected values marked
"frozen" were produced by independent oracle runs (hand algebra,
symbolic unrolls, or pre-registered calibration) before being written
here; they are inputs to the tests, not copies of program output.
"""
from __future__ import annotations

import csv
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim import client as client_mod
from fedsim import (
    Batch,
    ClientConfig,
    DataConfig,
    ExperimentConfig,
    FederatedRun,
    GridSpec,
    ModelSpec,
    ParamVector,
    ServerConfig,
    ServerState,
    accum_coeff_norm,
    aggregate,
    aggregate_control,
    dirichlet_partition,
    finite_diff_grad,
    gen_synthetic,
    init_params,
    local_train,
    loss_and_grad,
    run_experiment,
    run_grid,
    seeded_rng,
    server_step,
    spawn_seed,
)


# ===================================================================
# criterion 1: analytic gradients match finite differences
# ===================================================================


def test_criterion_1_gradient_correctness():
    """100 random (model, params, batch) triples per model kind: the
    analytic gradient matches a central finite-difference probe with
    max relative error < 1e-5, in under 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for kind_idx, kind in enumerate(("logistic", "mlp1")):
        for trial in range(100):
            rng = seeded_rng(20260814, 1, kind_idx, trial)
            dim = int(rng.integers(2, 8))
            classes = int(rng.integers(2, 5))
            if kind == "logistic":
                spec = ModelSpec("logistic", dim, classes)
            else:
                spec = ModelSpec(
                    "mlp1",
                    dim,
                    classes,
                    hidden_dim=int(rng.integers(2, 6)),
                    activation="relu" if trial % 2 == 0 else "tanh",
                )
            n = int(rng.integers(3, 13))
            batch = Batch(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n))
            params = ParamVector(0.5 * rng.normal(size=spec.param_count))
            _, grad = loss_and_grad(spec, params, batch)
            fd = finite_diff_grad(spec, params, batch)
            err = np.max(np.abs(grad.values - fd.values) / np.maximum(1.0, np.abs(fd.values)))
            worst = max(worst, float(err))
    assert worst < 1e-5, f"max relative gradient error {worst:.3e} >= 1e-5"
    assert time.perf_counter() - t0 < 30.0


# ===================================================================
# criterion 2: the federated loop degenerates to centralized GD
# ===================================================================


def test_criterion_2_centralized_gd_oracle():
    """One client, full participation, one full-batch local step, no
    momentum/decay, server lr 1: 50 rounds must track an independently
    coded centralized gradient-descent loop within 1e-10 per parameter,
    in under 5 s."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        client=ClientConfig(
            opt_c="sgd",
            local_epochs=1,
            batch_size=10_000,  # larger than the shard: one full-batch step
            lr=0.05,
            momentum=0.0,
            weight_decay=0.0,
        ),
        server=ServerConfig(opt_s="sgd"),  # lr defaults to 1.0
        data=DataConfig(num_classes=3, dim=5, samples_per_class=40, spread=1.5),
        num_clients=1,
        sample_ratio=1.0,
        rounds=50,
        eval_every=50,
        seed=3,
    )
    run = FederatedRun(cfg)
    train = run.shards[0]

    w = run.initial_params.values.copy()
    reference = []
    for _ in range(cfg.rounds):
        _, grad = loss_and_grad(run.spec, ParamVector(w), train)
        w = w - cfg.client.lr * grad.values
        reference.append(w.copy())

    seen: list[np.ndarray] = []
    result = run.run(on_round=lambda r, rm: seen.append(r.state.w.values.copy()))
    assert result.status == "ok"
    assert len(seen) == cfg.rounds
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(seen, reference))
    assert worst < 1e-10, f"max per-parameter deviation {worst:.3e} >= 1e-10"
    assert time.perf_counter() - t0 < 5.0


# ===================================================================
# criterion 3: degenerate configurations collapse to plain averaging
# ===================================================================


def _small_run_kwargs() -> dict:
    return dict(
        data=DataConfig(num_classes=3, dim=4, samples_per_class=30, spread=1.5),
        num_clients=6,
        sample_ratio=0.5,
        rounds=8,
        eval_every=4,
        seed=1,
    )


def test_criterion_3_degenerate_equivalences():
    """(a) a zero proximal term is bit-identical to plain local SGD for
    every server optimizer; (b) step-normalized averaging with equal
    client sizes/steps/momentum equals plain weighted averaging within
    1e-12 per element; (c) control variates over identical shards
    (full-batch variate refresh, full participation) stay within 1e-10
    of plain averaging along the whole trajectory; (d) with server SGD
    at lr 1 the final model equals the initial model plus the sum of
    round deltas exactly.  Each part runs in under 10 s."""
    # --- (a) zero proximal term, all four server optimizers, bitwise ---
    t0 = time.perf_counter()
    for opt_s in ("sgd", "adam", "adagrad", "yogi"):
        plain = run_experiment(
            ExperimentConfig(
                client=ClientConfig(opt_c="sgd"),
                server=ServerConfig(opt_s=opt_s),
                **_small_run_kwargs(),
            )
        )
        prox0 = run_experiment(
            ExperimentConfig(
                client=ClientConfig(opt_c="prox", prox_mu=0.0),
                server=ServerConfig(opt_s=opt_s),
                **_small_run_kwargs(),
            )
        )
        assert prox0.final_state.w.same_bits(plain.final_state.w), f"(a) differs for {opt_s}"
        assert [m.train_loss for m in prox0.metrics] == [m.train_loss for m in plain.metrics]
        assert [m.test_acc for m in prox0.metrics] == [m.test_acc for m in plain.metrics]
    assert time.perf_counter() - t0 < 10.0

    # --- (b) homogeneous step-normalized averaging == weighted mean ---
    # Equal shard sizes cannot come out of the skewed partitioner, so the
    # round loop is driven directly over hand-cut equal slices (the data
    # inside each slice still differs; only n_i, step count, and momentum
    # are homogeneous, which is exactly the degenerate case).
    t0 = time.perf_counter()
    ds = gen_synthetic(4, 6, 25, 1.5, seed=5)
    spec = ModelSpec("logistic", 6, 4)
    shards = [
        Batch(ds.features[cid * 20 : (cid + 1) * 20], ds.labels[cid * 20 : (cid + 1) * 20])
        for cid in range(5)
    ]
    nova_cfg = ClientConfig(opt_c="nova", batch_size=8, lr=0.05)
    sgd_cfg = ClientConfig(opt_c="sgd", batch_size=8, lr=0.05)
    w0 = init_params(spec, 77)
    s_nova = ServerState.initial(w0)
    s_avg = ServerState.initial(w0)
    for t in range(1, 9):
        nova_upd = [
            local_train(spec, s_nova.w, sh, nova_cfg, t, cid, spawn_seed(9, t, cid))[0]
            for cid, sh in enumerate(shards)
        ]
        avg_upd = [
            local_train(spec, s_avg.w, sh, sgd_cfg, t, cid, spawn_seed(9, t, cid))[0]
            for cid, sh in enumerate(shards)
        ]
        assert len({u.step_count for u in nova_upd}) == 1  # the homogeneity premise
        s_nova = server_step(s_nova, aggregate(nova_upd), ServerConfig())
        s_avg = server_step(s_avg, aggregate(avg_upd), ServerConfig())
        diff = float(np.max(np.abs(s_nova.w.values - s_avg.w.values)))
        assert diff < 1e-12, f"(b) round {t}: max element diff {diff:.3e} >= 1e-12"
    assert time.perf_counter() - t0 < 10.0

    # --- (c) identical shards make control variates cancel ---
    # Identical shards likewise cannot come from a disjoint partition, so
    # the same round-loop driver runs four clients that all hold the full
    # dataset.  After the first variate refresh every correction term is
    # the difference of bitwise-equal full-batch gradients.
    t0 = time.perf_counter()
    ds = gen_synthetic(3, 5, 20, 1.5, seed=6)
    spec = ModelSpec("logistic", 5, 3)
    twins = [Batch(ds.features, ds.labels) for _ in range(4)]
    scaf_cfg = ClientConfig(opt_c="scaf", control_option="I", batch_size=16, lr=0.05)
    plain_cfg = ClientConfig(opt_c="sgd", batch_size=16, lr=0.05)
    w0 = init_params(spec, 78)
    s_scaf = ServerState.initial(w0)
    s_plain = ServerState.initial(w0)
    controls = {cid: ParamVector.zeros(len(w0)) for cid in range(4)}
    for t in range(1, 9):
        plain_upd = [
            local_train(spec, s_plain.w, sh, plain_cfg, t, cid, spawn_seed(11, t, cid))[0]
            for cid, sh in enumerate(twins)
        ]
        scaf_results = [
            local_train(
                spec,
                s_scaf.w,
                sh,
                scaf_cfg,
                t,
                cid,
                spawn_seed(11, t, cid),
                global_c=s_scaf.c,
                local_c=controls[cid],
            )
            for cid, sh in enumerate(twins)
        ]
        scaf_upd = [u for u, _ in scaf_results]
        for u, new_local in scaf_results:
            controls[u.client_id] = new_local
        s_scaf = replace(
            s_scaf, c=ParamVector(s_scaf.c.values + aggregate_control(scaf_upd).values)
        )
        s_scaf = server_step(s_scaf, aggregate(scaf_upd), ServerConfig())
        s_plain = server_step(s_plain, aggregate(plain_upd), ServerConfig())
        diff = float(np.max(np.abs(s_scaf.w.values - s_plain.w.values)))
        assert diff < 1e-10, f"(c) round {t}: max element diff {diff:.3e} >= 1e-10"
    assert time.perf_counter() - t0 < 10.0

    # --- (d) server SGD at lr 1 telescopes exactly ---
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        client=ClientConfig(opt_c="sgd"),
        server=ServerConfig(opt_s="sgd"),  # lr defaults to 1.0
        **{**_small_run_kwargs(), "rounds": 12, "eval_every": 6},
    )
    run = FederatedRun(cfg)
    w0v = run.initial_params.values.copy()
    deltas: list[np.ndarray] = []
    result = run.run(on_round=lambda r, rm: deltas.append(r.last_delta.values.copy()))
    assert result.status == "ok" and len(deltas) == 12
    folded = w0v
    for d in deltas:
        folded = folded + d  # the same left-to-right accumulation the server applies
    assert result.final_state.w.same_bits(ParamVector(folded)), "(d) telescoping not exact"
    assert time.perf_counter() - t0 < 10.0


# ===================================================================
# criterion 4: adaptive server rules match hand-derived first steps
# ===================================================================


def test_criterion_4_adaptive_step_hand_values():
    """One server step from zero state for each adaptive rule against
    frozen closed-form values, within 1e-12 per element.

    From zero state with delta = 0.1 everywhere, beta1=0.9, beta2=0.99,
    lr=0.005, eps=1e-8 (hand algebra, frozen):
        m = 0.1 * 0.1
        adagrad: v = 0.1^2          -> step = 0.005*m/(0.1  + 1e-8)
        adam:    v = 0.01 * 0.1^2   -> step = 0.005*m/(0.01 + 1e-8)
        yogi:    v = 0 + 0.01*0.1^2 (sign(0 - 0.1^2) = -1) -> same as adam
    """
    for opt_s, expected in (
        ("adagrad", 0.000499999950000005),
        ("adam", 0.004999995000004997),
        ("yogi", 0.004999995000004997),
    ):
        state = ServerState.initial(ParamVector.zeros(7))
        cfg = ServerConfig(opt_s=opt_s, beta1=0.9, beta2=0.99, eps=1e-8)  # lr -> 0.005
        stepped = server_step(state, ParamVector(np.full(7, 0.1)), cfg)
        worst = float(np.max(np.abs(stepped.w.values - expected)))
        assert worst < 1e-12, f"{opt_s}: max |w - {expected!r}| = {worst:.3e} >= 1e-12"


# ===================================================================
# criterion 5: momentum accumulation coefficient vs symbolic unroll
# ===================================================================


def test_criterion_5_momentum_coefficient_norm():
    """accum_coeff_norm(momentum, steps) equals the summed coefficients
    of an explicitly unrolled momentum recursion for momentum in
    {0, 0.5, 0.9} and steps 1..20, within 1e-12, in under 1 s."""
    t0 = time.perf_counter()
    for momentum in (0.0, 0.5, 0.9):
        for steps in range(1, 21):
            # u_k = momentum * u_{k-1} + g_k, displacement = sum_k u_k:
            # gradient j contributes sum_{k>=j} momentum^(k-j).
            total = 0.0
            for j in range(1, steps + 1):
                total += sum(momentum ** (k - j) for k in range(j, steps + 1))
            got = accum_coeff_norm(momentum, steps)
            assert abs(got - total) < 1e-12, (
                f"momentum={momentum}, steps={steps}: {got!r} vs unrolled {total!r}"
            )
    assert time.perf_counter() - t0 < 1.0


# ===================================================================
# criterion 6: partition skew behaves at both ends of the alpha range
# ===================================================================


def test_criterion_6_dirichlet_heterogeneity():
    """At alpha=0.1 (100 clients, 10 classes, 20 seeds) the median
    client covers 90% of its samples with at most 3 labels; at
    alpha=1e6 (10 clients) every client's label distribution is within
    total-variation distance 0.1 of the global one.  Under 10 s."""
    t0 = time.perf_counter()
    for seed in range(20):
        ds = gen_synthetic(10, 2, 200, 1.0, seed)
        part = dirichlet_partition(ds, 100, 0.1, seed)
        needed = []
        for idx in part.assignment:
            hist = np.bincount(ds.labels[idx], minlength=10)
            top = np.sort(hist)[::-1]
            needed.append(int(np.searchsorted(np.cumsum(top), 0.9 * hist.sum()) + 1))
        med = float(np.median(needed))
        assert med <= 3.0, f"seed {seed}: median labels-to-90% {med} > 3"

    for seed in range(5):
        ds = gen_synthetic(10, 2, 1000, 1.0, seed)
        part = dirichlet_partition(ds, 10, 1e6, seed)
        global_p = np.bincount(ds.labels, minlength=10) / len(ds.labels)
        for cid, idx in enumerate(part.assignment):
            p = np.bincount(ds.labels[idx], minlength=10) / len(idx)
            tv = 0.5 * float(np.abs(p - global_p).sum())
            assert tv < 0.1, f"seed {seed} client {cid}: TV distance {tv:.4f} >= 0.1"
    assert time.perf_counter() - t0 < 10.0


# ===================================================================
# criterion 7: every optimizer pair completes on a smoke config
# ===================================================================


def test_criterion_7_grid_totality(tmp_path):
    """The full 4x4 optimizer grid (8 clients, half sampled, 5 rounds,
    synthetic blobs) completes with 16 finite report rows in under 60 s."""
    t0 = time.perf_counter()
    base = ExperimentConfig(
        client=ClientConfig(batch_size=16),
        data=DataConfig(num_classes=4, dim=6, samples_per_class=40, spread=1.5),
        num_clients=8,
        sample_ratio=0.5,
        rounds=5,
        eval_every=5,
        seed=0,
    )
    grid_result = run_grid(GridSpec(base=base), out_dir=tmp_path)
    assert not grid_result.any_diverged
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 17  # header + all 16 optimizer pairs
    acc_col = rows[0].index("best_acc_round_5")
    for row in rows[1:]:
        assert row[-1] == "ok"
        assert np.isfinite(float(row[acc_col])), f"non-finite accuracy in {row}"
    assert time.perf_counter() - t0 < 60.0


# ===================================================================
# criteria 8 and 9: calibrated benchmark, rerun byte-for-byte
# ===================================================================

BENCH_SEEDS = (0, 1, 2)
BENCH_PAIRS = (("sgd", "sgd"), ("prox", "yogi"))

# Pre-registered calibration (protocol fixed before any numbers were
# read): sweep spread in {2.0, 1.5, 1.0} over seeds {0,1,2}; pick the
# largest spread whose plain-averaging min best accuracy is >= 0.92 and
# freeze the floor at 0.90.  Observed mins: 0.5925 (2.0), 0.7825 (1.5),
# 0.9575 (1.0) -> spread 1.0, floor 0.90.  The prox+yogi mean at that
# spread was 0.9533 vs 0.9617, a gap of -0.0083, within the -0.01 band.
BENCH_SPREAD = 1.0
BENCH_ACC_FLOOR = 0.90


def bench_config(opt_c: str, opt_s: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        client=ClientConfig(opt_c=opt_c),
        server=ServerConfig(opt_s=opt_s),
        data=DataConfig(
            alpha=0.1,
            num_classes=10,
            dim=20,
            samples_per_class=200,
            spread=BENCH_SPREAD,
        ),
        num_clients=20,
        sample_ratio=0.5,
        rounds=200,
        eval_every=10,
        seed=seed,
    )


@pytest.fixture(scope="module")
def desk_benchmark(tmp_path_factory):
    """Run both benchmark algorithms over all seeds once; criteria 8
    and 9 share the results.  Timing is excluded from the CSVs so that
    reruns can be compared byte for byte."""
    out = tmp_path_factory.mktemp("benchmark")
    runs = {}
    t0 = time.perf_counter()
    for opt_c, opt_s in BENCH_PAIRS:
        for seed in BENCH_SEEDS:
            cell = out / f"{opt_c}_{opt_s}_seed{seed}"
            result = run_experiment(
                bench_config(opt_c, opt_s, seed), out_dir=cell, include_timing=False
            )
            runs[(opt_c, opt_s, seed)] = (result, (cell / "metrics.csv").read_bytes())
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - t0)


def test_criterion_8_desk_scale_benchmark(desk_benchmark):
    """Skewed 10-class benchmark (20 clients, half sampled, 200 rounds,
    3 seeds): plain averaging reaches best accuracy >= 0.90 on every
    seed (calibrated floor), and the prox-client/yogi-server pairing's
    mean best accuracy is within 0.01 below plain averaging's or
    better.  Under 10 min including the shared runs."""
    runs = desk_benchmark.runs
    assert all(result.status == "ok" for result, _ in runs.values())
    fed = [runs[("sgd", "sgd", s)][0].best_acc for s in BENCH_SEEDS]
    prox = [runs[("prox", "yogi", s)][0].best_acc for s in BENCH_SEEDS]
    assert min(fed) >= BENCH_ACC_FLOOR, f"plain-averaging bests {fed} dip below {BENCH_ACC_FLOOR}"
    gap = float(np.mean(prox) - np.mean(fed))
    assert gap >= -0.01, f"prox/yogi mean best trails by {-gap:.4f} > 0.01 ({prox} vs {fed})"
    assert desk_benchmark.elapsed < 600.0


def test_criterion_9_determinism(desk_benchmark, tmp_path, monkeypatch):
    """Re-running every benchmark cell reproduces its metrics CSV byte
    for byte and its final parameters bit for bit; training each round's
    clients in cohorts of one instead of one cohort changes nothing
    either."""
    for (opt_c, opt_s, seed), (result, csv_bytes) in desk_benchmark.runs.items():
        rerun_dir = tmp_path / f"rerun_{opt_c}_{opt_s}_{seed}"
        rerun = run_experiment(
            bench_config(opt_c, opt_s, seed), out_dir=rerun_dir, include_timing=False
        )
        assert (rerun_dir / "metrics.csv").read_bytes() == csv_bytes
        assert rerun.final_state.w.same_bits(result.final_state.w)

    monkeypatch.setattr(client_mod, "COHORT_BYTES", 1)  # every cohort holds one client
    for opt_c, opt_s in BENCH_PAIRS:
        split_dir = tmp_path / f"split_{opt_c}_{opt_s}"
        split = run_experiment(
            bench_config(opt_c, opt_s, 0), out_dir=split_dir, include_timing=False
        )
        whole_result, whole_bytes = desk_benchmark.runs[(opt_c, opt_s, 0)]
        assert (split_dir / "metrics.csv").read_bytes() == whole_bytes
        assert split.final_state.w.same_bits(whole_result.final_state.w)
