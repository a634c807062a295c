"""Built-in self checks for the ``check`` CLI verb.

Each check exercises one load-bearing piece of numerics against an
independent oracle (finite differences, closed forms, hand-computed
values, exact-equivalence arguments) so a user can validate an install
in seconds without the full test suite.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .client import (
    CLIENT_OPTIMIZERS,
    ClientConfig,
    ClientUpdate,
    accum_coeff_norm,
    local_train,
    train_cohort,
)
from .data import dirichlet_partition, epoch_batches, gen_synthetic
from .model import Batch, ModelSpec, finite_diff_grad, init_params, loss_and_grad
from .orchestrator import (
    DataConfig,
    ExperimentConfig,
    TAG_CLIENT,
    TAG_SAMPLING,
    FederatedRun,
    Schedule,
    prepare_schedule,
    run_experiment,
    sample_clients,
)
from .params import ParamVector
from .rng import spawn_seed
from .server import ServerConfig, ServerState, aggregate, server_step


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailure(detail)


def _random_batch(spec: ModelSpec, seed: int, n: int) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(
        rng.normal(size=(n, spec.input_dim)),
        rng.integers(0, spec.num_classes, size=n).astype(np.int64),
    )


def check_gradients() -> str:
    """Analytic gradients match central finite differences."""
    worst = 0.0
    for spec in (
        ModelSpec("logistic", 5, 3),
        ModelSpec("mlp1", 4, 3, hidden_dim=6, activation="tanh"),
    ):
        params = init_params(spec, 7)
        batch = _random_batch(spec, seed=11, n=16)
        _, grad = loss_and_grad(spec, params, batch)
        fd = finite_diff_grad(spec, params, batch)
        scale = np.maximum(np.abs(fd.values), 1e-8)
        worst = max(worst, float(np.max(np.abs(grad.values - fd.values) / scale)))
    _require(worst < 1e-5, f"gradient mismatch {worst:.2e}")
    return f"worst relative error {worst:.2e}"


def check_coeff_norm() -> str:
    """Momentum coefficient norm closed form equals explicit unrolling."""
    for rho in (0.0, 0.5, 0.9):
        for tau in range(1, 11):
            u = total = 0.0
            for _ in range(tau):
                u = rho * u + 1.0
                total += u
            got = accum_coeff_norm(rho, tau)
            _require(abs(got - total) <= 1e-12 * max(1.0, total), f"rho={rho}, tau={tau}: {got} vs {total}")
    return "closed form matches unrolling for rho in {0, 0.5, 0.9}, tau 1..10"


def check_adaptive_first_step() -> str:
    """First adaptive server step from zero state matches hand algebra."""
    w = ParamVector.zeros(3)
    delta = ParamVector(np.full(3, 0.1))
    state = ServerState.initial(w)
    m = 0.1 * 0.1
    expected = {
        "adagrad": 0.005 * m / (np.sqrt(0.1 * 0.1) + 1e-8),
        "adam": 0.005 * m / (np.sqrt(0.01 * 0.1 * 0.1) + 1e-8),
        "yogi": 0.005 * m / (np.sqrt(0.01 * 0.1 * 0.1) + 1e-8),
    }
    for opt_s, want in expected.items():
        new = server_step(state, delta, ServerConfig(opt_s=opt_s))
        got = new.w.values[0]
        _require(abs(got - want) <= 1e-12, f"{opt_s}: step {got!r} != {want!r}")
    return "adam/adagrad/yogi one-step updates match hand values"


def check_aggregation() -> str:
    """Weighted averaging and step-normalized averaging agree on oracles."""
    def upd(cid, vec, n, norm=None):
        return ClientUpdate(cid, ParamVector(vec), n, 1, 0.0, coeff_norm=norm)

    got = aggregate([upd(0, [4.0], 1), upd(1, [0.0], 1), upd(2, [2.0], 2)])
    _require(abs(got.values[0] - 2.0) <= 1e-15, f"weighted_avg gave {got.values[0]!r}")
    nova = aggregate([upd(i, [3.0, -1.0], 5, norm=4.25) for i in range(4)])
    avg = aggregate([upd(i, [3.0, -1.0], 5) for i in range(4)])
    _require(
        float(np.max(np.abs(nova.values - avg.values))) <= 1e-12,
        "normalized aggregation must equal plain averaging when clients are homogeneous",
    )
    return "hand-weighted example and homogeneous-normalization identity hold"


def check_prox_zero_is_plain() -> str:
    """prox with mu=0 reproduces the plain client bit for bit."""
    spec = ModelSpec("logistic", 4, 3)
    shard = _random_batch(spec, seed=3, n=12)
    w = init_params(spec, 1)
    base = dict(local_epochs=2, batch_size=5, lr=0.05, momentum=0.9, weight_decay=1e-4)
    upd_sgd, _ = local_train(spec, w, shard, ClientConfig(opt_c="sgd", **base), 1, 0, 99)
    upd_prox, _ = local_train(
        spec, w, shard, ClientConfig(opt_c="prox", prox_mu=0.0, **base), 1, 0, 99
    )
    _require(upd_sgd.delta.same_bits(upd_prox.delta), "deltas differ")
    return "identical deltas, bit for bit"


def check_determinism() -> str:
    """Re-running a small experiment reproduces final params exactly."""
    cfg = _tiny_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    _require(a.final_state.w.same_bits(b.final_state.w), "reruns disagree")
    return "rerun is byte-identical"


def _same_result(got, want) -> bool:
    """Two (ClientUpdate, new control variate) results agree bit for bit."""
    (update, new_c), (ref, ref_c) = got, want
    vectors = ((update.delta, ref.delta), (update.delta_control, ref.delta_control), (new_c, ref_c))
    return (
        all(a is b or (a is not None and b is not None and a.same_bits(b)) for a, b in vectors)
        and (update.step_count, update.coeff_norm) == (ref.step_count, ref.coeff_norm)
        and np.float64(update.train_loss).tobytes() == np.float64(ref.train_loss).tobytes()
    )


def check_cohort() -> str:
    """A run's first round, trained side by side on its schedule's batch
    orders, in schedule order and reversed, matches each client trained
    alone on its schedule seed, bit for bit; neither stacking on this
    numpy/BLAS nor the clients' order may change a bit."""
    base = _tiny_config()
    run = FederatedRun(replace(base, client=replace(base.client, local_epochs=2)))
    schedule = prepare_schedule(run.cfg)
    ids, seeds = schedule.ids[0].tolist(), schedule.seeds[0].tolist()
    shards = [run.shards[cid] for cid in ids]
    orders = schedule.batch_orders(1, [len(shard) for shard in shards])
    rng = np.random.default_rng(4)
    for opt_c in CLIENT_OPTIMIZERS:
        client = replace(run.cfg.client, opt_c=opt_c)
        global_c, local_cs = None, [None] * len(ids)
        if opt_c == "scaf":
            global_c, *local_cs = (
                ParamVector(0.01 * rng.normal(size=run.spec.param_count)) for _ in range(len(ids) + 1)
            )
        alone = [
            local_train(run.spec, run.state.w, shard, client, 1, cid, seed, global_c, local_c)
            for shard, cid, seed, local_c in zip(shards, ids, seeds, local_cs)
        ]
        for way in (slice(None), slice(None, None, -1)):
            cohort = train_cohort(
                run.spec, run.state.w, shards[way], client, 1, ids[way], orders[way], global_c, local_cs[way]
            )
            for cid, got, want in zip(ids[way], cohort, alone[way]):
                _require(_same_result(got, want), f"{opt_c}: client {cid} differs in a cohort from alone")
    mechanisms = ", ".join(CLIENT_OPTIMIZERS)
    return f"{len(ids)} clients in a cohort, in schedule and reverse order, match each alone for {mechanisms}"


def check_streams() -> str:
    """A run's schedule, derived as arrays, equals what the reference
    functions draw through numpy's own SeedSequence and PCG64 seeding;
    a numpy that seeds another way fails here."""
    base = _tiny_config()
    cfg = replace(base, seed=2**40 + 3, client=replace(base.client, local_epochs=2))
    sizes = [len(shard) for shard in FederatedRun(cfg).shards]
    schedule = Schedule(cfg.seed, cfg.num_clients, cfg.sample_ratio, cfg.rounds, 2, False)
    sampling = spawn_seed(cfg.seed, TAG_SAMPLING)
    for r in range(1, cfg.rounds + 1):
        ids = sample_clients(cfg.num_clients, cfg.sample_ratio, r, sampling)
        _require(schedule.ids[r - 1].tolist() == ids, f"round {r}: sampled ids differ")
        seeds = [spawn_seed(cfg.seed, TAG_CLIENT, r, cid) for cid in ids]
        _require(schedule.seeds[r - 1].tolist() == seeds, f"round {r}: client seeds differ")
        got = schedule.batch_orders(r, [sizes[cid] for cid in ids])
        for cid, seed, orders in zip(ids, seeds, got):
            rows = np.arange(sizes[cid])
            for epoch, order in enumerate(orders):
                want = np.concatenate(epoch_batches(rows, cfg.client.batch_size, epoch, seed))
                _require(np.array_equal(order, want), f"round {r}, client {cid}: batch order differs")
    return f"{cfg.rounds} rounds of client samples, seeds and batch orders match numpy's"


def check_partition() -> str:
    """Dirichlet partition is a disjoint cover with no empty client."""
    ds = gen_synthetic(num_classes=4, dim=3, samples_per_class=30, spread=1.0, seed=5)
    part = dirichlet_partition(ds, num_clients=8, alpha=0.1, seed=5)
    merged = np.sort(np.concatenate(part.assignment))
    _require(np.array_equal(merged, np.arange(len(ds))), "not a disjoint cover")
    _require(int(part.counts.min()) >= 1, "an empty client survived repair")
    _require(abs(float(part.ratios.sum()) - 1.0) <= 1e-12, "ratios do not sum to 1")
    return "disjoint cover, all clients non-empty, ratios sum to 1"


def _tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        client=ClientConfig(opt_c="scaf", batch_size=8),
        server=ServerConfig(opt_s="yogi"),
        data=DataConfig(num_classes=3, dim=4, samples_per_class=30, spread=1.0),
        num_clients=6,
        sample_ratio=0.5,
        rounds=3,
        eval_every=1,
        seed=2,
    )


CHECKS = (
    ("gradients", check_gradients),
    ("coeff-norm", check_coeff_norm),
    ("adaptive-first-step", check_adaptive_first_step),
    ("aggregation", check_aggregation),
    ("prox-zero", check_prox_zero_is_plain),
    ("determinism", check_determinism),
    ("cohort", check_cohort),
    ("streams", check_streams),
    ("partition", check_partition),
)


def run_checks() -> bool:
    """Run every check; print one line each; True when all pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            print(f"ok   {name}: {fn()}")
        except CheckFailure as exc:
            all_ok = False
            print(f"FAIL {name}: {exc}")
    return all_ok
