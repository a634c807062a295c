"""The federated round loop.

``run_experiment`` wires everything together: build the dataset, hold
out a stratified test split, partition the training data across clients
by Dirichlet label skew, then for each round sample a client subset,
train locally, aggregate deltas, and step the server optimizer.

Clients are pure functions of (round-start state, shard, config, batch
orders), and every random stream is keyed by purpose tags, so a run is a
pure function of its config: rerunning reproduces results bit for bit.
A run derives its random schedule (``Schedule``: every round's client
sample, every client's seed and batch orders) as arrays at its first
round, to the bits of ``sample_clients``, ``spawn_seed`` and
``epoch_batches``.  A round trains its sampled clients in order as
cohorts (``client.train_cohort``), cut to the cohort size cap, and folds
each cohort's updates into the round's sums (``server.RoundSum``) as the
cohort finishes.
"""
from __future__ import annotations

import csv
import itertools
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

# local_train stays importable here: the traced benchmark wraps
# fedsim.orchestrator.local_train.
from .client import (  # noqa: F401
    ClientConfig,
    Control,
    DivergenceError,
    cohort_size,
    local_train,
    train_cohort,
)
from .data import (
    TAG_BATCH,
    Dataset,
    Partition,
    client_shards,
    dirichlet_partition,
    load_csv_dataset,
    gen_synthetic,
    split_train_test,
)
from .model import ModelSpec, evaluate, init_params
from .params import NonFiniteError, ParamVector
from .rng import generate_states, reseed, seeded_rng, spawn_seed
from .server import RoundSum, ServerConfig, ServerState, aggregate, aggregate_control, server_step

# Purpose tags for seed derivation (dataset tags live in data.py).
TAG_INIT = 10
TAG_SAMPLING = 11
TAG_CLIENT = 12

DATA_SOURCES = ("synthetic", "csv")

#: Display names for every client/server optimizer combination.
ALGORITHM_NAMES: dict[tuple[str, str], str] = {
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

METRICS_COLUMNS = (
    "round",
    "algorithm_name",
    "opt_c",
    "opt_s",
    "train_loss",
    "test_loss",
    "test_acc",
    "best_acc",
    "wall_ms",
    "status",
)


def algorithm_name(opt_c: str, opt_s: str) -> str:
    try:
        return ALGORITHM_NAMES[(opt_c, opt_s)]
    except KeyError:
        raise ValueError(f"no algorithm for opt_c={opt_c!r}, opt_s={opt_s!r}") from None


@dataclass(frozen=True)
class DataConfig:
    """Where the data comes from and how it is split/partitioned."""

    source: str = "synthetic"
    alpha: float = 0.1
    test_fraction: float = 0.2
    # synthetic source
    num_classes: int = 10
    dim: int = 20
    samples_per_class: int = 200
    spread: float = 2.0
    # csv source
    path: str | None = None
    label_col: int | str = -1
    has_header: bool = False

    def __post_init__(self) -> None:
        if self.source not in DATA_SOURCES:
            raise ValueError(
                f"source must be one of the valid tokens {list(DATA_SOURCES)}, got {self.source!r}"
            )
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.source == "synthetic":
            # The stratified split holds out at least one sample per class.
            for key, least in (("num_classes", 2), ("dim", 1), ("samples_per_class", 2)):
                if getattr(self, key) < least:
                    raise ValueError(f"{key} must be >= {least} for synthetic data, got {getattr(self, key)}")
            if not (0.0 < self.spread < math.inf):
                raise ValueError(f"spread must be positive and finite, got {self.spread}")
        else:
            if not self.path:
                raise ValueError("csv data source needs a path")
            if isinstance(self.label_col, str) and not self.has_header:
                raise ValueError("label_col by name requires has_header=True")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture choice; input/output dims are taken from the data."""

    kind: str = "logistic"
    hidden_dim: int | None = None
    activation: str | None = None

    def __post_init__(self) -> None:
        self.spec(input_dim=1, num_classes=2)  # ModelSpec holds the architecture rules

    def spec(self, input_dim: int, num_classes: int) -> ModelSpec:
        """The architecture for data of this shape; an mlp1 defaults to 32 relu units."""
        mlp = self.kind == "mlp1"
        return ModelSpec(
            self.kind,
            input_dim,
            num_classes,
            hidden_dim=32 if mlp and self.hidden_dim is None else self.hidden_dim,
            activation="relu" if mlp and self.activation is None else self.activation,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a single run depends on; two equal configs give equal runs."""

    client: ClientConfig = field(default_factory=ClientConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    num_clients: int = 100
    sample_ratio: float = 0.1
    rounds: int = 2000
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if not (0.0 < self.sample_ratio <= 1.0):
            raise ValueError(f"sample_ratio must be in (0, 1], got {self.sample_ratio}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def is_eval_round(self, round_idx: int) -> bool:
        """Rounds evaluated on the test set: every eval_every-th, and the last."""
        return round_idx % self.eval_every == 0 or round_idx == self.rounds

    @property
    def opt_c(self) -> str:
        return self.client.opt_c

    @property
    def opt_s(self) -> str:
        return self.server.opt_s

    @property
    def algorithm(self) -> str:
        return algorithm_name(self.opt_c, self.opt_s)


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round record; test metrics are None except at evaluation rounds."""

    round_idx: int
    selected: tuple[int, ...]
    train_loss: float | None
    test_loss: float | None
    test_acc: float | None
    best_acc: float | None
    wall_ms: float
    payload_bytes: int
    status: str = "ok"


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: list[RoundMetrics]
    final_state: ServerState
    best_params: ParamVector
    best_acc: float
    status: str = "ok"
    error: str | None = None

    @property
    def algorithm(self) -> str:
        return self.config.algorithm

    @property
    def diverged(self) -> bool:
        return self.status != "ok"


def sample_clients(num_clients: int, sample_ratio: float, round_idx: int, seed: int) -> list[int]:
    """Uniform sample without replacement of max(1, floor(ratio * N)) ids, sorted."""
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if not (0.0 < sample_ratio <= 1.0):
        raise ValueError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
    if round_idx < 0:
        raise ValueError(f"round_idx must be >= 0, got {round_idx}")
    count = sample_size(num_clients, sample_ratio)
    picked = seeded_rng(seed, round_idx).choice(num_clients, size=count, replace=False)
    return sorted(int(i) for i in picked)


def sample_size(num_clients: int, sample_ratio: float) -> int:
    """How many clients a round samples: max(1, floor(ratio * N))."""
    return max(1, math.floor(sample_ratio * num_clients))


class Schedule:
    """A run's random schedule, derived once as arrays.  For rounds
    r = 1..``rounds`` and the i-th client a round samples:

    - ``ids[r - 1]``: the sampled ids, ``sample_clients(num_clients,
      sample_ratio, r, spawn_seed(seed, TAG_SAMPLING))``;
    - ``seeds[r - 1, i]``: its seed, ``spawn_seed(seed, TAG_CLIENT, r,
      ids[r - 1, i])``;
    - ``order_words[r - 1, i, e]``: the PCG64 seed words of its batch
      order in local epoch e, the stream ``seeded_rng(seeds[r - 1, i],
      TAG_BATCH, e)`` that ``epoch_batches`` shuffles with.

    The arrays are read-only, and ``key`` is the schedule's whole input.
    Its one mutable member is the generator that ``batch_orders`` draws
    with, which it reseeds before every draw: runs may share a schedule.
    """

    def __init__(self, seed: int, num_clients: int, sample_ratio: float, rounds: int, local_epochs: int):
        self.key = (seed, num_clients, sample_ratio, rounds, local_epochs)
        self._rng = np.random.Generator(np.random.PCG64())
        count = sample_size(num_clients, sample_ratio)
        round_col = np.arange(1, rounds + 1, dtype=np.uint64)
        ids = np.empty((rounds, count), dtype=np.int64)
        sampling = generate_states([spawn_seed(seed, TAG_SAMPLING), round_col], 4)
        for row, words in zip(ids, sampling.tolist()):
            row[:] = reseed(self._rng, words).choice(num_clients, size=count, replace=False)
        ids.sort(axis=1)
        keys = [seed, TAG_CLIENT, np.repeat(round_col, count), ids.reshape(-1)]
        seeds = generate_states(keys, 1).reshape(rounds, count)
        epochs = np.tile(np.arange(local_epochs, dtype=np.uint64), rounds * count)
        keys = [np.repeat(seeds.reshape(-1), local_epochs), TAG_BATCH, epochs]
        order_words = generate_states(keys, 4).reshape(rounds, count, local_epochs, 4)
        for arr in (ids, seeds, order_words):
            arr.flags.writeable = False
        self.ids, self.seeds, self.order_words = ids, seeds, order_words

    def batch_orders(self, round_idx: int, sizes: Sequence[int]) -> tuple[tuple[np.ndarray, ...], ...]:
        """Round ``round_idx``'s batch orders, read-only: entry i holds, for
        each local epoch, the order in which the i-th sampled client, of
        ``sizes[i]`` rows, visits them (``epoch_batches``' shuffle).  A
        ``shared_data()`` block draws them once per (key, round, sizes)."""
        sizes = tuple(sizes)

        def draw() -> tuple[tuple[np.ndarray, ...], ...]:
            rows = zip(sizes, self.order_words[round_idx - 1].tolist())
            orders = tuple(tuple(reseed(self._rng, w).permutation(n) for w in words) for n, words in rows)
            for order in itertools.chain(*orders):
                order.flags.writeable = False
            return orders

        return _memo(("orders", *self.key, round_idx, sizes), draw)


def build_dataset(cfg: DataConfig, seed: int) -> Dataset:
    if cfg.source == "synthetic":
        return gen_synthetic(cfg.num_classes, cfg.dim, cfg.samples_per_class, cfg.spread, seed)
    return load_csv_dataset(cfg.path, cfg.label_col, cfg.has_header)


@dataclass(frozen=True)
class PreparedData:
    """A run's data, ready to train on; every array in it is read-only.

    ``shards[i]`` is client i's Dataset, training rows ``partition.assignment[i]``
    viewed in one client-ordered block; ``test_batch`` is the test split.
    """

    partition: Partition
    shards: tuple[Dataset, ...]
    test_batch: Dataset


T = TypeVar("T")

# What runs repeat, by input, while a ``shared_data()`` block is open (per
# thread, like any context variable).
_shared: ContextVar[dict | None] = ContextVar("fedsim_shared_data", default=None)


@contextmanager
def shared_data() -> Iterator[None]:
    """Within the block, runs derive what they have in common once: runs
    that agree on (data section, seed, ``num_clients``) share one
    ``prepare_data`` result, and runs that agree on a ``Schedule``'s key
    share it and each round's batch orders (a memo entry per round).
    Every shared value is immutable or read-only, so no run can change
    what the next one reads, and each run gives the same bits as outside
    a block.

    The memo holds it all until the block ends.  A data entry holds its
    dataset's rows once, as the test split and the shards' block.  A
    schedule takes 8 bytes per sampled client per round for its ids, 8
    for its seeds and 32 per local epoch for its seed words, and a round's
    orders one int64 index per sampled sample per local epoch: about
    128 kB for 20 rounds of 10 sampled clients of 80 samples, one epoch.
    That is why ``run_grid`` opens one block per seed.  Ending with the
    block, it reads a data file rewritten between two blocks again; an
    outer block's memo is restored on exit.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _memo(key: tuple, build: Callable[[], T]) -> T:
    """``build()``; inside a ``shared_data()`` block, only once per ``key``.

    ``key`` must name the derivation and hold its whole input, and the
    value must be immutable or read-only.
    """
    memo = _shared.get()
    if memo is None:
        return build()
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = build()
        return value


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    """Build the data, hold out the test split, partition the rest and cut
    one shard per client; a client's id is its shard's index.

    The dataset and the training split are dropped once split and gathered:
    the result holds the rows once, and set-up about twice, while splitting.
    Inside a ``shared_data()`` block, runs that agree on (data section,
    seed, ``num_clients``) share one result.
    """

    def build() -> PreparedData:
        full = build_dataset(cfg.data, cfg.seed)
        try:
            train, test = split_train_test(full, cfg.data.test_fraction, cfg.seed)
        except ValueError as exc:
            # Only a CSV can leave the test split empty: synthetic data
            # has at least two samples a class.
            raise ValueError(f"{cfg.data.path}: {exc}") from None
        del full
        partition = dirichlet_partition(train, cfg.num_clients, cfg.data.alpha, cfg.seed)
        return PreparedData(partition, client_shards(train, partition), test)

    return _memo(("data", cfg.data, cfg.seed, cfg.num_clients), build)


def prepare_schedule(cfg: ExperimentConfig) -> Schedule:
    """The run's random schedule; inside a ``shared_data()`` block, runs
    that agree on its key share one."""
    key = (cfg.seed, cfg.num_clients, cfg.sample_ratio, cfg.rounds, cfg.client.local_epochs)
    return _memo(("schedule", *key), lambda: Schedule(*key))


class FederatedRun:
    """Owns all mutable state of one experiment; advance it round by round.
    ``run_round`` changes ``state``, ``controls``, ``best_acc``,
    ``best_params``, ``last_delta`` and ``metrics`` together or not at all.
    ``run`` creates ``metrics.csv`` at its first checkpoint and appends each
    later checkpoint's rows, so the file always holds every finished one."""

    def __init__(self, cfg: ExperimentConfig, threads: int = 1):
        # Clients train serially; `threads` goes with ROADMAP item 1's bench change.
        if threads != 1:
            raise ValueError(f"threads must be 1, got {threads}")
        self.cfg = cfg
        data = prepare_data(cfg)
        self.partition = data.partition
        self.spec = cfg.model.spec(data.test_batch.dim, data.test_batch.num_classes)
        self.shards = data.shards
        self.test_batch = data.test_batch
        w0 = init_params(self.spec, spawn_seed(cfg.seed, TAG_INIT))
        self.state = ServerState.initial(w0)
        # Per-client control variates (``client.Control``, at most P values
        # each) persist across rounds; clients never selected share zero.
        self.controls: dict[int, Control] = {}
        if cfg.opt_c == "scaf":
            zero = Control(ParamVector.zeros(len(w0)).values)
            self.controls = {cid: zero for cid in range(cfg.num_clients)}
        # Derived at the first round, so that set-up stays data and model.
        self._schedule: Schedule | None = None
        self.metrics: list[RoundMetrics] = []
        self.best_acc = -math.inf
        self.best_params = w0
        self.last_delta: ParamVector | None = None

    def _evaluate(self, w: ParamVector) -> tuple[float, float]:
        """Test loss and accuracy of ``w``.  A blown-up model overflows on
        the way to its loss, which ``evaluate`` reports as NonFiniteError."""
        with np.errstate(over="ignore", invalid="ignore"):
            return evaluate(self.spec, w, self.test_batch)

    def _payload_bytes(self, num_selected: int) -> int:
        # Each way: the params, plus the control variate under scaf.
        down = (2 if self.cfg.opt_c == "scaf" else 1) * 8 * self.spec.param_count
        up = down + 16  # sample count + step count
        if self.cfg.opt_c == "nova":
            up += 8  # coefficient norm
        return num_selected * (down + up)

    def run_round(self, round_idx: int) -> RoundMetrics:
        """Advance round ``round_idx`` (1..``rounds``).

        The round is computed into locals and committed at its end, so a
        round that raises leaves the run as the last finished round left
        it.  A client that blows up raises DivergenceError, which names the
        client and local step.  A non-finite fold, server step or test loss
        raises NonFiniteError; ``run`` reports both as a divergence here.
        """
        t0 = time.perf_counter()
        cfg = self.cfg
        if not 1 <= round_idx <= cfg.rounds:
            raise ValueError(f"round_idx must be in 1..{cfg.rounds}, got {round_idx}")
        if self._schedule is None:
            self._schedule = prepare_schedule(cfg)
        ids = self._schedule.ids[round_idx - 1].tolist()
        sizes = [len(self.shards[cid]) for cid in ids]
        orders = self._schedule.batch_orders(round_idx, sizes)
        size = cohort_size(self.spec.param_count)
        scaf = cfg.opt_c == "scaf"
        # Each cohort's updates are folded into the round's sums as it
        # finishes and then dropped (the loop variable too), so a round
        # holds one cohort's updates.
        sums = RoundSum(sizes, self.spec.param_count, control=scaf, normalized=cfg.opt_c == "nova")
        losses: list[float] = []
        new_controls: list[tuple[int, Control | None]] = []
        for i in range(0, len(ids), size):
            part = ids[i : i + size]
            for upd, new_local in train_cohort(
                self.spec,
                self.state.w,
                [self.shards[cid] for cid in part],
                cfg.client,
                round_idx,
                part,
                orders[i : i + size],
                global_c=self.state.c if scaf else None,
                local_cs=[self.controls[cid] for cid in part] if scaf else None,
            ):
                sums.add(upd)
                losses.append(upd.train_loss)
                new_controls.append((upd.client_id, new_local))
            del upd

        delta = aggregate(sums)
        state = self.state
        if scaf:
            state = replace(state, c=ParamVector._own(state.c.values + aggregate_control(sums).values))
        state = server_step(state, delta, cfg.server)
        test_loss = test_acc = None
        best_acc, best_params = self.best_acc, self.best_params
        if cfg.is_eval_round(round_idx):
            test_loss, test_acc = self._evaluate(state.w)
            if test_acc > best_acc:
                best_acc, best_params = test_acc, state.w

        rm = RoundMetrics(
            round_idx=round_idx,
            selected=tuple(ids),
            train_loss=float(np.mean(losses)),
            test_loss=test_loss,
            test_acc=test_acc,
            best_acc=None if test_acc is None else best_acc,
            wall_ms=(time.perf_counter() - t0) * 1000.0,
            payload_bytes=self._payload_bytes(len(ids)),
            status="ok",
        )
        # The round's one commit: nothing above changed the run.
        self.state, self.best_acc, self.best_params, self.last_delta = state, best_acc, best_params, delta
        if scaf:
            self.controls.update(new_controls)
        self.metrics.append(rm)
        return rm

    def run(
        self,
        out_dir: str | Path | None = None,
        on_round: Callable[["FederatedRun", RoundMetrics], None] | None = None,
        include_timing: bool = True,
    ) -> ExperimentResult:
        """Run all rounds; on divergence, stop and flush what exists.  A
        non-finite test loss of the initial model is a divergence at round 0."""
        out = Path(out_dir) if out_dir is not None else None
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        self._flushed = 0  # leading ``metrics`` entries in out's metrics.csv

        status, error = "ok", None
        round_idx = 0
        try:
            # The initial model seeds best-accuracy tracking but contributes
            # no metrics row: the series covers training rounds 1..T only.
            if self.best_acc == -math.inf:
                self.best_acc, self.best_params = self._evaluate(self.state.w)[1], self.state.w
            for round_idx in range(1, self.cfg.rounds + 1):
                rm = self.run_round(round_idx)
                if on_round is not None:
                    on_round(self, rm)
                if out is not None and self.cfg.is_eval_round(round_idx):
                    self._flush(out, include_timing)
        except (DivergenceError, NonFiniteError) as exc:
            if isinstance(exc, NonFiniteError):
                exc = DivergenceError(round_idx, None, None, str(exc))
            sentinel = RoundMetrics(
                exc.round_idx, selected=(), train_loss=None, test_loss=None, test_acc=None,
                best_acc=None, wall_ms=0.0, payload_bytes=0, status="diverged",
            )
            self.metrics.append(sentinel)
            status, error = "diverged", str(exc)

        result = ExperimentResult(
            config=self.cfg,
            metrics=self.metrics,
            final_state=self.state,
            best_params=self.best_params,
            best_acc=self.best_acc,
            status=status,
            error=error,
        )
        if out is not None:
            # The loop already flushed at the last round, which is an eval round.
            if status != "ok" or self.cfg.rounds == 0:
                self._flush(out, include_timing)
            save_params(out / "model_final.bin", self.state.w, self.spec)
            save_params(out / "model_best.bin", self.best_params, self.spec)
        return result

    def _flush(self, out: Path, include_timing: bool) -> None:
        write_metrics_csv(
            out / "metrics.csv",
            self.metrics,
            self.cfg.opt_c,
            self.cfg.opt_s,
            include_timing=include_timing,
            start=self._flushed,
        )
        self._flushed = len(self.metrics)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path | None = None, include_timing: bool = True
) -> ExperimentResult:
    """Build a run from the config and execute it end to end; per-round
    hooks go through ``FederatedRun.run``."""
    return FederatedRun(cfg).run(out_dir=out_dir, include_timing=include_timing)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(
    path: str | Path,
    metrics: list[RoundMetrics],
    opt_c: str,
    opt_s: str,
    include_timing: bool = True,
    start: int = 0,
) -> None:
    """One row per checkpoint (plus any divergence sentinel row).

    Rounds without an evaluation are tracked in memory but not written.
    With include_timing=False the wall_ms cell is left blank so outputs
    of identical runs compare byte-for-byte.  With ``start`` > 0 the file
    already holds the rows of ``metrics[:start]``, written by this
    function, and only the rows of ``metrics[start:]`` are appended; the
    file then has the bytes of one call on the whole series.
    """
    name = algorithm_name(opt_c, opt_s)
    rows = [rm for rm in metrics[start:] if rm.test_acc is not None or rm.status != "ok"]
    with open(path, "a" if start else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not start:
            writer.writerow(METRICS_COLUMNS)
        for rm in rows:
            writer.writerow(
                [
                    rm.round_idx,
                    name,
                    opt_c,
                    opt_s,
                    _fmt(rm.train_loss),
                    _fmt(rm.test_loss),
                    _fmt(rm.test_acc),
                    _fmt(rm.best_acc),
                    _fmt(rm.wall_ms) if include_timing else "",
                    rm.status,
                ]
            )


_META_KEYS = ("kind", "input_dim", "num_classes", "hidden_dim", "activation", "param_count")


def _meta_fields(spec: ModelSpec) -> dict[str, str]:
    """A sidecar's architecture lines, {key: text} in file order; a
    logistic spec has no hidden_dim or activation line."""
    return {key: str(getattr(spec, key)) for key in _META_KEYS if getattr(spec, key) is not None}


def save_params(path: str | Path, params: ParamVector, spec: ModelSpec) -> None:
    """Binary vector dump: u64-LE length header then float64-LE values.

    A human-readable sidecar (<path>.meta.txt) records the architecture
    and layout so the blob can be interpreted without the config.
    """
    path = Path(path)
    arr = params.values
    with open(path, "wb") as fh:
        fh.write(np.array([arr.shape[0]], dtype="<u8").tobytes())
        fh.write(arr.astype("<f8").tobytes())
    lines = [f"{key}: {value}" for key, value in _meta_fields(spec).items()]
    lines.append(
        "layout: per layer, weights row-major (fan_in x fan_out) then biases; "
        "values are float64 little-endian after a u64 little-endian count"
    )
    Path(str(path) + ".meta.txt").write_text("\n".join(lines) + "\n")


def load_params(path: str | Path, spec: ModelSpec | None = None) -> ParamVector:
    """Read back a vector written by save_params (exact bytes round-trip).

    Given a ``spec``, the ``.meta.txt`` sidecar must exist and describe
    that architecture.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header")
    count = int(np.frombuffer(raw[:8], dtype="<u8")[0])
    expected = 8 + 8 * count
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {count} values, got {len(raw)}")
    if spec is not None:
        try:
            text = Path(str(path) + ".meta.txt").read_text()
        except FileNotFoundError:
            raise ValueError(f"{path}: no .meta.txt sidecar to check against the model") from None
        found = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        want = _meta_fields(spec)
        for key in _META_KEYS:
            if found.get(key) != want.get(key):
                raise ValueError(
                    f"{path}: sidecar {key} is {found.get(key)!r}, the model has {want.get(key)!r}"
                )
        if count != spec.param_count:
            raise ValueError(f"{path}: holds {count} values, the model has {spec.param_count}")
    return ParamVector(np.frombuffer(raw[8:], dtype="<f8"))
