"""Command-line entry points.

    fedsim run CONFIG [--out DIR] [--seed N]
    fedsim grid CONFIG [--out DIR] [--seed N]
    fedsim partition-stats CONFIG [--seed N]
    fedsim check

``run`` executes a single experiment and prints checkpoint metrics.
``grid`` sweeps opt_c x opt_s x seeds (a config without a ``grid``
section sweeps the full 4x4 with the base seed) and writes a summary
report; it exits nonzero if any cell diverged, but the report is still
written.  ``partition-stats`` describes the client data split without
training.  ``check`` runs the built-in numerical self checks.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, GridSpec, parse_config, save_config
from .orchestrator import (
    ExperimentResult,
    FederatedRun,
    RoundMetrics,
    algorithm_name,
    prepare_data,
    run_experiment,
    shared_data,
)

REPORT_COLUMNS_FIXED = ("algorithm_name", "opt_c", "opt_s")


@dataclass
class GridCell:
    opt_c: str
    opt_s: str
    seed: int
    result: ExperimentResult


@dataclass
class GridResult:
    spec: GridSpec
    cells: list[GridCell]

    @property
    def any_diverged(self) -> bool:
        return any(cell.result.diverged for cell in self.cells)


def _best_acc_at(result: ExperimentResult, round_idx: int) -> float:
    """Best-so-far test accuracy recorded at a checkpoint round.  Round 0,
    a zero-round run's only checkpoint, is the initial evaluation."""
    if round_idx == 0:
        return result.best_acc
    for rm in result.metrics:
        if rm.round_idx == round_idx and rm.best_acc is not None:
            return rm.best_acc
    return float("nan")


def run_grid(
    spec: GridSpec,
    out_dir: str | Path | None = None,
    include_timing: bool = True,
    progress=None,
) -> GridResult:
    """Run every (opt_c, opt_s, seed) cell; one cell diverging never stops the rest.

    The cells run seed by seed, each seed inside its own ``shared_data()``
    block, so the sweep derives what one seed's cells share once: the
    prepared data and the random schedule.  Only one seed's values are
    held at a time (``shared_data`` gives their size).  Each cell gives
    the same bits as a run of its config alone, and the result lists the
    cells in spec order.
    """
    out = Path(out_dir) if out_dir is not None else None
    done: dict[tuple[str, str, int], GridCell] = {}
    for seed in spec.seeds:
        with shared_data():
            for opt_c, opt_s, cell_seed in spec.cells():
                if cell_seed != seed:
                    continue
                cfg = spec.cell_config(opt_c, opt_s, seed)
                cell_dir = out / f"{algorithm_name(opt_c, opt_s)}_seed{seed}" if out else None
                result = run_experiment(cfg, out_dir=cell_dir, include_timing=include_timing)
                cell = done[opt_c, opt_s, seed] = GridCell(opt_c, opt_s, seed, result)
                if progress is not None:
                    progress(cell)
    grid_result = GridResult(spec, [done[key] for key in spec.cells()])
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        emit_report(grid_result, out / "report.csv")
        emit_per_seed_report(grid_result, out / "report_per_seed.csv")
        save_config(spec, out / "config.yaml")
    return grid_result


def _acc_cell(value: float) -> str:
    return repr(float(value)) if np.isfinite(value) else "nan"


def _mean_or_nan(values: list[float]) -> float:
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else float("nan")


def emit_report(grid_result: GridResult, path: str | Path) -> None:
    """Summary CSV: one row per algorithm, mean-over-seeds best accuracy.

    Columns: algorithm_name, opt_c, opt_s, one best_acc_round_<t> column
    per checkpoint (best-so-far accuracy at round t, averaged over the
    seeds that finished), argmax_at (the checkpoints where this row tops
    its column), and status naming any diverged seeds.  Cells with no
    surviving seed hold nan.  Re-emitting writes identical bytes.
    """
    spec = grid_result.spec
    checkpoints = spec.resolved_checkpoints()
    header = (
        list(REPORT_COLUMNS_FIXED)
        + [f"best_acc_round_{t}" for t in checkpoints]
        + ["argmax_at", "status"]
    )
    pairs = [
        (opt_c, opt_s)
        for opt_c in spec.opt_c
        for opt_s in spec.opt_s
        if any(c.opt_c == opt_c and c.opt_s == opt_s for c in grid_result.cells)
    ]
    table: dict[tuple[str, str], list[float]] = {}
    status: dict[tuple[str, str], str] = {}
    for pair in pairs:
        group = [c for c in grid_result.cells if (c.opt_c, c.opt_s) == pair]
        table[pair] = [
            _mean_or_nan([_best_acc_at(c.result, t) for c in group]) for t in checkpoints
        ]
        bad = sorted(c.seed for c in group if c.result.diverged)
        status[pair] = "ok" if not bad else "diverged:" + ",".join(map(str, bad))
    # column argmax annotation: which checkpoints this algorithm wins
    winners: dict[tuple[str, str], list[int]] = {pair: [] for pair in pairs}
    for j, t in enumerate(checkpoints):
        col = [table[pair][j] for pair in pairs]
        if not any(np.isfinite(v) for v in col):
            continue
        top = np.nanmax(col)
        for pair, v in zip(pairs, col):
            if np.isfinite(v) and v == top:
                winners[pair].append(t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for pair in pairs:
            row = [algorithm_name(*pair), pair[0], pair[1]]
            row += [_acc_cell(v) for v in table[pair]]
            row.append(",".join(str(t) for t in winners[pair]))
            row.append(status[pair])
            writer.writerow(row)


def emit_per_seed_report(grid_result: GridResult, path: str | Path) -> None:
    """Per-seed companion to the summary report (same accuracy columns)."""
    checkpoints = grid_result.spec.resolved_checkpoints()
    header = (
        list(REPORT_COLUMNS_FIXED)
        + ["seed"]
        + [f"best_acc_round_{t}" for t in checkpoints]
        + ["status"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cell in grid_result.cells:
            row = [algorithm_name(cell.opt_c, cell.opt_s), cell.opt_c, cell.opt_s, cell.seed]
            row += [_acc_cell(_best_acc_at(cell.result, t)) for t in checkpoints]
            row.append(cell.result.status)
            writer.writerow(row)


def _print_round(run: FederatedRun, rm: RoundMetrics) -> None:
    if rm.test_acc is not None:
        print(
            f"  round {rm.round_idx:>5}  train_loss {rm.train_loss:.4f}  "
            f"test_loss {rm.test_loss:.4f}  test_acc {rm.test_acc:.4f}"
        )


def _cmd_run(args) -> int:
    parsed = parse_config(args.config)
    if isinstance(parsed, GridSpec):
        print("error: config defines a grid; use `fedsim grid`", file=sys.stderr)
        return 2
    cfg = parsed if args.seed is None else replace(parsed, seed=args.seed)
    print(f"{cfg.algorithm} (opt_c={cfg.opt_c}, opt_s={cfg.opt_s}, seed={cfg.seed})")
    result = run_experiment(cfg, out_dir=args.out, on_round=_print_round)
    if result.diverged:
        print(f"status: {result.status} ({result.error})")
        return 1
    print(f"status: ok  best_acc {result.best_acc:.4f}")
    return 0


def _cmd_grid(args) -> int:
    parsed = parse_config(args.config)
    spec = parsed if isinstance(parsed, GridSpec) else GridSpec(parsed, seeds=(parsed.seed,))
    if args.seed is not None:  # --seed sets the sweep's seeds; the base keeps its own
        spec = replace(spec, seeds=(args.seed,))

    def progress(cell: GridCell) -> None:
        state = "diverged" if cell.result.diverged else f"best_acc {cell.result.best_acc:.4f}"
        print(f"{algorithm_name(cell.opt_c, cell.opt_s):>12} seed {cell.seed}: {state}")

    grid_result = run_grid(spec, out_dir=args.out, progress=progress)
    if args.out:
        print(f"report: {Path(args.out) / 'report.csv'}")
    if grid_result.any_diverged:
        print("one or more cells diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_partition_stats(args) -> int:
    parsed = parse_config(args.config)
    cfg = parsed.base if isinstance(parsed, GridSpec) else parsed
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    data = prepare_data(cfg)
    train, part = data.train, data.partition
    print(
        f"{cfg.num_clients} clients over {len(train)} training samples "
        f"(alpha={cfg.data.alpha}, seed={cfg.seed})"
    )
    needed = []
    for cid, shard in enumerate(data.shards):
        hist = np.bincount(shard.labels, minlength=train.num_classes)
        top = np.sort(hist)[::-1]
        need = int(np.searchsorted(np.cumsum(top), 0.9 * hist.sum()) + 1)
        needed.append(need)
        pairs = " ".join(f"{k}:{hist[k]}" for k in np.flatnonzero(hist))
        print(f"client {cid:>3}  n={hist.sum():>5}  p={part.ratios[cid]:.4f}  {pairs}")
    counts = part.counts
    print(
        f"sizes min/median/max: {counts.min()}/{int(np.median(counts))}/{counts.max()}  "
        f"median classes covering 90% of a client: {int(np.median(needed))}"
    )
    return 0


def _cmd_check(args) -> int:
    from .check import run_checks

    return 0 if run_checks() else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help=None):
        p.add_argument("config", help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if out_help is not None:
            p.add_argument("--out", default=None, help=out_help)

    p_run = sub.add_parser("run", help="run a single experiment")
    add_common(p_run, "directory for metrics and model files")
    p_run.set_defaults(fn=_cmd_run)

    p_grid = sub.add_parser("grid", help="run an optimizer-pair sweep and write a report")
    add_common(p_grid, "directory for per-cell outputs and report.csv")
    p_grid.set_defaults(fn=_cmd_grid)

    p_stats = sub.add_parser("partition-stats", help="describe the client data split")
    add_common(p_stats)
    p_stats.set_defaults(fn=_cmd_partition_stats)

    p_check = sub.add_parser("check", help="run built-in numerical self checks")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
