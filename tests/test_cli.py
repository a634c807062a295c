from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fedsim
from fedsim import check as check_mod
from fedsim import client as client_mod
from fedsim import data as data_mod
from fedsim import orchestrator as orchestrator_mod
from fedsim.cli import GridResult, _parser, emit_report, main, run_grid
from fedsim.client import ClientConfig
from fedsim.config import GridSpec, parse_config
from fedsim.numerics import fingerprint
from fedsim.orchestrator import DataConfig, ExperimentConfig, ModelConfig, algorithm_name, run_experiment
from fedsim.server import ServerConfig

TINY = """
num_clients: 6
sample_ratio: 0.5
rounds: 4
eval_every: 2
data:
  num_classes: 3
  dim: 4
  samples_per_class: 30
  spread: 1.0
"""


def write_config(tmp_path, text=TINY, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------ run


def test_run_writes_outputs_and_prints_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "FedAvg" in printed
    assert "best_acc" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "model_final.bin").exists()
    assert (out / "model_best.bin").exists()


def test_run_seed_override_changes_model(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", cfg, "--out", str(a), "--seed", "1"])
    main(["run", cfg, "--out", str(b), "--seed", "1"])
    main(["run", cfg, "--out", str(c), "--seed", "2"])
    assert (a / "model_final.bin").read_bytes() == (b / "model_final.bin").read_bytes()
    assert (a / "model_final.bin").read_bytes() != (c / "model_final.bin").read_bytes()


def test_run_threads_flag_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as usage:
        main(["run", cfg, "--out", str(tmp_path / "out"), "--threads", "4"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_cli_surface_is_pinned():
    """Each verb's option strings; a new knob takes a deliberate edit here."""
    (verbs,) = [a.choices for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        verb: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for verb, p in verbs.items()
    }
    assert options == {
        "run": ["--out", "--seed"],
        "grid": ["--out", "--seed"],
        "partition-stats": ["--seed"],
        "check": [],
    }


def test_run_diverged_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "client:\n  lr: 1.0e+300\n")
    assert main(["run", cfg]) == 1
    assert "diverged" in capsys.readouterr().out


def test_run_rejects_grid_config(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "grid: {}\n")
    assert main(["run", cfg]) == 2
    assert "grid" in capsys.readouterr().err


def test_an_empty_grid_section_makes_the_file_a_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "grid:\n")
    assert parse_config(cfg) == parse_config(write_config(tmp_path, TINY + "grid: {}\n", "braces.yaml"))
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == "error: config defines a grid; use `fedsim grid`\n"
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out)]) == 0
    assert len(read_csv(out / "report.csv")) == 17  # header + the default 4x4 sweep


def test_config_error_exit_code(tmp_path, capsys):
    for text in (
        "opt_c: bogus\n",
        "model:\n  kind: mlp1\n  hidden_dim: 0\n",
        "data:\n  source: csv\n  path: d.csv\n  label_col: y\n",
    ):
        assert main(["run", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the run header
        assert "config error" in captured.err


def test_run_on_csv_whose_header_width_differs_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    cfg = write_config(
        tmp_path,
        "num_clients: 2\nrounds: 1\n"
        f"data:\n  source: csv\n  path: {csv_path}\n  label_col: y\n  has_header: true\n",
    )
    for text, want in (
        ("a,b,y\n1,0\n2,1\n3,0\n4,1\n", "header has 3 columns, rows have 2"),
        ("a,y\n1,2,0\n2,3,1\n3,4,0\n4,5,1\n", "header has 2 columns, rows have 3"),
    ):
        csv_path.write_text(text)
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err == f"error: {csv_path}: {want}\n"


def test_csv_with_only_a_label_column_exits_2_naming_its_path(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("0\n1\n0\n1\n0\n1\n")
    cfg = write_config(
        tmp_path, f"num_clients: 2\nrounds: 1\ndata:\n  source: csv\n  path: {csv_path}\n"
    )
    want = f"error: {csv_path}: needs a label column and at least one feature column, got 1 column\n"
    for verb in ("run", "partition-stats"):
        assert main([verb, cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the run header
        assert captured.err == want


def test_data_too_small_to_hold_out_a_test_split_exits_2(tmp_path, capsys):
    # The stratified split keeps a class's only sample for training.
    cfg = write_config(tmp_path, TINY.replace("samples_per_class: 30", "samples_per_class: 1"))
    assert main(["run", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected at parse time
    assert captured.err == (
        "config error: data.samples_per_class (line 9): samples_per_class must be >= 2 "
        "for synthetic data, got 1\n"
    )
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("0.5,0\n1.5,1\n2.5,2\n")  # one row per class
    cfg = write_config(
        tmp_path, f"num_clients: 2\nrounds: 1\ndata:\n  source: csv\n  path: {csv_path}\n"
    )
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_path}: test split is empty: no class has a second sample to hold out\n"
    )


def test_non_finite_config_value_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "client:\n  weight_decay: .nan\n")
    assert main(["run", cfg]) == 2
    assert "client.weight_decay (line 12): must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("num_clients", "0"), ("sample_ratio", "0.0"), ("rounds", "-1"), ("eval_every", "0"), ("seed", "-1")],
)
def test_top_level_rule_names_its_key_and_line(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, f"opt_c: sgd\nclient:\n  lr: 0.1\n{key}: {value}\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} (line 4): {key} must")


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("run", "data: {has_header: 1}\n", "data.has_header (line 1): expected true/false"),
        ("run", "data: {path: 5}\n", "data.path (line 1): expected a string"),
        ("run", "data: {label_col: 1.5}\n", "data.label_col (line 1): expected a column index or name"),
        ("run", "client: 3\n", "client (line 1): expected a mapping of settings"),
        ("grid", "grid: {seeds: 3}\n", "grid.seeds (line 1): expected a list"),
        ("grid", "grid: [1]\n", "grid (line 1): expected a mapping of sweep settings"),
    ],
)
def test_wrong_section_value_type_names_its_key_and_line(tmp_path, capsys, verb, text, message):
    assert main([verb, write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


NOT_POSITIVE = _floats(max_value=0.0)
NEGATIVE = _floats(max_value=0.0, exclude_max=True)
OUTSIDE_0_1 = st.one_of(NEGATIVE, _floats(min_value=1.0))  # outside [0, 1)

#: Every settable numeric key, with values outside its range.  The grid
#: keys are probed on a base of 4 rounds evaluated every 2, so that only
#: rounds 2 and 4 are checkpoints.
OUT_OF_RANGE = {
    "client.local_epochs": st.integers(-1000, 0),
    "client.batch_size": st.integers(-1000, 0),
    "client.lr": NOT_POSITIVE,
    "client.momentum": OUTSIDE_0_1,
    "client.weight_decay": NEGATIVE,
    "client.prox_mu": NEGATIVE,
    "server.server_lr": NOT_POSITIVE,
    "server.beta1": OUTSIDE_0_1,
    "server.beta2": OUTSIDE_0_1,
    "server.eps": NOT_POSITIVE,
    "model.hidden_dim": st.integers(-1000, 0),
    "data.alpha": NOT_POSITIVE,
    "data.test_fraction": st.one_of(NOT_POSITIVE, _floats(min_value=1.0)),
    "data.num_classes": st.integers(-1000, 1),
    "data.dim": st.integers(-1000, 0),
    "data.samples_per_class": st.integers(-1000, 1),
    "data.spread": NOT_POSITIVE,
    "num_clients": st.integers(-1000, 0),
    "sample_ratio": st.one_of(NOT_POSITIVE, _floats(min_value=1.0, exclude_min=True)),
    "rounds": st.integers(-1000, -1),
    "eval_every": st.integers(-1000, 0),
    "seed": st.integers(-1000, -1),
    "grid.seeds": st.integers(-1000, -1),
    "grid.checkpoints": st.integers(-1000, 1000).filter(lambda t: t not in (2, 4)),
}


def test_the_range_probes_cover_every_numeric_key():
    numeric = {"int", "float", "int | None", "float | None", "tuple[int, ...]"}
    owners = {"client": ClientConfig, "server": ServerConfig, "model": ModelConfig, "data": DataConfig}
    keys = {f.name for f in dataclasses.fields(ExperimentConfig) if f.type in numeric}
    for section, cls in {**owners, "grid": GridSpec}.items():
        keys |= {f"{section}.{f.name}" for f in dataclasses.fields(cls) if f.type in numeric}
    assert set(OUT_OF_RANGE) == keys


@pytest.mark.parametrize("path", sorted(OUT_OF_RANGE))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_out_of_range_value_exits_2_naming_its_key_and_line(tmp_path, capsys, builds, path, data):
    value = data.draw(OUT_OF_RANGE[path], label=path)
    section, _, key = path.rpartition(".")
    setting = f"{key}: {[value] if section == 'grid' else value!r}"
    if section:
        setting = f"{section}: {{{'kind: mlp1, ' if key == 'hidden_dim' else ''}{setting}}}"
    head = "rounds: 4\neval_every: 2\n" if section == "grid" else ""
    assert main(["partition-stats", write_config(tmp_path, head + setting + "\n")]) == 2
    line = head.count("\n") + 1
    assert capsys.readouterr().err.startswith(f"config error: {path} (line {line}): ")
    assert builds == []


# The server step lands on finite parameters so large that the test loss
# overflows: a divergence found by the round's evaluation.
EVAL_OVERFLOW = """
opt_s: adam
num_clients: 4
sample_ratio: 1.0
rounds: 3
eval_every: 1
server: {server_lr: 6.0e+306}
data: {num_classes: 3, dim: 50, samples_per_class: 20}
"""


def test_non_finite_test_loss_is_a_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, EVAL_OVERFLOW)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert "status: diverged (divergence at round 1: loss is NaN or Inf)" in capsys.readouterr().out
    rows = read_csv(out / "metrics.csv")
    assert [(r[0], r[-1]) for r in rows[1:]] == [("1", "diverged")]
    # Round 1 never finished, so both files hold the set-up model.
    initial = orchestrator_mod.FederatedRun(parse_config(cfg)).state.w
    for name in ("model_final.bin", "model_best.bin"):
        assert fedsim.load_params(out / name).same_bits(initial), name


def test_grid_records_a_non_finite_test_loss_as_a_diverged_cell(tmp_path, capsys):
    text = EVAL_OVERFLOW + "grid: {opt_c: [sgd], opt_s: [adam, yogi]}\n"
    out = tmp_path / "out"
    assert main(["grid", write_config(tmp_path, text), "--out", str(out)]) == 1
    assert "diverged" in capsys.readouterr().err
    rows = read_csv(out / "report.csv")
    assert [(r[0], r[-1]) for r in rows[1:]] == [("FedAdam", "diverged:0"), ("FedYogi", "diverged:0")]
    assert len(read_csv(out / "report_per_seed.csv")) == 3


def write_huge_config(tmp_path, extra=""):
    """A CSV whose features are all +-1.7e308: finite, so it loads, but the
    initial model's test loss overflows before any round trains."""
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(
        "".join(f"{(-1) ** i * 1.7e308!r},{(-1) ** (i // 2) * 1.7e308!r},{i % 3}\n" for i in range(30))
    )
    text = f"num_clients: 2\nsample_ratio: 1.0\nrounds: 2\ndata: {{source: csv, path: {csv_path}}}\n"
    return write_config(tmp_path, text + extra)


def test_a_non_finite_initial_test_loss_is_a_divergence_at_round_0(tmp_path, capsys):
    cfg = write_huge_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert "status: diverged (divergence at round 0: loss is NaN or Inf)" in capsys.readouterr().out
    rows = read_csv(out / "metrics.csv")
    assert [(r[0], r[-1]) for r in rows[1:]] == [("0", "diverged")]
    initial = orchestrator_mod.FederatedRun(parse_config(cfg)).state.w
    for name in ("model_final.bin", "model_best.bin"):
        assert fedsim.load_params(out / name).same_bits(initial), name


def test_grid_reports_cells_that_diverge_at_round_0(tmp_path, capsys):
    cfg = write_huge_config(tmp_path, "grid: {opt_c: [sgd], opt_s: [sgd, adam]}\n")
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out)]) == 1
    assert "diverged" in capsys.readouterr().err
    rows = read_csv(out / "report.csv")
    assert [r[3:] for r in rows[1:]] == [["nan", "", "diverged:0"]] * 2
    per_seed = read_csv(out / "report_per_seed.csv")
    assert [r[4:] for r in per_seed[1:]] == [["nan", "diverged"]] * 2


@pytest.mark.parametrize("verb", ["run", "partition-stats"])
def test_a_spread_that_overflows_the_features_exits_2_naming_spread(tmp_path, capsys, verb):
    cfg = write_config(tmp_path, TINY.replace("spread: 1.0", "spread: 1.7e+308"))
    assert main([verb, cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: spread 1.7e+308 is so large that the synthetic features overflow\n"
    assert captured.out == ""


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "none.yaml")]) == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------ grid


def test_grid_runs_all_cells_and_writes_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path, TINY + "grid:\n  opt_c: [sgd, nova]\n  opt_s: [sgd, yogi]\n  checkpoints: [2, 4]\n"
    )
    out = tmp_path / "grid_out"
    assert main(["grid", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "report.csv")
    assert rows[0] == [
        "algorithm_name",
        "opt_c",
        "opt_s",
        "best_acc_round_2",
        "best_acc_round_4",
        "argmax_at",
        "status",
    ]
    names = [r[0] for r in rows[1:]]
    assert names == ["FedAvg", "FedYogi", "FedNova", "NovaYogi"]
    assert all(r[-1] == "ok" for r in rows[1:])
    for r in rows[1:]:
        for cell in r[3:5]:
            assert 0.0 <= float(cell) <= 1.0
        assert float(r[4]) >= float(r[3])  # best-so-far never decreases
    assert (out / "FedAvg_seed0" / "metrics.csv").exists()
    assert (out / "NovaYogi_seed0" / "model_final.bin").exists()
    assert (out / "config.yaml").exists()
    assert parse_config(out / "config.yaml").checkpoints == (2, 4)


def test_grid_report_argmax_matches_cells_and_per_seed_file(tmp_path):
    cfg = write_config(
        tmp_path, TINY + "grid:\n  opt_c: [sgd, prox]\n  opt_s: [sgd, adagrad]\n  checkpoints: [2, 4]\n"
    )
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "report.csv")
    # the argmax_at column marks exactly the rows achieving each column's max
    for j, t in ((3, 2), (4, 4)):
        col = [float(r[j]) for r in rows[1:]]
        for r, v in zip(rows[1:], col):
            marked = [int(x) for x in r[5].split(",")] if r[5] else []
            assert (t in marked) == (v == max(col))
    per_seed = read_csv(out / "report_per_seed.csv")
    assert per_seed[0] == [
        "algorithm_name",
        "opt_c",
        "opt_s",
        "seed",
        "best_acc_round_2",
        "best_acc_round_4",
        "status",
    ]
    assert len(per_seed) == len(rows) == 5  # header + 4 cells, one seed each
    # with a single seed the summary means equal the per-seed values
    assert [r[4] for r in per_seed[1:]] == [r[3] for r in rows[1:]]
    assert [r[5] for r in per_seed[1:]] == [r[4] for r in rows[1:]]


def test_grid_survives_diverging_cells_and_exits_nonzero(tmp_path, capsys):
    # at this server_lr adam's first step makes the test loss non-finite,
    # sgd's does not
    text = EVAL_OVERFLOW.replace("rounds: 3", "rounds: 1")
    cfg = write_config(tmp_path, text + "grid: {opt_c: [sgd], opt_s: [sgd, adam]}\n")
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out)]) == 1
    rows = read_csv(out / "report.csv")
    by_name = {r[0]: r for r in rows[1:]}
    assert by_name["FedAvg"][-1] == "ok"
    assert by_name["FedAdam"][-1] == "diverged:0"
    assert by_name["FedAdam"][3] == "nan"
    assert "diverged" in capsys.readouterr().err


def test_zero_round_grid_reports_the_initial_accuracy(tmp_path, capsys):
    cfg = write_config(
        tmp_path, TINY.replace("rounds: 4", "rounds: 0") + "grid:\n  opt_c: [sgd]\n  opt_s: [sgd]\n"
    )
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out)]) == 0
    printed = re.search(r"FedAvg seed 0: best_acc (\S+)", capsys.readouterr().out).group(1)
    for report in ("report.csv", "report_per_seed.csv"):
        header, row = read_csv(out / report)
        cell = row[header.index("best_acc_round_0")]
        assert f"{float(cell):.4f}" == printed, report


def test_grid_seed_override(tmp_path):
    cfg = write_config(tmp_path, TINY + "grid:\n  opt_c: [sgd]\n  opt_s: [sgd]\n  seeds: [0, 1]\n")
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert (out / "FedAvg_seed7").exists()
    assert not (out / "FedAvg_seed0").exists()


def test_grid_on_plain_config_sweeps_full_4x4(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 17  # header + 16 combinations


def write_blobs_csv(path: Path, seed: int) -> str:
    """90 rows of 4 features and a label in 0..2, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    labels = np.arange(90) % 3
    feats = rng.normal(size=(3, 4))[labels] + rng.standard_normal((90, 4))
    path.write_text(
        "".join(",".join(map(repr, f)) + f",{y}\n" for f, y in zip(feats.tolist(), labels.tolist()))
    )
    return str(path)


ALL_OPT_C = "[sgd, prox, scaf, nova]"
ALL_OPT_S = "[sgd, adam, adagrad, yogi]"


def csv_grid_config(
    tmp_path, opt_c="[sgd, scaf]", opt_s="[sgd, adam]", seeds="[0, 1]", local_epochs=1
):
    """6 clients on ``write_blobs_csv``'s 90 rows, 3 sampled per round, 4 rounds."""
    csv_path = tmp_path / "blobs.csv"
    if not csv_path.exists():
        write_blobs_csv(csv_path, seed=0)
    return write_config(
        tmp_path,
        "num_clients: 6\nsample_ratio: 0.5\nrounds: 4\neval_every: 2\n"
        f"client:\n  local_epochs: {local_epochs}\n"
        f"data:\n  source: csv\n  path: {csv_path}\n"
        f"grid:\n  opt_c: {opt_c}\n  opt_s: {opt_s}\n  seeds: {seeds}\n",
    )


def test_grid_builds_its_data_once_per_seed(tmp_path, builds):
    spec = parse_config(csv_grid_config(tmp_path, ALL_OPT_C, ALL_OPT_S, local_epochs=2))
    memos = []  # (seed, the open memo, its size) after each cell

    def progress(cell):
        memo = orchestrator_mod._shared.get()
        memos.append((cell.seed, memo, len(memo)))

    result = run_grid(spec, out_dir=tmp_path / "grid", include_timing=False, progress=progress)
    assert builds == [0, 1]  # 32 cells, 2 seeds
    assert [(c.opt_c, c.opt_s, c.seed) for c in result.cells] == spec.cells()
    # One memo per seed, each seed's cells run together, and a memo holds
    # one seed's data, one schedule and the batch orders of 4 rounds, each
    # 3 sampled clients x 2 epochs.
    assert [seed for seed, _, _ in memos] == [0] * 16 + [1] * 16
    assert memos[0][1] is not memos[16][1]
    for seed, memo, size in memos:
        assert memo is memos[16 * seed][1] and size == 2 + 4
        orders = {key[6]: (key[7], value) for key, value in memo.items() if key[0] == "orders"}
        assert sorted(orders) == [1, 2, 3, 4]
        for sizes, round_orders in orders.values():
            assert len(round_orders) == 3
            for n, client_orders in zip(sizes, round_orders, strict=True):
                assert len(client_orders) == 2
                assert all(sorted(order.tolist()) == list(range(n)) for order in client_orders)
    for opt_c, opt_s, seed in spec.cells():
        name = f"{algorithm_name(opt_c, opt_s)}_seed{seed}"
        alone = tmp_path / "alone" / name
        run_experiment(spec.cell_config(opt_c, opt_s, seed), out_dir=alone, include_timing=False)
        for file in ("metrics.csv", "model_final.bin", "model_best.bin"):
            assert (tmp_path / "grid" / name / file).read_bytes() == (alone / file).read_bytes()
    assert len(builds) == 2 + 32  # a run after the sweep builds its own data


def test_grid_derives_each_seeds_schedule_once(tmp_path, derivations):
    spec = parse_config(csv_grid_config(tmp_path, ALL_OPT_C, ALL_OPT_S, "[0]", local_epochs=2))
    rounds, sampled = 4, 3
    once = {  # and no reference derivation
        "schedule": 1,
        "reseed": rounds + rounds * sampled * 2,  # samples, then 2 epochs' orders
        "client_block": 1,
    }
    result = run_grid(spec)
    assert len(result.cells) == 16 and not result.any_diverged
    assert derivations == once  # not 16 times each
    # A run after the sweep derives everything itself, to the same bits.
    derivations.clear()
    alone = run_experiment(spec.cell_config("nova", "yogi", 0))
    assert derivations == once
    assert alone.final_state.w.same_bits(result.cells[-1].result.final_state.w)


def test_grid_rereads_a_rewritten_csv(tmp_path):
    spec = parse_config(csv_grid_config(tmp_path, "[sgd]", "[sgd]", "[0]"))
    before = run_grid(spec).cells[0].result.final_state.w.values
    write_blobs_csv(tmp_path / "blobs.csv", seed=1)
    after = run_grid(spec).cells[0].result.final_state.w.values
    alone = run_experiment(spec.cell_config("sgd", "sgd", 0)).final_state.w.values
    assert after.tobytes() == alone.tobytes()
    assert after.tobytes() != before.tobytes()


def test_grid_on_malformed_csv_names_the_row(tmp_path, capsys):
    cfg = csv_grid_config(tmp_path)
    (tmp_path / "blobs.csv").write_text("1.0,0\n2.0,1\nbad,0\n")
    assert main(["grid", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'blobs.csv'}: row 3, column 1: 'bad' is not numeric\n"


# ------------------------------------------------------------------ report


def test_emit_report_is_idempotent(tmp_path):
    cfg = write_config(tmp_path, TINY + "grid:\n  opt_c: [prox]\n  opt_s: [sgd]\n")
    spec = parse_config(cfg)
    result = run_grid(spec)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_report(result, p1)
    emit_report(result, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_report_empty_results_writes_header_only(tmp_path):
    spec = parse_config(write_config(tmp_path, TINY + "grid: {}\n"))
    p = tmp_path / "empty.csv"
    emit_report(GridResult(spec, cells=[]), p)
    rows = read_csv(p)
    assert len(rows) == 1
    assert rows[0][:3] == ["algorithm_name", "opt_c", "opt_s"]


# ------------------------------------------------------------------ other verbs


def test_partition_stats(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["partition-stats", cfg]) == 0
    printed = capsys.readouterr().out
    assert "6 clients" in printed
    assert "client   0" in printed
    assert "median classes covering 90%" in printed


def test_partition_stats_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["partition-stats", cfg]) == 0
    default = capsys.readouterr().out.splitlines()
    assert main(["partition-stats", cfg, "--seed", "7"]) == 0
    seeded = capsys.readouterr().out.splitlines()
    assert default[0].endswith("seed=0)")
    assert seeded[0].endswith("seed=7)")
    assert seeded[1:] != default[1:]  # the split follows the override seed


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    return capsys.readouterr().out


def _usage_words(line: str) -> tuple[set[str], list[str]]:
    """A usage line's options and, upper-cased, its positional arguments."""
    positional = re.sub(r"\[[^]]*\]", "", line).split()
    return set(re.findall(r"--[\w-]+", line)), [w.upper() for w in positional]


def test_usage_docstring_lists_each_verbs_options(capsys):
    documented = {
        line.split()[1]: line.strip()
        for line in fedsim.cli.__doc__.splitlines()
        if line.startswith("    fedsim ")
    }
    verbs = re.search(r"\{([\w,-]+)\}", _help([], capsys)).group(1).split(",")
    assert sorted(documented) == sorted(verbs)
    for verb in verbs:
        # argparse's usage paragraph, e.g. "usage: fedsim run [-h] [--seed SEED] ... config"
        usage = " ".join(_help([verb], capsys).split("\n\n")[0].split()[1:])
        assert _usage_words(documented[verb]) == _usage_words(usage), verb


def test_check_verb(capsys):
    assert main(["check"]) == 0
    printed = capsys.readouterr().out
    numerics, *lines = printed.splitlines()
    assert numerics == f"numerics: {fingerprint()}"
    assert [line.split(":")[0] for line in lines] == [
        f"ok   {name}" for name, _ in check_mod.CHECKS
    ]
    assert "ok   gradients" in printed and "ok   streams" in printed
    assert "FAIL" not in printed


def test_check_streams_arm_fails_when_seeding_changes(monkeypatch, capsys):
    """A numpy whose PCG64 seeded itself from other words would draw other
    batch orders than the schedule's reused generator."""
    assert ("streams", check_mod.check_streams) in check_mod.CHECKS
    seeded_rng = data_mod.seeded_rng

    def reseeded(*keys):
        return seeded_rng(*keys, 1)

    monkeypatch.setattr(data_mod, "seeded_rng", reseeded)
    assert main(["check"]) == 1
    assert "FAIL streams: round 1, client " in capsys.readouterr().out


def test_check_cohort_arm_fails_when_stacking_changes_a_bit(monkeypatch, capsys):
    assert ("cohort", check_mod.check_cohort) in check_mod.CHECKS
    check_mod.check_cohort()
    real = check_mod.train_cohort

    def one_bit_off(*args, **kwargs):
        results = real(*args, **kwargs)
        update, new_c = results[-1]
        values = update.delta.values.copy()
        values[0] = np.nextafter(values[0], np.inf)
        results[-1] = (dataclasses.replace(update, delta=fedsim.ParamVector(values)), new_c)
        return results

    monkeypatch.setattr(check_mod, "train_cohort", one_bit_off)
    assert main(["check"]) == 1
    assert "FAIL cohort: sgd: client" in capsys.readouterr().out


def test_check_cohort_arm_trains_on_the_schedules_batch_orders(monkeypatch, capsys):
    """The cohort arm feeds the run's schedule to the cohort and checks it
    against ``local_train`` on each client's schedule seed, so a schedule
    whose orders are not its seeds' ``epoch_batches`` fails it."""
    real = orchestrator_mod.Schedule.batch_orders

    def one_reversed(self, round_idx, sizes):
        orders = real(self, round_idx, sizes)
        first, *rest = orders[0]
        return ((first[::-1], *rest), *orders[1:])

    monkeypatch.setattr(orchestrator_mod.Schedule, "batch_orders", one_reversed)
    assert check_mod.run_checks() is False
    assert "\nFAIL cohort: " in capsys.readouterr().out


def test_check_cohort_arm_fails_when_tied_clients_swap_results(monkeypatch, capsys):
    """Clients that tie on (steps, last batch size) differ only in their
    stack row, so a cohort that hands back a tied client's row for the
    other fails the arm."""
    real = check_mod.train_cohort

    def tied_swapped(spec, w, shards, cfg, *args, **kwargs):
        results = real(spec, w, shards, cfg, *args, **kwargs)
        ties: dict[tuple[int, int], list[int]] = {}
        for i, shard in enumerate(shards):
            nb = -(-len(shard) // cfg.batch_size)
            key = (cfg.local_epochs * nb, len(shard) - (nb - 1) * cfg.batch_size)
            ties.setdefault(key, []).append(i)
        for a, b, *_ in (group for group in ties.values() if len(group) > 1):
            results[a], results[b] = results[b], results[a]
        return results

    monkeypatch.setattr(check_mod, "train_cohort", tied_swapped)
    assert check_mod.run_checks() is False
    assert "\nFAIL cohort: " in capsys.readouterr().out


def test_check_fixed_point_arm_takes_under_a_second():
    assert ("fixed-point", check_mod.check_fixed_point) in check_mod.CHECKS
    t0 = time.perf_counter()
    printed = check_mod.check_fixed_point()
    assert time.perf_counter() - t0 < 1.0
    assert printed.startswith("after 100 rounds of 5 local steps, ||grad F|| is ")


def test_check_fixed_point_arm_fails_when_controls_never_move(monkeypatch, capsys):
    """Control variates that stay zero make scaf FedAvg, which stalls at
    FedAvg's biased point."""

    def frozen(option, spec, shards, global_w, local_ws, global_c, local_cs, steps, lr):
        return np.array(local_cs), None, None

    monkeypatch.setattr(client_mod, "update_control_variate", frozen)
    assert check_mod.run_checks() is False
    assert "\nFAIL fixed-point: scaf's ||grad F|| " in capsys.readouterr().out


def test_python_dash_m_fedsim_runs_check():
    src = str(Path(fedsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim", "check"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ok   gradients" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_python_dash_m_fedsim_cli_warns_nothing():
    src = str(Path(fedsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fedsim.cli", "check"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # The package imports cli only when one of its re-exports is asked for.
    lazy = (
        "import sys, fedsim; assert 'fedsim.cli' not in sys.modules; "
        "from fedsim import GridResult, emit_per_seed_report, emit_report, run_grid; "
        "assert run_grid is sys.modules['fedsim.cli'].run_grid"
    )
    proc = subprocess.run(
        [sys.executable, "-c", lazy], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert {"GridResult", "emit_per_seed_report", "emit_report", "run_grid"} <= set(fedsim.__all__)


def test_every_exported_name_resolves():
    assert len(set(fedsim.__all__)) == len(fedsim.__all__)
    for name in fedsim.__all__:
        getattr(fedsim, name)  # AttributeError names a stale export
    namespace: dict = {}
    exec("from fedsim import *", namespace)
    assert set(fedsim.__all__) <= namespace.keys()
    assert not hasattr(fedsim, "ClientShard")  # a shard is a Dataset now


# ------------------------------------------------------------------ docs


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    algorithm, best_acc, status = capsys.readouterr().out.split()
    assert (algorithm, status) == ("ScafYogi", "ok")
    assert 0.0 <= float(best_acc) <= 1.0
    assert (tmp_path / "out" / "metrics.csv").exists()
