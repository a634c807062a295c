from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import check as check_mod
from fedsim import data as data_mod
from fedsim import orchestrator as orchestrator_mod
from fedsim.cli import GridResult, _parser, emit_report, main, run_grid
from fedsim.config import parse_config
from fedsim.orchestrator import algorithm_name, run_experiment

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


def test_data_too_small_to_hold_out_a_test_split_exits_2(tmp_path, capsys):
    # The stratified split keeps a class's only sample for training.
    cfg = write_config(tmp_path, TINY.replace("samples_per_class: 30", "samples_per_class: 1"))
    assert main(["run", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected at parse time
    assert captured.err == (
        "config error: data (line 6): synthetic data needs num_classes >= 2, dim >= 1, "
        "samples_per_class >= 2\n"
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
    # the damped adam rule goes non-finite immediately, the sgd cells don't
    cfg = write_config(
        tmp_path,
        TINY + "server:\n  damped: true\ngrid:\n  opt_c: [sgd]\n  opt_s: [sgd, adam]\n",
    )
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as usage:
        main(["grid", cfg, "--out", str(out), "--damped"])  # set by server.damped only
    assert usage.value.code == 2
    capsys.readouterr()
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
    # one seed's data and one schedule, which keeps the batch orders of
    # 4 rounds x 3 sampled clients, 2 epochs each.
    assert [seed for seed, _, _ in memos] == [0] * 16 + [1] * 16
    assert memos[0][1] is not memos[16][1]
    for seed, memo, size in memos:
        assert memo is memos[16 * seed][1] and size == 1 + 1
        (schedule,) = (value for key, value in memo.items() if key[0] == "schedule")
        assert len(schedule._kept) == 4 * 3
        assert all(len(orders) == 2 for orders in schedule._kept.values())
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
        "client_shard": 6,
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
    assert [line.split(":")[0] for line in printed.splitlines()] == [
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
        orders[0] = (first[::-1], *rest)
        return orders

    monkeypatch.setattr(orchestrator_mod.Schedule, "batch_orders", one_reversed)
    assert check_mod.run_checks() is False
    assert "\nFAIL cohort: " in capsys.readouterr().out


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
