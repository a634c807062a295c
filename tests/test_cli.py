from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim
from fedsim.cli import GridResult, emit_report, main, run_grid
from fedsim.config import parse_config

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


def test_run_threads_flag_keeps_results_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", cfg, "--out", str(a)])
    main(["run", cfg, "--out", str(b), "--threads", "4"])
    assert (a / "model_final.bin").read_bytes() == (b / "model_final.bin").read_bytes()


def test_run_diverged_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "client:\n  lr: 1.0e+300\n")
    assert main(["run", cfg]) == 1
    assert "diverged" in capsys.readouterr().out


def test_run_rejects_grid_config(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "grid: {}\n")
    assert main(["run", cfg]) == 2
    assert "grid" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "opt_c: bogus\n")
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_config_value_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + "client:\n  weight_decay: .nan\n")
    assert main(["run", cfg]) == 2
    assert "client.weight_decay (line 12): must be finite" in capsys.readouterr().err


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
    cfg = write_config(tmp_path, TINY + "grid:\n  opt_c: [sgd]\n  opt_s: [sgd, adam]\n")
    out = tmp_path / "out"
    assert main(["grid", cfg, "--out", str(out), "--damped"]) == 1
    rows = read_csv(out / "report.csv")
    by_name = {r[0]: r for r in rows[1:]}
    assert by_name["FedAvg"][-1] == "ok"
    assert by_name["FedAdam"][-1] == "diverged:0"
    assert by_name["FedAdam"][3] == "nan"
    assert "diverged" in capsys.readouterr().err


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


def test_check_verb(capsys):
    assert main(["check"]) == 0
    printed = capsys.readouterr().out
    assert "ok   gradients" in printed
    assert "FAIL" not in printed


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
