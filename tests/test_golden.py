"""Golden bits: the output bytes of a corpus of tiny runs, pinned.

Every other test compares one path with another (stacked rows with each
row alone, a rerun, cohorts of one); a change that moves every path
alike passes them all.  This test pins the SHA-256 of each corpus run's
``metrics.csv`` (written without timing), ``model_final.bin`` and
``model_best.bin``.  The corpus covers what the benchmark's cells do
not: the 4x4 grid, two local epochs with partial batches, control
option II, tanh and relu MLPs, cohorts of 2-3 clients of a wide model,
a CSV source, a run that diverges, one whose initial model does, and
the two reports of a sweep whose cells diverge between its checkpoints.

The bits hold for one numeric environment, so the pins are keyed by
``fedsim.numerics.fingerprint()``; on another environment the test
skips.  Rewrite the pins for this environment, only when a change of
the bits is intended, with

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedsim import orchestrator
from fedsim.cli import run_grid
from fedsim.client import ClientConfig, cohort_size
from fedsim.config import GridSpec
from fedsim.numerics import fingerprint
from fedsim.orchestrator import DataConfig, ExperimentConfig, ModelConfig, run_experiment

PINS = Path(__file__).with_name("golden_bits.json")
FILES = ("metrics.csv", "model_final.bin", "model_best.bin")

BASE = ExperimentConfig(
    client=ClientConfig(batch_size=5, lr=0.05, weight_decay=0.05),
    data=DataConfig(num_classes=3, dim=5, samples_per_class=30, spread=1.0),
    num_clients=8,
    sample_ratio=0.5,
    rounds=4,
    eval_every=2,
    seed=3,
)
#: An MLP of 9,903 parameters: cohorts of 3 clients, so a round of 5
#: trains as cohorts of 3 and 2.
WIDE = ModelConfig(kind="mlp1", hidden_dim=1100, activation="relu")
#: Two seeds, two checkpoints, and a server step so large that every
#: cell with an sgd server overflows at round 3, between the checkpoints;
#: the adam cells survive.
REPORT_GRID = GridSpec(
    replace(BASE, server=replace(BASE.server, server_lr=1e120)),
    opt_c=("sgd", "nova"),
    opt_s=("sgd", "adam"),
    seeds=(3, 4),
    checkpoints=(2, 4),
)
REPORTS = ("report.csv", "report_per_seed.csv")


def _run(client=None, server=None, **fields) -> ExperimentConfig:
    return replace(
        BASE,
        client=replace(BASE.client, **(client or {})),
        server=replace(BASE.server, **(server or {})),
        **fields,
    )


def corpus(work: Path) -> dict[str, ExperimentConfig]:
    """The single runs of the corpus, by name, reading the CSVs that
    ``write_csvs(work)`` writes; the grids come on top."""
    return {
        "epochs2": _run({"opt_c": "scaf", "local_epochs": 2}, {"opt_s": "adam"}),
        "option2": _run({"opt_c": "scaf", "control_option": "II"}, {"opt_s": "yogi"}),
        "mlp-tanh": _run(
            {"opt_c": "prox", "local_epochs": 2},
            model=ModelConfig(kind="mlp1", hidden_dim=16, activation="tanh"),
        ),
        "mlp-relu": _run(
            {"opt_c": "nova"}, {"opt_s": "adagrad"},
            model=ModelConfig(kind="mlp1", hidden_dim=16, activation="relu"),
        ),
        "cohorts": _run(
            {"opt_c": "scaf", "local_epochs": 2}, {"opt_s": "adam"},
            model=WIDE, num_clients=10,
        ),
        "csv": _run(
            {"opt_c": "prox"}, {"opt_s": "yogi"}, data=DataConfig(source="csv", path=str(work / "data.csv"))
        ),
        "diverged": _run({"lr": 1e300}),
        "diverged-at-0": _run(data=DataConfig(source="csv", path=str(work / "huge.csv"))),
    }


def write_csvs(work: Path) -> None:
    """``data.csv``: 60 rows of 4 features and a label in 0..2, the same
    bytes for one fingerprint (``np.sin`` may round differently under
    another).  ``huge.csv``: 30 rows whose features are +-1.7e308, so the
    initial model's test loss overflows."""
    rows = np.arange(60 * 4, dtype=np.float64).reshape(60, 4)
    feats = np.sin(rows * 0.7) + (np.arange(60) % 3)[:, None]
    with open(work / "data.csv", "w") as fh:
        for x, label in zip(feats, np.arange(60) % 3):
            fh.write(",".join(repr(float(v)) for v in x) + f",{label}\n")
    with open(work / "huge.csv", "w") as fh:
        for i in range(30):
            fh.write(f"{(-1) ** i * 1.7e308!r},{(-1) ** (i // 2) * 1.7e308!r},{i % 3}\n")


def corpus_hashes(work: Path) -> dict[str, str]:
    """SHA-256 of every output file of the corpus, run under ``work``."""
    write_csvs(work)
    out: dict[str, Path] = {}
    grid = run_grid(GridSpec(BASE), out_dir=work / "grid", include_timing=False)
    for cell in grid.cells:
        cell_dir = work / "grid" / f"{cell.result.algorithm}_seed{cell.seed}"
        out.update({f"grid/{cell.result.algorithm}/{file}": cell_dir / file for file in FILES})
    for name, cfg in corpus(work).items():
        run_experiment(cfg, out_dir=work / name, include_timing=False)
        out.update({f"{name}/{file}": work / name / file for file in FILES})
    run_grid(REPORT_GRID, out_dir=work / "report", include_timing=False)
    out.update({f"report/{file}": work / "report" / file for file in REPORTS})
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in out.items()}


def _pins() -> dict[str, str]:
    pins = json.loads(PINS.read_text())
    here = fingerprint()
    if here not in pins:
        pytest.skip(f"no pins for this environment: {here!r}; pinned: {sorted(pins)}")
    return pins[here]


def _mismatches(work: Path, pins: dict[str, str]) -> list[str]:
    got = corpus_hashes(work)
    assert sorted(got) == sorted(pins), "the corpus and its pins name different files"
    return [key for key in pins if got[key] != pins[key]]


def test_the_corpus_covers_what_it_claims(tmp_path):
    wide = corpus(tmp_path)["cohorts"]
    spec = wide.model.spec(BASE.data.dim, BASE.data.num_classes)
    assert cohort_size(spec.param_count) == 3
    assert orchestrator.sample_size(wide.num_clients, wide.sample_ratio) == 5
    assert len(GridSpec(BASE).cells()) == 16


def test_the_corpus_keeps_controls_in_both_forms(tmp_path):
    """Its scaf runs keep some control variates as first-layer factors
    and some dense, so the pins hold the bits of both."""
    factored = set()
    for cfg in corpus(tmp_path).values():
        if cfg.opt_c == "scaf":
            run = orchestrator.FederatedRun(cfg)
            run.run()
            factored |= {control.factor is not None for control in run.controls.values()}
    assert factored == {True, False}


def test_outputs_hold_the_pinned_bits(tmp_path):
    pins = _pins()
    assert _mismatches(tmp_path, pins) == []
    metrics = (tmp_path / "diverged" / "metrics.csv").read_text()
    assert metrics.splitlines()[-1].endswith("diverged")
    at_0 = (tmp_path / "diverged-at-0" / "metrics.csv").read_text().splitlines()
    assert len(at_0) == 2 and at_0[1].startswith("0,") and at_0[1].endswith(",diverged")
    with open(tmp_path / "report" / "report.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    fedavg = dict(zip(header, rows[0]))
    assert fedavg["algorithm_name"] == "FedAvg" and fedavg["status"] == "diverged:3,4"
    assert fedavg["best_acc_round_2"] != "nan" and fedavg["best_acc_round_4"] == "nan"


def test_a_one_ulp_change_to_weight_decay_moves_the_pins(tmp_path, monkeypatch):
    """The corpus sees a change of one operation by one ulp."""
    pins = _pins()
    train_cohort = orchestrator.train_cohort

    def nudged(spec, global_w, shards, cfg, *args, **kwargs):
        cfg = replace(cfg, weight_decay=float(np.nextafter(cfg.weight_decay, 1.0)))
        return train_cohort(spec, global_w, shards, cfg, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "train_cohort", nudged)
    moved = _mismatches(tmp_path, pins)
    assert "cohorts/model_final.bin" in moved and "grid/Scaffold/model_final.bin" in moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write  (rewrites the pins for this environment)")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        pins[fingerprint()] = corpus_hashes(Path(tmp))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins[fingerprint()])} pins for {fingerprint()!r} to {PINS}")
