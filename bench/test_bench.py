"""Self-test of the benchmark on tiny versions of its workloads.

    python3 -m pytest bench/test_bench.py -q

Checks that every workload prints every metric ``BENCHMARK.json`` names,
with its unit, in both modes; that a perturbed output file fails the
hash gate; that the speed clock scales time by the kernel runs around
it; and that the benchmark refuses to run without the sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import speed  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NON_DEFAULT_SEED = run.DEFAULT_SEED + 1


def shrink(cfg):
    """A few-second version of a workload config with the same layers."""
    if isinstance(cfg, run.GridSpec):
        return replace(cfg, base=shrink(cfg.base))
    data = cfg.data
    if data.source == "synthetic":
        data = replace(data, samples_per_class=12)
    model = replace(cfg.model, hidden_dim=8) if cfg.model.kind == "mlp1" else cfg.model
    return replace(cfg, num_clients=6, rounds=4, eval_every=2, data=data, model=model)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    load = run.load_workload
    monkeypatch.setattr(run, "load_workload", lambda *args: [shrink(c) for c in load(*args)])
    monkeypatch.setattr(run, "CSV_ROWS", 200)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def bench(capsys, workload: str, trace: int) -> tuple[int, str, dict]:
    argv = ["--workload", workload, "--seed", str(NON_DEFAULT_SEED), "--seconds", "0"]
    code = run.main(argv + ["--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_named_metric_is_printed(tiny, capsys, workload, trace):
    code, _, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float) and math.isfinite(printed["value"])


def test_perturbed_output_drives_error_rate_up(tiny, capsys, monkeypatch):
    digest = run.digest_cell

    def perturbed(cell):
        if cell.out_dir.parent.name == "pass1":
            path = cell.out_dir / "model_final.bin"
            raw = bytearray(path.read_bytes())
            raw[8] ^= 1  # lowest mantissa byte of the first parameter
            path.write_bytes(bytes(raw))
        return digest(cell)

    monkeypatch.setattr(run, "digest_cell", perturbed)
    code, out, result = bench(capsys, "desk", 0)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    error_rate = float(out.split("error_rate", 1)[1].split()[0])
    assert error_rate == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
    assert error_rate > 0


def test_speed_clock_scales_by_local_kernel_time():
    clock = speed.SpeedClock("interp")
    # Kernel runs of 1 ms each second for 10 s, then of 2 ms: the host
    # has become twice as slow, and each second holds half the work.
    for i in range(20):
        clock.starts.append(float(i))
        clock.ends.append(i + (0.001 if i < 10 else 0.002))
    per_ms = clock.ref_s / 0.001
    assert clock.ref_seconds(2.001, 3.0) == pytest.approx(0.999 * per_ms)
    assert clock.ref_seconds(15.002, 16.0) == pytest.approx(0.998 * per_ms / 2)
    # Kernel time inside an interval counts as zero.
    assert clock.ref_seconds(2.0005, 4.0) == pytest.approx(
        clock.ref_seconds(2.001, 3.0) + clock.ref_seconds(3.001, 4.0)
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
