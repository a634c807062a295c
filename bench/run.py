"""fedsim benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload desk --seed 0 --seconds 40 --trace 0

A workload is the set of YAML configs in ``bench/workloads/<name>/``,
loaded through ``fedsim.parse_config`` with the config seed replaced by
``--seed``.  One pass runs every config once through the public API with
default flags (``run_experiment`` for a single config, ``run_grid`` for a
config with a ``grid`` section), in this process, one experiment at a
time.  Passes repeat until ``--seconds`` have elapsed (at least three).
The first pass warms up the process (allocator, caches, lazy imports):
it goes through the hash gate but not into the metrics.

Every cell of every pass goes through the hash gate: the SHA-256 of its
``metrics.csv`` (written without timing), ``model_final.bin`` and
``model_best.bin`` plus its ``best_acc`` must equal the stored reference
(default seed) or the cell's first pass (any other seed).  A cell that
raised, did not end with status ``ok`` or failed the gate counts as
failed, and the command then exits 1.

Every timing is in reference seconds: clock time scaled by the host's
speed, measured with a fixed kernel run at round and client
boundaries (see ``speed.py``), so that the host's drift does not read
as a change of the program.  The unscaled times are printed and written as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics computed
from the traced passes' spans (see ``spans.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run results and spans are
written under ``.bench-out/``.  All counters are per process; the
benchmark does no system-wide tracing.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "fedsim" / "__init__.py").is_file():
    sys.exit(f"error: fedsim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from fedsim import cli, orchestrator  # noqa: E402
from fedsim.config import GridSpec, parse_config  # noqa: E402
from fedsim.orchestrator import algorithm_name, load_params  # noqa: E402

import spans  # noqa: E402
from speed import SpeedClock  # noqa: E402

WORKLOADS = HERE / "workloads"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench-out"
DEFAULT_SEED = 0
MIN_PASSES = 3  # the warm-up pass and two measured ones
OUTPUT_FILES = ("metrics.csv", "model_final.bin", "model_best.bin")

# The sweep-csv data file: Gaussian class blobs, one label column last.
CSV_ROWS = 10_000
CSV_FEATURES = 30
CSV_CLASSES = 10
CSV_SPREAD = 2.0

# The speed.py kernel that moves with each workload when the host drifts.
SPEED_KERNEL = {"desk": "interp", "mlp-wide": "vector", "sweep-csv": "interp"}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

if not Path(orchestrator.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported fedsim from {orchestrator.__file__}, not from {SRC}")


def workload_names() -> list[str]:
    return sorted(p.name for p in WORKLOADS.iterdir() if p.is_dir())


def write_csv(path: str | Path, seed: int) -> None:
    """The sweep-csv dataset for ``seed``: balanced classes, rows shuffled."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(CSV_ROWS) % CSV_CLASSES)
    means = rng.normal(size=(CSV_CLASSES, CSV_FEATURES))
    feats = means[labels] + CSV_SPREAD * rng.standard_normal((CSV_ROWS, CSV_FEATURES))
    with open(path, "w") as fh:
        for row, label in zip(feats.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def load_workload(name: str, seed: int, workdir: Path) -> list:
    """The workload's configs with ``seed`` applied; CSV sources are generated."""
    configs = []
    for path in sorted((WORKLOADS / name).glob("*.yaml")):
        cfg = parse_config(path)
        base = cfg.base if isinstance(cfg, GridSpec) else cfg
        if base.data.source == "csv":
            csv_path = workdir / Path(base.data.path).name
            write_csv(csv_path, seed)
            base = replace(base, data=replace(base.data, path=str(csv_path)))
        if isinstance(cfg, GridSpec):
            configs.append(replace(cfg, base=base, seeds=(seed,)))
        else:
            configs.append(replace(base, seed=seed))
    return configs


class Probe:
    """End-to-end boundary data of one pass: set-up intervals, samples and
    the clock reads at every round.

    ``run_class()`` is put in place of ``fedsim.orchestrator.FederatedRun``
    for the whole benchmark, so both ``run_experiment`` and ``run_grid``
    build their runs through it.  It adds two clock reads per cell and
    one per round, gives the speed clock its chance to calibrate at each
    of them and before each client's training, and changes no output.
    """

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.start_pass()

    def start_pass(self) -> None:
        self.setups: list[tuple[float, float]] = []
        self.samples = 0
        self.ticks: list[list[float]] = []

    def run_class(self) -> type:
        probe = self
        clock = self.clock

        class BenchRun(orchestrator.FederatedRun):
            def __init__(self, cfg, threads=1):
                clock.tick()
                start = perf_counter()
                super().__init__(cfg, threads)
                probe.setups.append((start, perf_counter()))
                clock.tick()

            def run(self, out_dir=None, on_round=None, include_timing=True):
                counts = self.partition.counts.tolist()
                epochs = self.cfg.client.local_epochs
                ticks: list[float] = []
                probe.ticks.append(ticks)

                def tick(run, rm):
                    # The gap between consecutive callbacks is one round
                    # plus the previous round's checkpoint flush.
                    ticks.append(perf_counter())
                    clock.tick()
                    probe.samples += epochs * sum(counts[c] for c in rm.selected)
                    if on_round is not None:
                        on_round(run, rm)

                return super().run(out_dir, tick, include_timing)

            def _train_one(self, round_idx, cid):
                # A round of a wide model lasts longer than the host
                # keeps one speed; calibrating within it follows that.
                clock.tick()
                return super()._train_one(round_idx, cid)

        return BenchRun


@dataclass
class Cell:
    """One experiment of one pass and where its outputs went."""

    name: str
    out_dir: Path
    result: orchestrator.ExperimentResult | None = None
    error: str | None = None


def run_pass(configs: list, out: Path) -> list[Cell]:
    cells = []
    for cfg in configs:
        if isinstance(cfg, GridSpec):
            cells += run_grid_cells(cfg, out / "grid")
            continue
        cell = Cell(cfg.algorithm, out / cfg.algorithm)
        try:
            cell.result = orchestrator.run_experiment(
                cfg, out_dir=cell.out_dir, include_timing=False
            )
        except Exception:
            cell.error = traceback.format_exc()
        cells.append(cell)
    return cells


def run_grid_cells(spec: GridSpec, out: Path) -> list[Cell]:
    done: list[Cell] = []

    def progress(gc: cli.GridCell) -> None:
        name = algorithm_name(gc.opt_c, gc.opt_s)
        done.append(Cell(name, out / f"{name}_seed{gc.seed}", gc.result))

    try:
        cli.run_grid(spec, out_dir=out, include_timing=False, progress=progress)
    except Exception:
        error = traceback.format_exc()
        finished = {c.name for c in done}
        for opt_c, opt_s, seed in spec.cells():
            name = algorithm_name(opt_c, opt_s)
            if name not in finished:
                done.append(Cell(name, out / f"{name}_seed{seed}", error=error))
    return done


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_cell(cell: Cell) -> dict:
    """The hash-gate record of a finished cell."""
    digest = {name: sha256(cell.out_dir / name) for name in OUTPUT_FILES}
    digest["best_acc"] = cell.result.best_acc
    return digest


def check_cell(cell: Cell) -> tuple[dict | None, str | None]:
    """(digest, problem): problem is None when the cell finished cleanly.

    Besides hashing, the model files must read back to the run's final
    and best parameters bit for bit.
    """
    if cell.error is not None:
        return None, cell.error
    result = cell.result
    if result.status != "ok":
        return None, f"status {result.status}: {result.error}"
    try:
        digest = digest_cell(cell)
        if not load_params(cell.out_dir / "model_final.bin").same_bits(result.final_state.w):
            return digest, "model_final.bin does not hold the final parameters"
        if not load_params(cell.out_dir / "model_best.bin").same_bits(result.best_params):
            return digest, "model_best.bin does not hold the best parameters"
    except (OSError, ValueError, ArithmeticError) as exc:
        return None, f"unreadable output: {exc}"
    return digest, None


def blas_info() -> dict:
    """Name, version, core and thread count of the BLAS numpy loaded."""
    info: dict = {"name": "unknown", "version": "unknown", "core": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = cfg.get("name", "unknown"), cfg.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if threads is not None and core is not None:
                    threads.restype = ctypes.c_int
                    core.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["core"] = core().decode()
                    return info
    return info


def environment(workload: str, seed: int, trace: bool) -> dict:
    blas = blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "client_threads": 1,
        "loop": "closed: one experiment at a time in one process",
        "counters": "per process; the benchmark does no system-wide tracing",
        "fingerprint": fingerprint(blas),
        "speed_kernel": SPEED_KERNEL[workload],
    }


def fingerprint(blas: dict) -> str:
    """The numeric stack the output bits depend on."""
    return f"numpy {np.__version__}; {blas['name']} {blas['version']} ({blas['core']})"


def load_reference(workload: str, env: dict) -> dict | None:
    """Stored default-seed digests, or None if recorded on another numeric stack."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if ref.get("fingerprint") != env["fingerprint"]:
        print(
            f"# note: reference hashes were recorded with {ref.get('fingerprint')!r}, "
            f"this is {env['fingerprint']!r}; checking repeat consistency only"
        )
        return None
    return ref["workloads"].get(workload, {})


def write_reference(workload: str, env: dict, digests: dict) -> None:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    if ref.get("fingerprint") not in (None, env["fingerprint"]):
        ref["workloads"] = {}
    ref["fingerprint"] = env["fingerprint"]
    ref["workloads"][workload] = digests
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


@dataclass
class Pass:
    """One pass: its clock reads, and the times they give in reference
    seconds once ``scale`` has been called."""

    traced: bool
    warmup: bool
    start: float
    end: float
    setups: list[tuple[float, float]]
    ticks: list[list[float]]
    samples: int
    layers: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    setup_s: float = 0.0
    round_gaps_ms: list[float] = field(default_factory=list)

    @property
    def raw_wall_s(self) -> float:
        return self.end - self.start

    def scale(self, clock: SpeedClock) -> None:
        self.wall_s = clock.ref_seconds(self.start, self.end)
        self.setup_s = sum(clock.ref_seconds(a, b) for a, b in self.setups)
        self.round_gaps_ms = [
            1000.0 * g for ticks in self.ticks for g in np.diff(clock.reference(ticks)).tolist()
        ]

    def summary(self) -> dict:
        return {
            "traced": self.traced,
            "warmup": self.warmup,
            "raw_wall_s": self.raw_wall_s,
            "raw_setup_s": sum(b - a for a, b in self.setups),
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "samples": self.samples,
            "rounds": len(self.round_gaps_ms),
            "layers": self.layers,
        }


@dataclass
class Gate:
    """Hash-gate state across the passes of one benchmark run."""

    reference: dict | None
    first: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, index: int, cells: list[Cell]) -> None:
        for cell in cells:
            self.attempted += 1
            digest, problem = check_cell(cell)
            if problem is None:
                self.first.setdefault(cell.name, digest)
                if self.reference is None:
                    want, source = self.first[cell.name], "the cell's first pass"
                else:
                    want, source = self.reference.get(cell.name), "the stored reference"
                if want is None:
                    problem = "no stored reference for this cell"
                elif digest != want:
                    problem = f"outputs differ from {source}: {digest} != {want}"
            if problem is not None:
                self.failures.append({"pass": index, "cell": cell.name, "problem": problem})


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict | None) -> tuple:
    """Run passes for ``seconds``; returns (passes, gate, tracer, clock)."""
    clock = SpeedClock(SPEED_KERNEL[workload])
    probe = Probe(clock)
    run_class = probe.run_class()
    tracer = spans.Tracer() if trace else None
    gate = Gate(reference)
    passes: list[Pass] = []
    original = orchestrator.FederatedRun
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        configs = load_workload(workload, seed, workdir)
        orchestrator.FederatedRun = run_class
        try:
            start = perf_counter()
            # Start another pass while it is expected to end nearer the
            # deadline than stopping now would.
            while (
                len(passes) < MIN_PASSES
                or perf_counter() - start + passes[-1].raw_wall_s / 2 < seconds
            ):
                index = len(passes)
                traced = trace and index % 2 == 1
                out = workdir / f"pass{index}"
                probe.start_pass()
                if traced:
                    first_span = len(tracer.spans)
                    tracer.take_counters()
                with tracer.installed(run_class, clock) if traced else nullcontext():
                    clock.calibrate()
                    t0 = perf_counter()
                    cells = run_pass(configs, out)
                    t1 = perf_counter()
                    clock.calibrate()
                record = Pass(traced, index == 0, t0, t1, probe.setups, probe.ticks, probe.samples)
                if traced:
                    record.layers = spans.layer_metrics(
                        tracer.spans[first_span:], tracer.take_counters()
                    )
                passes.append(record)
                gate.check(index, cells)
                shutil.rmtree(out, ignore_errors=True)
        finally:
            orchestrator.FederatedRun = original
    for record in passes:
        record.scale(clock)
    return passes, gate, tracer, clock


def quartiles(values: list[float]) -> tuple[float, float]:
    """(first, third) quartile; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measured(passes: list[Pass]) -> list[Pass]:
    """The untraced passes after the warm-up."""
    return [p for p in passes if not p.traced and not p.warmup]


def end_to_end(passes: list[Pass]) -> dict:
    """End-to-end metrics over the measured passes: medians across passes,
    round percentiles over the round gaps of all of them."""
    plain = measured(passes)
    gaps = [g for p in plain for g in p.round_gaps_ms]
    values = {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "setup_s": statistics.median(p.setup_s for p in plain),
        "train_samples_per_s": statistics.median(
            p.samples / (p.wall_s - p.setup_s) for p in plain
        ),
        "round_ms_p50": statistics.median(gaps),
        "round_ms_p90": statistics.quantiles(gaps, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values["raw_wall_s"] = statistics.median(p.raw_wall_s for p in plain)
    values["round_count"] = len(gaps)
    values["round_tail"] = sum(g > values["round_ms_p90"] for g in gaps)
    return values


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = measured(passes)
    names = traced[0].layers.keys()
    values = {name: statistics.median(p.layers[name] for p in traced) for name in names}
    traced_wall = statistics.median(p.wall_s for p in traced)
    values["trace.overhead_frac"] = traced_wall / statistics.median(p.wall_s for p in plain) - 1.0
    return values


def report_end_to_end(values: dict, passes: list[Pass]) -> None:
    for name, unit in E2E_UNITS.items():
        print(f"{name:<22} {values[name]:.6g} {unit}")
    walls = [p.wall_s for p in measured(passes)]
    q1, q3 = quartiles(walls)
    print(f"# {len(walls)} measured passes after one warm-up, wall_s quartiles {q1:.6g}..{q3:.6g}")
    print(f"# times in reference seconds; median unscaled wall_s {values['raw_wall_s']:.6g} s")
    print(f"# {values['round_count']} round gaps, {values['round_tail']} beyond p90")


def report_layers(values: dict, passes: list[Pass]) -> None:
    # Spans are unscaled clock time, so shares are of the unscaled pass.
    traced_wall = statistics.median(p.raw_wall_s for p in passes if p.traced)
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        share = f"  ({values[name] / traced_wall:.1%} of traced pass)" if unit == "s" else ""
        print(f"{name:<30} {values[name]:.6g} {unit}{share}")
    for name, unit in spans.DERIVED_UNITS.items():
        print(f"{name:<30} {values[name]:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's digests as the default-seed reference",
    )
    parser.add_argument(
        "--write-csv", metavar="PATH", help="write the sweep-csv data for --seed and exit"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.write_csv:
        write_csv(args.write_csv, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--write-reference needs the default seed {DEFAULT_SEED}")

    trace = bool(args.trace)
    env = environment(args.workload, args.seed, trace)
    print("# env " + json.dumps(env, sort_keys=True))
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = load_reference(args.workload, env)
    passes, gate, tracer, clock = measure(args.workload, args.seed, args.seconds, trace, reference)
    env["host_speed"] = clock.host_speed()
    print(f"# host speed {env['host_speed']:.4g} (median kernel time over reference, "
          f"{len(clock.starts)} kernel runs)")

    values = end_to_end(passes)
    report_end_to_end(values, passes)
    if trace:
        layers = per_layer(passes)
        report_layers(layers, passes)
        units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
        units.update(spans.DERIVED_UNITS)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    failed = len(gate.failures)
    error_rate = failed / gate.attempted
    print(f"error_rate             {error_rate:.6g} ({failed} of {gate.attempted} cells failed)")
    for failure in gate.failures:
        print(f"FAILED pass {failure['pass']} cell {failure['cell']}: {failure['problem']}")

    if args.write_reference and not gate.failures:
        write_reference(args.workload, env, gate.first)
        print(f"# wrote reference digests for {args.workload} to {REFERENCE}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "env": env,
        "passes": [p.summary() for p in passes],
        "end_to_end": values,
        "cells": gate.first,
        "failures": gate.failures,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv.gz")

    print(
        json.dumps(
            {
                "correct": not gate.failures,
                "attempted": gate.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
