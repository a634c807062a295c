"""In-memory span recorder for the traced benchmark run.

The traced run wraps fedsim's public functions at the module attribute
where each caller looks them up (``fedsim.orchestrator.local_train``,
``fedsim.client.loss_and_grad``, ``fedsim.cli.run_experiment``, ...) and
the ``ParamVector.__init__`` / ``Batch.__post_init__`` construction
hooks, so nothing under ``src/`` changes.  Every wrapped call becomes a
span ``(span_id, parent_id, run_id, name, start, end)``; spans of one
experiment share a run id (0 outside any experiment).  Spans stay in
memory until the benchmark ends, and the per-layer metrics are computed
from them: a span's self time is its duration minus that of its direct
children (calls are serial, so children never overlap).

Counters that the spans cannot give (steps, bytes, flops) are taken at
the same boundaries from the wrapped call's arguments and result.
"""
from __future__ import annotations

import gzip
import itertools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from fedsim import cli, client, model, orchestrator, params

# metric name -> (unit, kind, span or counter name).  kind is "incl"
# (summed span duration), "self" (summed self time), "calls" (span
# count) or "counter".
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "client.local_train_s": ("s", "incl", "client.local_train"),
    "client.local_train_calls": ("count", "calls", "client.local_train"),
    "client.steps": ("count", "counter", "client.steps"),
    "client.control_variate_s": ("s", "incl", "client.control_variate"),
    "client.self_s": ("s", "self", "client.local_train"),
    "params.vector_constructions": ("count", "calls", "params.vector"),
    "params.vector_s": ("s", "incl", "params.vector"),
    "params.vector_bytes_copied": ("bytes", "counter", "params.vector_bytes"),
    "model.batch_constructions": ("count", "calls", "model.batch"),
    "model.loss_and_grad_s": ("s", "incl", "model.loss_and_grad"),
    "model.loss_and_grad_calls": ("count", "calls", "model.loss_and_grad"),
    "model.grad_flops": ("flop", "counter", "model.grad_flops"),
    "model.evaluate_s": ("s", "incl", "model.evaluate"),
    "model.evaluate_calls": ("count", "calls", "model.evaluate"),
    "rng.spawn_seed_calls": ("count", "calls", "rng.spawn_seed"),
    "rng.spawn_seed_s": ("s", "incl", "rng.spawn_seed"),
    "orchestrator.sample_clients_s": ("s", "incl", "orchestrator.sample_clients"),
    "orchestrator.round_self_s": ("s", "self", "orchestrator.round"),
    "data.epoch_batches_s": ("s", "incl", "data.epoch_batches"),
    "data.epoch_batches_calls": ("count", "calls", "data.epoch_batches"),
    "data.build_s": ("s", "incl", "data.build"),
    "data.split_s": ("s", "incl", "data.split"),
    "data.partition_s": ("s", "incl", "data.partition"),
    "server.aggregate_s": ("s", "incl", "server.aggregate"),
    "server.aggregate_control_s": ("s", "incl", "server.aggregate_control"),
    "server.step_s": ("s", "incl", "server.step"),
    "server.payload_bytes": ("bytes", "counter", "server.payload_bytes"),
    "io.metrics_csv_s": ("s", "incl", "io.metrics_csv"),
    "io.metrics_csv_calls": ("count", "calls", "io.metrics_csv"),
    "io.metrics_csv_bytes": ("bytes", "counter", "io.metrics_csv_bytes"),
    "io.save_params_s": ("s", "incl", "io.save_params"),
    "io.save_params_bytes": ("bytes", "counter", "io.save_params_bytes"),
    "grid.cells": ("count", "calls", "grid.cell"),
    "grid.report_s": ("s", "incl", "grid.report"),
}
# Computed from other metrics rather than read off one span.
DERIVED_UNITS = {"model.grad_gflops_per_s": "GFLOP/s", "trace.overhead_frac": "fraction"}


def grad_flops(spec: model.ModelSpec, n: int) -> int:
    """Matmul flops of one loss_and_grad call on n samples.

    Every layer does a forward and a weight-gradient matmul; every layer
    but the first also back-propagates to its input.  Elementwise work
    is not counted.
    """
    return sum(
        2 * n * fan_in * fan_out * (2 if i == 0 else 3)
        for i, (fan_in, fan_out) in enumerate(spec.layer_shapes)
    )


def _count_steps(counters, args, result) -> None:
    counters["client.steps"] += result[0].step_count


def _count_flops(counters, args, result) -> None:
    spec, _, batch = args
    counters["model.grad_flops"] += grad_flops(spec, len(batch))


def _count_vector_bytes(counters, args, result) -> None:
    counters["params.vector_bytes"] += 8 * len(args[0])


def _count_csv_bytes(counters, args, result) -> None:
    counters["io.metrics_csv_bytes"] += os.path.getsize(args[0])


def _count_params_bytes(counters, args, result) -> None:
    path = str(args[0])
    counters["io.save_params_bytes"] += os.path.getsize(path)
    sidecar = path + ".meta.txt"
    if os.path.exists(sidecar):
        counters["io.save_params_bytes"] += os.path.getsize(sidecar)


def _count_payload(counters, args, result) -> None:
    counters["server.payload_bytes"] += result.payload_bytes


# (owner, attribute, span name, counter, starts a new run id)
_PATCHES = (
    (cli, "run_experiment", "grid.cell", None, True),
    (cli, "emit_report", "grid.report", None, False),
    (cli, "emit_per_seed_report", "grid.report", None, False),
    (cli, "save_config", "grid.report", None, False),
    (orchestrator, "run_experiment", "orchestrator.experiment", None, True),
    (orchestrator, "build_dataset", "data.build", None, False),
    (orchestrator, "split_train_test", "data.split", None, False),
    (orchestrator, "dirichlet_partition", "data.partition", None, False),
    (orchestrator, "init_params", "model.init_params", None, False),
    (orchestrator, "spawn_seed", "rng.spawn_seed", None, False),
    (orchestrator, "sample_clients", "orchestrator.sample_clients", None, False),
    (orchestrator, "local_train", "client.local_train", _count_steps, False),
    (orchestrator, "aggregate", "server.aggregate", None, False),
    (orchestrator, "aggregate_control", "server.aggregate_control", None, False),
    (orchestrator, "server_step", "server.step", None, False),
    (orchestrator, "evaluate", "model.evaluate", None, False),
    (orchestrator, "write_metrics_csv", "io.metrics_csv", _count_csv_bytes, False),
    (orchestrator, "save_params", "io.save_params", _count_params_bytes, False),
    (client, "epoch_batches", "data.epoch_batches", None, False),
    (client, "loss_and_grad", "model.loss_and_grad", _count_flops, False),
    (client, "update_control_variate", "client.control_variate", None, False),
    (params.ParamVector, "__init__", "params.vector", _count_vector_bytes, False),
    (model.Batch, "__post_init__", "model.batch", None, False),
)


class Tracer:
    """Collects spans and boundary counters for the whole process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.origin = perf_counter()
        self._stack = [0]
        self._span_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        self._run_id = 0

    def wrap(self, name, fn, count=None, new_run=False):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, span_ids, counters = self.spans, self._stack, self._span_ids, self.counters

        def traced(*args, **kwargs):
            sid = next(span_ids)
            parent = stack[-1]
            outer_run = self._run_id
            if new_run:
                self._run_id = next(self._run_ids)
            run_id = self._run_id
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._run_id = outer_run
                spans.append((sid, parent, run_id, name, start, end))
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, run_class, speed_clock):
        """Wrap every traced boundary for the duration of the block.

        ``run_class`` is the FederatedRun subclass the benchmark has put
        in place of ``fedsim.orchestrator.FederatedRun``; its set-up and
        round methods become spans too.  So do the runs of the speed
        clock's kernel, which then count as no layer's self time.
        """
        patches = _PATCHES + (
            (run_class, "__init__", "orchestrator.setup", None, False),
            (run_class, "run_round", "orchestrator.round", _count_payload, False),
            (speed_clock, "calibrate", "bench.speed_kernel", None, False),
        )
        saved = []
        try:
            for owner, attr, name, count, new_run in patches:
                # A class may inherit the method; restoring then deletes
                # the override instead of pinning the inherited one.
                own = vars(owner).get(attr)
                saved.append((owner, attr, own))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count, new_run))
            yield
        finally:
            for owner, attr, own in reversed(saved):
                if own is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def take_counters(self) -> dict[str, float]:
        """Counters since the last call, then reset them."""
        out = dict(self.counters)
        self.counters.clear()
        return out

    def write(self, path) -> None:
        """Dump every span as gzipped CSV, times in seconds from the tracer start."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span_id,parent_id,run_id,name,start_s,end_s\n")
            origin = self.origin
            for sid, parent, run_id, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{run_id},{name},{start - origin!r},{end - origin!r}\n")


def layer_totals(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: inclusive time, self time and call count."""
    child_time: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        child_time[parent] += end - start
    incl: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for sid, _, _, name, start, end in spans:
        incl[name] += end - start
        self_time[name] += end - start - child_time[sid]
        calls[name] += 1
    return incl, self_time, calls


def layer_metrics(spans, counters: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value plus grad_gflops_per_s for one traced pass."""
    incl, self_time, calls = layer_totals(spans)
    source = {"incl": incl, "self": self_time, "calls": calls, "counter": counters}
    out = {
        metric: float(source[kind].get(key, 0))
        for metric, (_, kind, key) in LAYER_METRICS.items()
    }
    seconds = out["model.loss_and_grad_s"]
    out["model.grad_gflops_per_s"] = out["model.grad_flops"] / seconds / 1e9 if seconds else 0.0
    return out
