"""The paper's mechanism as a checked property: where each client
mechanism's run comes to rest.

With full participation, full-batch local gradient steps and a server
that applies the averaged delta at rate 1, SCAFFOLD's fixed point is the
optimum of the global objective F = sum_i n_i/N f_i + wd/2 ||w||^2
(Karimireddy et al., arXiv:1910.06378).  FedAvg's and FedProx's are not
once clients take more than one local step on non-IID shards (Pathak and
Wainwright, arXiv:2005.05238; Charles and Konecny, arXiv:2003.10422).
FedNova equals FedAvg here, because every client takes the same number
of steps.  With one local step, all four are gradient descent on F.

The bounds below leave wide margins around values measured on this
configuration; no bits are pinned.  Measured ||grad F(w_T)|| at T = 300:
1 epoch, all four under both control options: 0.0175869654;
5 epochs: sgd and nova 0.1277, prox 0.1282, scaf 0.00231 (I and II).
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from fedsim import ClientConfig, DataConfig, ExperimentConfig, FederatedRun, ServerConfig, loss_and_grad

ROUNDS = 300


def global_grad_norm(opt_c: str, local_epochs: int, control_option: str = "I") -> float:
    """||grad F|| at the end of a full-participation, full-batch run."""
    client = ClientConfig(
        opt_c=opt_c,
        local_epochs=local_epochs,
        batch_size=1_000_000,  # larger than every shard: one step per epoch
        lr=0.1,
        momentum=0.0,
        weight_decay=0.01,
        prox_mu=0.1,
        control_option=control_option,
    )
    cfg = ExperimentConfig(
        client=client,
        server=ServerConfig(opt_s="sgd", server_lr=1.0),
        data=DataConfig(num_classes=5, dim=10, samples_per_class=50, alpha=0.1),
        num_clients=10,
        sample_ratio=1.0,
        rounds=ROUNDS,
        eval_every=ROUNDS,
        seed=0,
    )
    run = FederatedRun(cfg)
    result = run.run()
    assert result.status == "ok"
    w = result.final_state.w
    total = sum(len(shard) for shard in run.shards)
    grad = client.weight_decay * w.values
    for shard in run.shards:
        grad = grad + len(shard) / total * loss_and_grad(run.spec, w, shard)[1].values
    return float(np.linalg.norm(grad))


MECHANISMS = [("sgd", "I"), ("prox", "I"), ("nova", "I"), ("scaf", "I"), ("scaf", "II")]


def test_scaffold_alone_removes_the_drift_of_several_local_steps():
    t0 = time.perf_counter()
    norms = {m: global_grad_norm(m[0], 5, m[1]) for m in MECHANISMS}
    for option in ("I", "II"):
        scaf = norms[("scaf", option)]
        for opt_c in ("sgd", "prox", "nova"):
            drifted = norms[(opt_c, "I")]
            assert scaf * 10 <= drifted, f"scaf ({option}) {scaf:.3g} not 10x below {opt_c} {drifted:.3g}"
    # The drifted mechanisms stall near 0.128, SCAFFOLD keeps going.
    assert all(norms[(opt_c, "I")] > 0.05 for opt_c in ("sgd", "prox", "nova"))
    assert norms[("scaf", "I")] < 0.01 and norms[("scaf", "II")] < 0.01
    assert time.perf_counter() - t0 < 5.0


def test_with_one_local_step_every_mechanism_is_gradient_descent_on_f():
    t0 = time.perf_counter()
    norms = [global_grad_norm(opt_c, 1, option) for opt_c, option in MECHANISMS]
    assert 0.0 < norms[0] < 0.05
    assert norms == pytest.approx([norms[0]] * len(norms), rel=1e-6)
    assert time.perf_counter() - t0 < 5.0
