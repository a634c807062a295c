from __future__ import annotations

from collections import Counter

import pytest

from fedsim import data, orchestrator


@pytest.fixture
def builds(monkeypatch) -> list[int]:
    """The seeds ``prepare_data`` builds a dataset for, in call order."""
    seeds: list[int] = []
    build = orchestrator.build_dataset

    def counting(data_cfg, seed):
        seeds.append(seed)
        return build(data_cfg, seed)

    monkeypatch.setattr(orchestrator, "build_dataset", counting)
    return seeds


@pytest.fixture
def derivations(monkeypatch) -> Counter:
    """How often the derivations that runs can share are computed.

    ``schedule``: one run's random schedule (``orchestrator.Schedule``);
    ``reseed``: one draw from a schedule's reused generator, a round's
    client sample or one epoch's batch order; ``client_shard``: one
    client's shard cut from the training split (``orchestrator.subset``).
    The reference derivations a run no longer makes are counted too, so
    that a run that falls back on one shows: ``client_seed``, a client's
    ``spawn_seed(seed, TAG_CLIENT, round, cid)``; ``batch_order``, one
    epoch's shuffle of a shard through ``seeded_rng``; ``sample_clients``,
    one round's client sample.
    """
    counts: Counter = Counter()
    spawn_seed, seeded_rng = orchestrator.spawn_seed, data.seeded_rng
    sample_clients, subset = orchestrator.sample_clients, orchestrator.subset
    schedule, reseed = orchestrator.Schedule, orchestrator.reseed

    def counting_spawn_seed(*keys):
        if keys[1:2] == (orchestrator.TAG_CLIENT,):
            counts["client_seed"] += 1
        return spawn_seed(*keys)

    def counting_seeded_rng(*keys):
        if keys[1:2] == (data.TAG_BATCH,):
            counts["batch_order"] += 1
        return seeded_rng(*keys)

    def counting_sample_clients(*args):
        counts["sample_clients"] += 1
        return sample_clients(*args)

    def counting_subset(ds, indices):
        counts["client_shard"] += 1
        return subset(ds, indices)

    def counting_schedule(*args, **kwargs):
        counts["schedule"] += 1
        return schedule(*args, **kwargs)

    def counting_reseed(gen, words):
        counts["reseed"] += 1
        return reseed(gen, words)

    monkeypatch.setattr(orchestrator, "spawn_seed", counting_spawn_seed)
    monkeypatch.setattr(data, "seeded_rng", counting_seeded_rng)
    monkeypatch.setattr(orchestrator, "sample_clients", counting_sample_clients)
    monkeypatch.setattr(orchestrator, "subset", counting_subset)
    monkeypatch.setattr(orchestrator, "Schedule", counting_schedule)
    monkeypatch.setattr(orchestrator, "reseed", counting_reseed)
    return counts
