from __future__ import annotations

from collections import Counter

import pytest

from fedsim import data, orchestrator
from fedsim.client import ClientShard


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

    ``client_seed``: a client's ``spawn_seed(seed, TAG_CLIENT, round, cid)``;
    ``batch_order``: one epoch's shuffle of a shard; ``sample_clients``: one
    round's client sample; ``client_shard``: one ``ClientShard`` built.
    """
    counts: Counter = Counter()
    spawn_seed, seeded_rng = orchestrator.spawn_seed, data.seeded_rng
    sample_clients, post_init = orchestrator.sample_clients, ClientShard.__post_init__

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

    def counting_post_init(shard):
        counts["client_shard"] += 1
        post_init(shard)

    monkeypatch.setattr(orchestrator, "spawn_seed", counting_spawn_seed)
    monkeypatch.setattr(data, "seeded_rng", counting_seeded_rng)
    monkeypatch.setattr(orchestrator, "sample_clients", counting_sample_clients)
    monkeypatch.setattr(ClientShard, "__post_init__", counting_post_init)
    return counts
