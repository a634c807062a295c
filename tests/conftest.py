from __future__ import annotations

import pytest

from fedsim import orchestrator


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
