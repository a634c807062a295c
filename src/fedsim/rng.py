"""Derivation of independent, reproducible random streams.

Every source of randomness in the simulator is keyed by a tuple of
non-negative integers (base seed plus purpose/round/client tags) fed
through ``numpy.random.SeedSequence``.  Distinct key tuples yield
well-separated streams, and the same tuple always yields the same
stream regardless of call order, thread count, or platform.
"""
from __future__ import annotations

import numpy as np


def _entropy(keys: tuple) -> np.ndarray:
    """The key tuple as the uint32 words ``SeedSequence`` makes of a list
    of ints: each key's little-endian 32-bit words (one word for 0), key
    after key.  Passing the words directly skips numpy's conversion and
    gives the same streams."""
    if not keys:
        raise ValueError("at least one seed key is required")
    words = []
    for k in keys:
        ik = int(k)
        if ik != k or ik < 0:
            raise ValueError(f"seed keys must be non-negative integers, got {k!r}")
        words.append(ik & 0xFFFFFFFF)
        ik >>= 32
        while ik:
            words.append(ik & 0xFFFFFFFF)
            ik >>= 32
    return np.array(words, dtype=np.uint32)


def seeded_rng(*keys: int) -> np.random.Generator:
    """Return a Generator determined purely by the integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(keys)))


def spawn_seed(*keys: int) -> int:
    """Collapse a key tuple into a single derived seed (uint64 range)."""
    state = np.random.SeedSequence(_entropy(keys)).generate_state(1, np.uint64)
    return int(state[0])
