from __future__ import annotations

import numpy as np
import pytest

from fedsim.rng import _entropy, seeded_rng, spawn_seed

#: Keys at the 32- and 64-bit word boundaries.
EDGE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1)


def _key_tuples():
    """Each edge key alone, then tuples of 1-5 random 64-bit keys with
    edge keys mixed in."""
    rng = np.random.default_rng(20261018)
    for key in EDGE_KEYS:
        yield (key,)
    for length in range(1, 6):
        for _ in range(400):
            picks = rng.integers(0, 2**64, size=length, dtype=np.uint64).tolist()
            for slot in np.flatnonzero(rng.random(length) < 0.3):
                picks[slot] = EDGE_KEYS[rng.integers(len(EDGE_KEYS))]
            yield tuple(picks)


def test_entropy_words_match_seed_sequence_of_the_key_list():
    for keys in _key_tuples():
        reference = np.random.SeedSequence(list(keys))
        assert np.array_equal(np.random.SeedSequence(_entropy(keys)).pool, reference.pool), keys
        assert spawn_seed(*keys) == int(reference.generate_state(1, np.uint64)[0]), keys
    keys = (0, 4, 2**32, 2**64 - 1)
    expected = np.random.default_rng(np.random.SeedSequence(list(keys))).permutation(80)
    assert np.array_equal(seeded_rng(*keys).permutation(80), expected)


@pytest.mark.parametrize("keys", [(), (-1,), (1.5,), (0, -3)])
def test_invalid_keys_are_rejected(keys):
    with pytest.raises(ValueError):
        spawn_seed(*keys)
    with pytest.raises(ValueError):
        seeded_rng(*keys)
