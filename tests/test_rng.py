from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim.rng import generate_states, reseed, seeded_rng, spawn_seed

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


def test_reference_streams_are_seed_sequence_of_the_key_list():
    for keys in _key_tuples():
        reference = np.random.SeedSequence(list(keys))
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


#: One key of each word length: 0, below 2**32, at or above 2**32 and at
#: or above 2**64.
KEYS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**100),
)


@st.composite
def key_columns(draw):
    """Rows of 1-6 keys, as columns: each column shared by every row or
    one key per row, the rows' keys of any word lengths."""
    rows = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            columns.append(draw(KEYS))
        else:
            keys = draw(st.lists(KEYS, min_size=rows, max_size=rows))
            wide = any(k >= 2**64 for k in keys)
            columns.append(np.array(keys, dtype=object if wide else np.uint64))
    if not any(np.ndim(c) for c in columns):
        columns[0] = np.full(rows, columns[0], dtype=object)
    return rows, columns


def _row_keys(columns, row):
    return [int(c[row]) if np.ndim(c) else c for c in columns]


@settings(max_examples=200, deadline=None)
@given(key_columns(), st.sampled_from([1, 4]))
def test_lane_hash_is_seed_sequences_state_of_every_row(drawn, n_words):
    rows, columns = drawn
    got = generate_states(columns, n_words)
    assert got.shape == (rows, n_words) and got.dtype == np.uint64
    for row in range(rows):
        want = np.random.SeedSequence(_row_keys(columns, row)).generate_state(n_words, np.uint64)
        assert got[row].tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(key_columns(), st.integers(1, 200), st.data())
def test_reused_generator_draws_what_a_fresh_one_draws(drawn, n, data):
    rows, columns = drawn
    gen = np.random.Generator(np.random.PCG64())
    k = data.draw(st.integers(1, n))
    for row, words in enumerate(generate_states(columns, 4).tolist()):
        fresh = lambda: np.random.default_rng(np.random.SeedSequence(_row_keys(columns, row)))
        assert np.array_equal(reseed(gen, words).permutation(n), fresh().permutation(n))
        assert np.array_equal(
            reseed(gen, words).choice(n, k, replace=False), fresh().choice(n, k, replace=False)
        )
        # A draw that leaves half a 64-bit word buffered must not leak
        # into the next key's stream.
        gen.integers(0, 2**31, dtype=np.int32)


def test_lane_hash_rejects_what_seed_keys_reject():
    for columns in (
        [],
        [-1],
        [np.array([1, -2])],
        [np.array([0.5])],
        [np.zeros((2, 2), int)],
        [np.array([0.5, 1], dtype=object)],
        [np.array(["a", 1], dtype=object)],
    ):
        with pytest.raises(ValueError):
            generate_states(columns, 1)
    with pytest.raises(ValueError):  # columns of different lengths
        generate_states([np.arange(3), np.arange(4)], 1)
    assert generate_states([7, np.zeros(0, np.uint64)], 4).shape == (0, 4)


def test_lane_hash_takes_bool_keys_as_the_reference_does():
    got = generate_states([np.array([True, False])], 1)
    assert got.tolist() == [[spawn_seed(1)], [spawn_seed(0)]]
    assert spawn_seed(True) == spawn_seed(1)
