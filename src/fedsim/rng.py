"""Derivation of independent, reproducible random streams.

Every source of randomness in the simulator is keyed by a tuple of
non-negative integers (base seed plus purpose/round/client tags) fed
through ``numpy.random.SeedSequence``.  Distinct key tuples yield
well-separated streams, and the same tuple always yields the same
stream regardless of call order or platform.

``seeded_rng`` and ``spawn_seed`` are the reference: they hand the key
to ``SeedSequence`` as a list of Python ints, so numpy's own code takes
it from key to stream.  A run derives its many keys as arrays, to the
same bits:

- ``generate_states`` is ``SeedSequence(key).generate_state(n, uint64)``
  for a column of keys.  ``SeedSequence`` mixes the key's uint32 words
  into a pool of 4 words and hashes the pool into the state words with
  fixed uint32 multiply/xor-shift rounds.  Its hash constants advance
  once per round, whatever the words, so for keys of one word length
  each round is the same lane arithmetic on every key at once.  Keys are
  grouped by word length (a key below 2**32 is one word, below 2**64
  two, and so on).
- ``reseed`` puts one reused PCG64 generator in the state
  ``default_rng(SeedSequence(key))`` starts in.  ``PCG64`` seeds itself
  from the key's 4 uint64 words ``w``: with ``s = w0 * 2**64 + w1`` and
  ``inc = 2 * (w2 * 2**64 + w3) + 1``, it starts in state
  ``((inc + s) * M + inc) mod 2**128`` (``M`` its multiplier) with no
  buffered 32-bit half.  Every draw from the generator then equals the
  fresh one's, without building a ``SeedSequence`` and a generator.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _key_list(keys: tuple) -> list[int]:
    """The key tuple as the list of Python ints ``SeedSequence`` takes."""
    if not keys:
        raise ValueError("at least one seed key is required")
    for k in keys:
        if int(k) != k or k < 0:
            raise ValueError(f"seed keys must be non-negative integers, got {k!r}")
    return [int(k) for k in keys]


def seeded_rng(*keys: int) -> np.random.Generator:
    """Return a Generator determined purely by the integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence(_key_list(keys)))


def spawn_seed(*keys: int) -> int:
    """Collapse a key tuple into a single derived seed (uint64 range)."""
    state = np.random.SeedSequence(_key_list(keys)).generate_state(1, np.uint64)
    return int(state[0])


# numpy's SeedSequence constants (pool of 4 uint32 words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, uint64)`` of ``SeedSequence(row)`` for
    every row of an (N, L) uint32 entropy matrix, as (N, n_words) uint64."""
    count, length = entropy.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    out = np.empty((count, n_words), dtype=np.uint64)
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        value = (value ^ (value >> 16)).astype(np.uint64)
        if i % 2:
            out[:, i // 2] |= value << np.uint64(32)
        else:
            out[:, i // 2] = value
    return out


def generate_states(keys: Sequence[int | np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence(key).generate_state(n_words, np.uint64)`` of every
    row's key, as an (N, n_words) uint64 array.

    ``keys`` are the key's columns, in key order: each one a 1-D array of
    one non-negative integer per row (an object array of ints for keys of
    2**64 and above; a bool is the int 0 or 1, as ``_key_list`` takes it),
    or a non-negative int, which every row shares and which becomes such
    a column.
    """
    if not keys:
        raise ValueError("at least one seed key is required")
    count = max((len(k) for k in keys if np.ndim(k)), default=1)
    if count == 0:
        return np.empty((0, n_words), dtype=np.uint64)
    words, valid = [], []
    every = np.ones(count, dtype=bool)
    for key in keys:
        if not np.ndim(key):
            (key,) = _key_list((key,))
            key = np.full(count, key, dtype=np.uint64 if key < 2**64 else object)
        col = np.asarray(key)
        # object keys are checked as seeded_rng checks its keys
        if col.dtype.kind == "O" and col.shape == (count,):
            col = np.array(_key_list(tuple(col)), dtype=object)
        if col.shape != (count,) or col.dtype.kind not in "buiO" or (col < 0).any():
            raise ValueError(f"seed key columns must be {count} non-negative integers")
        # Word k of a key is there for k == 0 and while it has bits above 32 k.
        present = every
        while present.any():
            words.append((col & _MASK32).astype(np.uint32))
            valid.append(present)
            col = col >> 32
            present = col != 0
    # Each row's words in key order, the rows grouped by their word count.
    words_m, valid_m = np.stack(words, axis=1), np.stack(valid, axis=1)
    lengths = valid_m.sum(axis=1)
    out = np.empty((count, n_words), dtype=np.uint64)
    for length in range(int(lengths.min()), int(lengths.max()) + 1):
        rows = np.flatnonzero(lengths == length)
        if rows.size:
            block = words_m[rows][valid_m[rows]].reshape(rows.size, length)
            out[rows] = _hash_words(block, n_words)
    return out


def reseed(gen: np.random.Generator, words: Sequence[int]) -> np.random.Generator:
    """Put ``gen``, a PCG64 Generator, in the state that
    ``default_rng(SeedSequence(key))`` starts in, given the key's
    ``generate_state(4, np.uint64)`` as ints; returns ``gen``."""
    w0, w1, w2, w3 = words
    seed = (w0 << 64) | w1
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((inc + seed) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
