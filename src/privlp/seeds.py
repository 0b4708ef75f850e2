"""Deterministic seed derivation for reproducible, schedule-independent noise.

Every random draw in the package descends from a 64-bit base seed through
either :func:`derive_seed` (a SplitMix64 hash over index tuples, used for
per-trial streams in experiments) or :func:`row_stream` (NumPy seed-sequence
spawning, used for per-row noise). Both are pure functions of their inputs,
so results do not depend on iteration order or parallel scheduling.

:func:`row_stream` reproduces the part of NumPy's ``SeedSequence`` (after
O'Neill's ``seed_seq``) that a spawned sequence ``SeedSequence(entropy=seed,
spawn_key=(row,))`` runs on its way into ``PCG64``: the seed's entropy pool,
the mixing of the spawn word into it, and ``generate_state(4, uint64)``. The
pool depends on the seed alone and is computed once per seed; each row then
costs a handful of 32-bit integer operations instead of a new
``SeedSequence``. The stream equals ``default_rng(SeedSequence(...))`` bit for
bit; ``tests/test_mechanism.py::test_row_stream_is_the_default_rng_stream``
pins that.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, first: int, count: int) -> tuple[int, ...]:
    """The hash constant ``init * mult**j mod 2**32``, ``j = first, ..., first + count - 1``."""
    return tuple(init * pow(mult, j, 1 << 32) & _MASK32 for j in range(first, first + count))


# hashmix's constant before and after each of the 4 calls that mix the spawn
# word into the pool; filling and cross-mixing the pool took the first 4 + 12
_SPAWN_HASH = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE, _POOL_SIZE + 1)
_SPAWN_CONSTS = tuple(zip(_SPAWN_HASH, _SPAWN_HASH[1:]))
# generate_state hashes 8 uint32 words for PCG64's 4 uint64 words; per uint64
# word: (pool index of its low half, constant before, between, after the halves)
_STATE_HASH = _hash_consts(_INIT_B, _MULT_B, 0, 9)
_STATE_CONSTS = tuple((i % _POOL_SIZE, *_STATE_HASH[i:i + 3]) for i in range(0, 8, 2))


def _splitmix64(state: int) -> int:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, *indices: int) -> int:
    """Hash (base_seed, i_1, ..., i_k) to an independent 64-bit seed.

    Appending further grid points or trials never changes the seed derived
    for an existing (base, indices) combination. The seed and indices are
    integers (NumPy integers too); a float raises ``TypeError``.
    """
    state = _splitmix64(operator.index(base_seed) & _MASK64)
    for index in indices:
        state = _splitmix64(state ^ (operator.index(index) & _MASK64))
    return state


@lru_cache(maxsize=1)
def _seed_pool(seed: int) -> tuple[int, ...]:
    """Entropy pool of ``SeedSequence(seed)``.

    A spawned sequence pads a seed shorter than the pool with zero words
    before its spawn key; an unspawned one hashes zeros for the missing
    words, so the two pools agree.
    """
    return tuple(np.random.SeedSequence(seed).pool.tolist())


class _RowSeed(ISeedSequence):
    """The four ``uint64`` words ``PCG64`` asks its seed sequence for."""

    def __init__(self, words: list[int]):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a row seed gives 4 uint64 words only, not {n_words} of {dtype}")
        return np.array(self._words, dtype=np.uint64)


def row_stream(seed: int, row_index: int) -> np.random.Generator:
    """Independent generator for one matrix row, keyed by (seed, row).

    The stream of ``default_rng(SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=(row_index,)))``, bit for bit (pinned by
    ``test_row_stream_is_the_default_rng_stream`` and the interleaved-seed
    test beside it), built without that ``SeedSequence``: the seed's pool
    comes from a one-entry cache, and the row's spawn word is mixed into it
    and ``PCG64``'s four state words are hashed out of it in Python ints,
    with NumPy's constants and order. ``row_index`` must lie in
    ``[0, 2**32)``, where the spawn key is one word. NumPy integers are
    accepted like Python ints.
    """
    row_index = operator.index(row_index)
    if not 0 <= row_index <= _MASK32:
        raise ValueError(f"row_index must lie in [0, 2**32), got {row_index}")
    pool = []
    for word, (c0, c1) in zip(_seed_pool(operator.index(seed) & _MASK64), _SPAWN_CONSTS):
        h = (row_index ^ c0) * c1 & _MASK32                          # hashmix(row_index)
        x = (_MIX_MULT_L * word - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32  # mix(word, h)
        pool.append(x ^ x >> 16)
    words = []
    for i, c0, c1, c2 in _STATE_CONSTS:
        lo = (pool[i] ^ c0) * c1 & _MASK32
        hi = (pool[i + 1] ^ c1) * c2 & _MASK32
        words.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)  # little-endian, as NumPy views them
    return np.random.Generator(np.random.PCG64(_RowSeed(words)))
