"""Deterministic seed derivation for reproducible, schedule-independent noise.

Every random draw in the package descends from a 64-bit base seed through
either :func:`derive_seed` (a SplitMix64 hash over index tuples, used for
per-trial streams in experiments) or the row streams keyed by (seed, row)
(NumPy seed-sequence spawning, used for per-row noise). Both are pure
functions of their inputs, so results do not depend on iteration order or
parallel scheduling.

The row stream of (seed, row) is ``default_rng(SeedSequence(entropy=seed,
spawn_key=(row,)))``, bit for bit. :func:`_state_words` runs the part of
NumPy's ``SeedSequence`` (after O'Neill's ``seed_seq``) that such a sequence
runs on its way into ``PCG64``, for every (seed, row) of a block at once in
``uint64`` arrays: the seeds' entropy pools, the mixing of each row's spawn
word into them, and ``generate_state(4, uint64)``. :func:`row_uniforms` then
runs ``PCG64`` itself (O'Neill's PCG, XSL-RR output) on those words and
returns every row's ``random()`` draws in one pass; :func:`row_stream` is
NumPy's own generator for one (seed, row).
``tests/test_mechanism.py::test_row_stream_is_the_default_rng_stream`` pins
the words against NumPy's ``generate_state``, and the ``row_uniforms`` tests
pin the draws against NumPy's ``default_rng``.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier, PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """hashmix's constant ``init * mult**j mod 2**32`` for ``j = 0, ..., count - 1``."""
    return np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(count)], dtype=np.uint64)


# call j of hashmix XORs with constant j and multiplies by constant j + 1:
# 4 calls fill the pool, 12 cross-mix it and 4 mix in the spawn word
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 21)
# generate_state hashes 8 uint32 words, the pool twice over, for PCG64's 4 uint64 words
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 9)[:, None, None]


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


def _hashmix(value, c0, c1):
    h = (value ^ c0) * c1 & _MASK32
    return h ^ h >> 16


def _mix(x, y):
    x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return x ^ x >> 16


def _state_words(seeds, rows) -> np.ndarray:
    """``generate_state(4, uint64)`` of ``SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=(row,))`` for every seed and row, shape ``(4, len(seeds), len(rows))``.

    Every word is a ``uint64`` array holding 32-bit values, so products wrap
    silently and ``& _MASK32`` reduces them mod 2**32. A seed of one or two
    32-bit words pads to the pool's four with zeros, spawned or not.
    """
    rows = [operator.index(row) for row in rows]
    if rows and not 0 <= min(rows) <= max(rows) <= _MASK32:
        raise ValueError(f"row indices must lie in [0, 2**32), got {min(rows)} to {max(rows)}")
    seeds = np.array([operator.index(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    zero = np.zeros_like(seeds)
    pool = _hashmix(np.stack([seeds & _MASK32, seeds >> 32, zero, zero]),
                    _HASH_A[:4, None], _HASH_A[1:5, None])
    for src, j in enumerate(range(4, 16, 3)):  # each word, hashed, into the three others
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A[j:j + 3, None], _HASH_A[j + 1:j + 4, None]))
    spawn = _hashmix(np.array(rows, dtype=np.uint64), _HASH_A[16:20, None, None], _HASH_A[17:21, None, None])
    pool = _mix(pool[:, :, None], spawn)
    halves = _hashmix(np.concatenate([pool, pool]), _HASH_B[:8], _HASH_B[1:])
    return halves[0::2] | halves[1::2] << 32  # little-endian pairs, as NumPy views them


def _mul128(a, b):
    """``a * b mod 2**128`` on (high, low) pairs of ``uint64`` arrays, from 32-bit halves."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _MASK32, a_lo >> 32, b_lo & _MASK32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _add128(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


@lru_cache(maxsize=16)
def _draw_table(count: int) -> tuple[np.ndarray, ...]:
    """``MULT**(k+1)`` and ``S_(k+1)`` mod 2**128 for draws k = 1, ..., count, as
    read-only (high, low) ``uint64`` arrays, where ``S_j = sum_{i<j} MULT**i``.

    ``PCG64`` seeded with state words ``(state, seq)`` sets ``inc = seq << 1
    | 1``, steps from 0 (to ``inc``), adds ``state`` and steps again; a draw
    steps once more and outputs. So the state of draw k is ``MULT**(k+1) *
    (state + inc) + S_(k+1) * inc``.
    """
    mask = (1 << 128) - 1
    power, total, table = _PCG_MULT, 1, []
    for _ in range(count):
        power, total = power * _PCG_MULT & mask, total + power & mask
        table.append((power >> 64, power & _MASK64, total >> 64, total & _MASK64))
    words = np.array(table, dtype=np.uint64).T.copy()
    words.flags.writeable = False
    return tuple(words)


def row_uniforms(seeds, rows, counts) -> np.ndarray:
    """``row_stream(seed, row).random(count)`` for every seed and (row, count), in one pass.

    Returns shape ``(len(seeds), sum(counts))``: per seed, each row's draws
    in the order of ``rows``. Each draw's ``PCG64`` state is reached in one
    jump from the row's state words (:func:`_draw_table`) and output by
    XSL-RR, whose top 53 bits ``random()`` keeps. All of it runs on
    ``uint64`` arrays, where NumPy wraps without a warning. ``rows`` is not
    empty and lies in ``[0, 2**32)``; ``counts`` are non-negative.
    """
    counts = np.asarray(counts, dtype=np.intp)
    words = _state_words(seeds, rows)
    inc = (words[2] << 1 | words[3] >> 63, words[3] << 1 | 1)
    start = _add128((words[0], words[1]), inc)
    draw_row = np.repeat(np.arange(counts.size), counts)
    draw_k = np.arange(draw_row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    power_hi, power_lo, total_hi, total_lo = (w[draw_k] for w in _draw_table(int(counts.max())))
    hi, lo = _add128(_mul128((power_hi, power_lo), (start[0][:, draw_row], start[1][:, draw_row])),
                     _mul128((total_hi, total_lo), (inc[0][:, draw_row], inc[1][:, draw_row])))
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0 ** -53


def row_stream(seed: int, row_index: int) -> np.random.Generator:
    """Independent generator for one matrix row, keyed by (seed, row).

    NumPy's own ``default_rng(SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=(row_index,)))``. The privatization path draws from
    :func:`row_uniforms` instead; this is its one-row reference. NumPy
    integers are accepted like Python ints.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=operator.index(seed) & _MASK64,
                                                        spawn_key=(operator.index(row_index),)))
