"""Deterministic seed derivation for reproducible, schedule-independent noise.

Every random draw in the package descends from a 64-bit base seed through
either :func:`derive_seed` (a SplitMix64 hash over index tuples, used for
per-trial streams in experiments) or :func:`row_stream` (NumPy seed-sequence
spawning, used for per-row noise). Both are pure functions of their inputs,
so results do not depend on iteration order or parallel scheduling.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, *indices: int) -> int:
    """Hash (base_seed, i_1, ..., i_k) to an independent 64-bit seed.

    Appending further grid points or trials never changes the seed derived
    for an existing (base, indices) combination.
    """
    state = _splitmix64(base_seed & _MASK64)
    for index in indices:
        state = _splitmix64(state ^ (int(index) & _MASK64))
    return state


def row_stream(seed: int, row_index: int) -> np.random.Generator:
    """Independent generator for one matrix row, keyed by (seed, row).

    The stream of ``default_rng(SeedSequence(...))``, built without its
    argument dispatch.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed & _MASK64, spawn_key=(row_index,))))
