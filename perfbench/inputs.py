"""Seeded inputs for the benchmark, built without the package under test.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical inputs. The LP construction mirrors the one the test
suite uses (a strictly positive first row bounds the region, and ``b`` is
set from a witness point inside the worst-case region, so every instance
passes validation by construction). It is kept here rather than imported
from ``tests/`` so that an edit to the tests cannot move the benchmark.
"""
from __future__ import annotations

import json

import numpy as np

DEFAULT_SEED = 0
# Claims tuned on DEFAULT_SEED are confirmed on this seed before they count.
HELD_OUT_SEED = 1

EPS_GRID = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
EPS_ARG = ",".join(f"{eps:g}" for eps in EPS_GRID)
DELTA = 0.05

# lp-sweep draws its LP from a fixed pool, so the stored draw-independent
# bound column covers every seed; the seed still changes the sweep's draws.
LP_POOL_SIZE = 8
LP_SHAPE = (12, 6)
# k at which the xi case switches from clipped to interior inside EPS_GRID
# for every pool instance, so both xi branches run in one sweep.
LP_K = 0.02

SOLVE_SHAPE = (40, 40)
SOLVE_DOCUMENTS = 50
# Clips roughly a tenth of the entries at sup_A: the tightened matrix is
# neither the original nor the worst case.
SOLVE_K = 0.05

# Stream tags keep the workloads' random streams apart for equal seeds.
_LP_POOL_TAG = 0x1B
_SOLVE_TAG = 0x5E


def random_validated_lp(rng: np.random.Generator, m: int, n: int, mask_prob: float = 0.2,
                        positive_costs: bool = False) -> dict[str, np.ndarray]:
    """Arrays ``c, A, b, zero_mask, sup_A`` of an LP that satisfies the standing assumptions."""
    A = rng.uniform(-1.0, 2.0, (m, n))
    mask = rng.random((m, n)) < mask_prob
    A[0] = rng.uniform(0.2, 1.5, n)
    mask[0] = False
    A[mask] = 0.0
    margin = rng.uniform(0.1, 2.0, (m, n))
    margin[mask] = 0.0
    witness = rng.uniform(0.0, 1.0, n)
    sup_A = A + margin
    b = sup_A @ witness + rng.uniform(0.05, 1.0, m)
    if positive_costs:
        c = np.abs(rng.normal(size=n)) + 0.1
    else:
        c = rng.normal(size=n)
    return {"c": c, "A": A, "b": b, "zero_mask": mask, "sup_A": sup_A}


def problem_document(arrays: dict[str, np.ndarray], privacy: dict | None = None) -> str:
    """The problem JSON schema; floats round-trip exactly through ``repr``."""
    doc = {key: value.tolist() for key, value in arrays.items()}
    if privacy is not None:
        doc["privacy"] = privacy
    return json.dumps(doc)


def lp_instance(seed: int) -> int:
    """Index of the pool LP that lp-sweep runs for ``seed``."""
    return seed % LP_POOL_SIZE


def sweep_lp(seed: int) -> dict[str, np.ndarray]:
    """The 12x6 lp-sweep problem for ``seed``. Positive costs keep the baseline objective positive."""
    rng = np.random.default_rng([_LP_POOL_TAG, lp_instance(seed)])
    return random_validated_lp(rng, *LP_SHAPE, positive_costs=True)


def solve_documents(seed: int, count: int = SOLVE_DOCUMENTS) -> list[tuple[dict, str]]:
    """``count`` 40x40 problems for private-solve, as (arrays, JSON text) pairs.

    Each document carries its own privacy block; epsilon cycles over EPS_GRID.
    """
    rng = np.random.default_rng([_SOLVE_TAG, seed])
    docs = []
    for i in range(count):
        arrays = random_validated_lp(rng, *SOLVE_SHAPE)
        privacy = {"epsilon": EPS_GRID[i % len(EPS_GRID)], "delta": DELTA, "k": SOLVE_K}
        docs.append((arrays, problem_document(arrays, privacy)))
    return docs


def request_seed(seed: int, pass_index: int, request_index: int) -> int:
    """Privatization seed of one private-solve request."""
    state = np.random.SeedSequence([_SOLVE_TAG, seed, pass_index, request_index])
    return int(state.generate_state(1, np.uint64)[0])
