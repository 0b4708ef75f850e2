"""Machine-speed calibration for timings taken on a shared machine.

On a small machine shared with other tenants, the speed available to one
process drifts by tens of percent over seconds to minutes, so raw wall
times of the same code differ from run to run by more than the changes the
benchmark must resolve. Each timed interval is therefore bracketed by a
fixed calibration kernel and reported at a fixed reference speed:

    reported = measured * REFERENCE_S / mean(kernel time before, kernel time after)

How much a slowdown hits code depends on the kind of work it does, so the
kernel mixes the three kinds the workloads do: small dense numpy row
operations (simplex pivots), many tiny LAPACK calls from a Python loop
(Hoffman supports, vertex enumeration), and JSON parsing with plain Python
(problem loading). Its inputs are fixed and independent of the workload
seed, and it calls no ``privlp`` code, so a change to the package cannot
move it. Raw times are kept next to the reported ones.
"""
from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Kernel time that defines the reported scale. The kernel's median on a 2-core
# Intel Xeon VM with numpy 2.4 and one BLAS thread was 6.5 to 8.5 ms.
REFERENCE_S = 0.0065

_rng = np.random.default_rng(20240913)
_TABLEAU = _rng.random((40, 120))
_GRAMS = [m @ m.T for m in _rng.random((20, 8, 6))]
_SQUARES = _rng.random((20, 6, 6)) + np.eye(6)
_RHS = _rng.random(6)
_DOCUMENT = json.dumps({"A": _rng.random((40, 40)).tolist(), "b": _rng.random(40).tolist()})
_RECORDS = [{"key": i, "value": [i * 1.5, str(i)]} for i in range(1200)]


def kernel() -> float:
    """Median wall time in seconds of three kernel runs; one run hit by a spike does not count."""
    return statistics.median(_kernel_once() for _ in range(3))


def _kernel_once() -> float:
    start = perf_counter()
    T = _TABLEAU.copy()
    for i in range(150):
        row, col = i % 40, (i * 7) % 120
        T[row] = T[row] / (T[row, col] + 1.0)
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row]) * 1e-3
    for i in range(60):
        np.linalg.eigh(_GRAMS[i % 20])
    for i in range(200):
        np.linalg.solve(_SQUARES[i % 20], _RHS)
    json.loads(_DOCUMENT)
    index = {}
    for record in _RECORDS:
        index[record["key"]] = record["value"][1] + "x"
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that converts a time measured between two kernel runs to reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
