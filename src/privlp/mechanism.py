"""Truncated-Laplace privatization of constraint coefficient matrices.

Each non-masked coefficient ``a`` is replaced by

    min(a + s_i + z, sup_A)        with  z ~ TruncLaplace(sigma, [-s_i, s_i]),

where ``sigma = k/epsilon`` and ``s_i`` is the per-row support half-width
calibrated so that bounded noise still delivers (epsilon, delta)
differential privacy. Because ``z >= -s_i``, coefficients can only grow:
the privatized problem is a tightening of the original, so any point
feasible for it is feasible for the true constraints. There is one path,
:func:`privatize_block`, which returns the private rows of one system
privatized under several (params, seed) pairs, with their half-widths and
noise; :func:`privatize_matrix` is its block of one plus the public rows
and the per-row metadata. Rows are privatized independently (disjoint
data, parallel composition): row ``i`` under ``seed`` draws its uniforms
from its own stream keyed by ``(seed, i)``. One :func:`seeds.row_uniforms`
call draws every stream of a block in one numpy pass, and the inverse CDF,
shift and clip then run once over the stack of every seed's private rows,
with each row's ``s_i`` and each seed's ``sigma`` broadcast along the
entries. ``s_i`` comes from :func:`_row_calibration`, once per distinct
params of a block, and ``xi_term`` reads it too.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .problem import ConstraintSystem, LinearProgram, PrivacyParams
from .seeds import row_uniforms


def support_width(k: float, epsilon: float, delta: float, n0: int) -> float:
    """Support half-width s = (k/eps) * ln(n0 (e^eps - 1) / delta + 1).

    ``n0`` is the number of coefficients privatized together in one row.
    Strictly positive; grows with n0 and k, shrinks as epsilon or delta
    grow. Raises for n0 = 0: rows with nothing to privatize are skipped by
    the caller, never given a support.
    """
    if n0 < 1:
        raise ValueError("n0 must be a positive integer; fully masked rows are not privatized")
    if not (epsilon > 0 and k > 0 and 0 < delta < 0.5):
        raise ValueError(f"invalid parameters: k={k}, epsilon={epsilon}, delta={delta}")
    if epsilon > 700.0:  # exp(epsilon) overflows; ln(n0 (e^eps - 1)/delta + 1) = eps + ln(n0/delta) + O(e^-eps)
        return (k / epsilon) * (epsilon + math.log(n0 / delta)
                                + math.log1p((delta / n0 - 1.0) * math.exp(-epsilon)))
    return (k / epsilon) * math.log1p(n0 * math.expm1(epsilon) / delta)


def _inverse_cdf(u: np.ndarray, s: np.ndarray, sigma: float | np.ndarray) -> np.ndarray:
    """Closed-form inverse CDF of the truncated Laplace density, elementwise.

    ``s`` and ``sigma`` are broadcast against the uniforms ``u``: in the
    batched pass ``u`` is ``(seeds, rows, n)``, ``s`` ``(seeds, rows, 1)``
    and ``sigma`` ``(seeds, 1, 1)``. The constants of each half-width come
    from scalar ``math`` calls, once per distinct ratio ``s / sigma``, so a
    draw's value does not depend on the batch it is computed in. A uniform
    of exactly 0 maps to exactly ``-s``.
    """
    ratio = s / sigma
    ratios = sorted(set(ratio.ravel().tolist()))
    at = np.searchsorted(ratios, ratio)  # each ratio's own index: its exact value is in ratios

    def per_width(f):
        return np.array([f(r) for r in ratios])[at]

    two_u = 2.0 * u
    # e^ratio overflows beyond ratio ~709.78; rows above 700 take the form below
    lower = -s + sigma * np.log1p(two_u * per_width(lambda r: math.expm1(r) if r <= 700.0 else 0.0))
    if ratios[-1] > 700.0:
        # equivalent form that never overflows; exp(-ratio) may underflow
        # and u = 0 then maps to -inf, clipped back to the -s endpoint
        with np.errstate(divide="ignore"):
            tail = sigma * np.log(two_u + (1.0 - two_u) * per_width(lambda r: math.exp(-r)))
        lower = np.where(ratio > 700.0, tail, lower)
    upper = -sigma * np.log1p(-(two_u - 1.0) * per_width(lambda r: -math.expm1(-r)))
    return np.where(u <= 0.5, lower, upper).clip(-s, s)


def sample_trunc_laplace(sigma: float, s: float, rng: np.random.Generator, size=None):
    """Draw from the density ~ exp(-|z|/sigma) on [-s, s] via a closed-form inverse CDF.

    One uniform per draw, no rejection loop, so the draw count per entry is
    fixed and seeded runs are reproducible. A uniform of exactly 0 maps to
    exactly ``-s``. Returns a float for ``size=None``, else an ndarray.
    """
    if not (sigma > 0 and s > 0):
        raise ValueError(f"sigma and s must be positive, got sigma={sigma}, s={s}")
    u = rng.random() if size is None else rng.random(size)
    z = _inverse_cdf(np.asarray(u, dtype=float), np.asarray(s, dtype=float), sigma)
    return float(z) if size is None else z


def _row_calibration(sys: ConstraintSystem, p: PrivacyParams) -> tuple[np.ndarray, np.ndarray]:
    """``(n0, widths)``: free-entry counts of ``sys.private_rows``, in row order,
    and ``widths[c] = support_width(k, epsilon, delta, c)`` once per distinct
    count ``c`` (0 elsewhere), so ``widths[n0]`` is each row's ``s_i``.

    Raises ``ValueError`` when ``sigma = k/epsilon`` or a used width is not
    finite, or underflows to 0: the noise, and every bound read from it,
    would be NaN, inf or no noise at all.
    """
    counts, rows = sys.private_rows[:2]
    n0 = counts[rows]
    widths = np.zeros(sys.shape[1] + 1)
    for c in set(n0.tolist()):
        widths[c] = support_width(p.k, p.epsilon, p.delta, c)
    if not all(0 < w < math.inf for w in [p.sigma, *widths[n0]]):
        raise ValueError(f"the noise scale k/epsilon and every support width must be finite "
                         f"and positive; k/epsilon = {p.sigma}, widths up to {widths.max()} "
                         f"(k={p.k}, epsilon={p.epsilon}, delta={p.delta})")
    return n0, widths


@dataclass(frozen=True)
class PrivatizedSystem:
    """Privatized matrix plus per-row mechanism metadata.

    ``row_supports[i]`` is the half-width s_i used for row i (0.0 for fully
    masked rows, which are never privatized); ``row_nonzero_counts[i]`` the
    number of privatized entries; ``clipped_counts[i]`` how many of them
    landed on ``sup_A``. ``noise_log`` optionally records the raw noise
    draws (NaN at masked entries) for distributional tests. It holds no
    seed: the seed is the mechanism's secret, and the caller keeps it.
    """

    A_tilde: np.ndarray
    row_supports: np.ndarray
    row_nonzero_counts: np.ndarray
    clipped_counts: np.ndarray
    params: PrivacyParams
    noise_log: np.ndarray | None = None


def privatize_block(sys: ConstraintSystem, params: Sequence[PrivacyParams],
                    seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Privatize the private rows of ``sys`` once per (params, seed) pair.

    ``params`` holds one :class:`PrivacyParams` per seed. Returns ``(A_rows,
    s, z)``, each with one slot per seed and per row of ``sys.private_rows``:
    ``A_rows[t]``, shape ``(rows, n)``, is those rows of
    ``privatize_matrix(sys, params[t], seeds[t]).A_tilde``; ``s[t]`` is each
    row's half-width; ``z[t]`` the noise drawn. The half-widths are computed
    once per distinct params, and the noise transform runs once over the
    stack of all seeds' private rows. Row ``i`` of seed ``t`` draws
    ``row_stream(seeds[t], i).random(n0_i)``, and one ``row_uniforms`` call
    draws them for every seed and row.
    """
    counts, rows, block, A_rows, sup = sys.private_rows
    n0 = counts[rows]
    widths = {p: _row_calibration(sys, p)[1][n0] for p in dict.fromkeys(params)}
    if not rows.size:
        empty = np.zeros((len(seeds), *block.shape))
        return empty, np.zeros((len(seeds), 0)), empty
    s = np.array([widths[p] for p in params])[:, :, None]
    sigma = np.array([p.sigma for p in params])[:, None, None]
    u = np.zeros((len(seeds), *block.shape))
    u[:, block] = row_uniforms(seeds, rows, n0)
    z = _inverse_cdf(u, s, sigma)
    # min(a + (s + z), sup) where free: with z >= -s the shift never rounds below a
    return np.where(block, np.minimum(A_rows + (s + z), sup), A_rows), s[:, :, 0], z


def privatize_matrix(sys: ConstraintSystem, p: PrivacyParams, seed: int,
                     record_noise: bool = False) -> PrivatizedSystem:
    """Privatize each row of a validated system independently.

    Row ``i`` draws its ``n0_i`` uniforms from a stream keyed by
    ``(seed, i)``, so the output is a pure function of (system, params,
    seed) regardless of execution order. Fixed seed, identical output.
    The private rows are :func:`privatize_block`'s block of one; fully
    masked (public) rows are copied and draw nothing. Which rows those
    are is read from ``sys.private_rows``, which a system computes once.
    """
    m, n = sys.shape
    counts, rows, block, _, sup = sys.private_rows
    A_tilde = np.array(sys.A)
    private, s, z = privatize_block(sys, (p,), (seed,))
    A_tilde[rows] = private[0]
    supports = np.zeros(m)
    supports[rows] = s[0]
    clipped = np.zeros(m, dtype=int)
    clipped[rows] = (block & (private[0] == sup)).sum(axis=1)
    noise = np.full((m, n), np.nan) if record_noise else None
    if record_noise:
        noise[rows] = np.where(block, z[0], np.nan)
    A_tilde.flags.writeable = False
    return PrivatizedSystem(A_tilde=A_tilde, row_supports=supports,
                            row_nonzero_counts=counts, clipped_counts=clipped,
                            params=p, noise_log=noise)


def privatized_document(lp: LinearProgram, priv: PrivatizedSystem) -> dict:
    """JSON-ready document for a privatized problem.

    Same schema as the input problem (with ``A`` replaced by the privatized
    matrix) plus a ``mechanism`` block recording the per-row supports and
    the noise scale, never the seed: anyone who knows it can regenerate the
    noise and recover every unclipped entry of ``A``. The schema has no
    equality rows, so the
    document holds the system's ``inequality_form()``: each equality row
    as its pair, the appended public copies with support 0.
    """
    m = lp.system.shape[0]
    form = lp.system.inequality_form()
    supports = np.concatenate([priv.row_supports, np.zeros(form.shape[0] - m)])
    doc = {
        "c": lp.c.tolist(),
        "A": np.vstack([priv.A_tilde, form.A[m:]]).tolist(),
        "b": form.b.tolist(),
        "sup_A": form.sup_A.tolist(),
        "zero_mask": form.zero_mask.tolist(),
        "mechanism": {
            "row_supports": supports.tolist(),
            "sigma": priv.params.sigma,
        },
    }
    if lp.privacy is not None:
        doc["privacy"] = {"epsilon": lp.privacy.epsilon, "delta": lp.privacy.delta,
                          "k": lp.privacy.k}
    return doc
