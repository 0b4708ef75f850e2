"""Truncated-Laplace privatization of constraint coefficient matrices.

Each non-masked coefficient ``a`` is replaced by

    min(a + s_i + z, sup_A)        with  z ~ TruncLaplace(sigma, [-s_i, s_i]),

where ``sigma = k/epsilon`` and ``s_i`` is the per-row support half-width
calibrated so that bounded noise still delivers (epsilon, delta)
differential privacy. Because ``z >= -s_i``, coefficients can only grow:
the privatized problem is a tightening of the original, so any point
feasible for it is feasible for the true constraints. Rows are privatized
independently (disjoint data, parallel composition): row ``i`` still draws
its uniforms from its own stream keyed by ``(seed, i)``, and the inverse
CDF, shift and clip then run once over all private rows together, with
each row's ``s_i`` broadcast as a column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ConstraintSystem, LinearProgram, PrivacyParams
from .seeds import row_stream


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


@dataclass(frozen=True)
class TruncLaplaceParams:
    """Scale sigma and support half-width s of a truncated Laplace density."""

    sigma: float
    s: float

    def __post_init__(self):
        if not (self.sigma > 0 and self.s > 0):
            raise ValueError(f"sigma and s must be positive, got sigma={self.sigma}, s={self.s}")

    def cdf(self, z):
        """Distribution function of the density ~ exp(-|z|/sigma) on [-s, s]."""
        z = np.clip(np.asarray(z, dtype=float), -self.s, self.s)
        half_mass = -np.expm1(-self.s / self.sigma)  # integral of e^{-|t|/sigma}/sigma over [0, s]
        lower = np.exp(z / self.sigma) - np.exp(-self.s / self.sigma)
        upper = half_mass - np.expm1(-z / self.sigma)
        return np.where(z < 0, lower, upper) / (2.0 * half_mass)


def _inverse_cdf(u: np.ndarray, s: np.ndarray, sigma: float) -> np.ndarray:
    """Closed-form inverse CDF of the truncated Laplace density, elementwise.

    ``s`` holds half-widths broadcast against the uniforms ``u``: one per
    row, as a column, in the batched pass. The constants of each half-width
    come from scalar ``math`` calls, so a draw's value does not depend on
    the batch it is computed in. A uniform of exactly 0 maps to exactly
    ``-s``.
    """
    ratio = s / sigma
    ratios = ratio.ravel().tolist()

    def per_width(f):
        return np.array([f(r) for r in ratios]).reshape(ratio.shape)

    two_u = 2.0 * u
    # e^ratio overflows beyond ratio ~709.78; rows above 700 take the form below
    lower = -s + sigma * np.log1p(two_u * per_width(lambda r: math.expm1(r) if r <= 700.0 else 0.0))
    if max(ratios) > 700.0:
        # equivalent form that never overflows; exp(-ratio) may underflow
        # and u = 0 then maps to -inf, clipped back to the -s endpoint
        with np.errstate(divide="ignore"):
            tail = sigma * np.log(two_u + (1.0 - two_u) * per_width(lambda r: math.exp(-r)))
        lower = np.where(ratio > 700.0, tail, lower)
    upper = -sigma * np.log1p(-(two_u - 1.0) * per_width(lambda r: -math.expm1(-r)))
    return np.where(u <= 0.5, lower, upper).clip(-s, s)


def sample_trunc_laplace(params: TruncLaplaceParams, rng: np.random.Generator, size=None):
    """Draw from the truncated Laplace density via a closed-form inverse CDF.

    One uniform per draw, no rejection loop, so the draw count per entry is
    fixed and seeded runs are reproducible. A uniform of exactly 0 maps to
    exactly ``-s``. Returns a float for ``size=None``, else an ndarray.
    """
    u = rng.random() if size is None else rng.random(size)
    z = _inverse_cdf(np.asarray(u, dtype=float), np.asarray(params.s, dtype=float), params.sigma)
    return float(z) if size is None else z


def _noisy_rows(A, free, sup, u, s, sigma):
    """``(A~, z)`` for a block of rows: ``min(a + (s + z), sup)`` where free, ``a`` elsewhere.

    The shift is computed as ``a + (s + z)`` with ``z >= -s`` so the sum can
    never round below ``a``.
    """
    z = _inverse_cdf(u, s, sigma)
    return np.where(free, np.minimum(A + (s + z), sup), A), z


@dataclass(frozen=True)
class PrivatizedSystem:
    """Privatized matrix plus per-row mechanism metadata.

    ``row_supports[i]`` is the half-width s_i used for row i (0.0 for fully
    masked rows, which are never privatized); ``row_nonzero_counts[i]`` the
    number of privatized entries; ``clipped_counts[i]`` how many of them
    landed on ``sup_A``. ``noise_log`` optionally records the raw noise
    draws (NaN at masked entries) for distributional tests.
    """

    A_tilde: np.ndarray
    row_supports: np.ndarray
    row_nonzero_counts: np.ndarray
    clipped_counts: np.ndarray
    params: PrivacyParams
    seed: int
    noise_log: np.ndarray | None = None


def privatize_row(row, mask_row, sup_row, p: PrivacyParams,
                  rng: np.random.Generator):
    """Privatize one constraint row.

    Masked entries pass through unchanged. Every other entry ``a`` becomes
    ``min(a + s_i + z, sup)`` and therefore lands in ``[a, sup]``. The
    transform is the one :func:`privatize_matrix` runs over all rows, fed
    with ``n0`` uniforms from ``rng``.

    Returns ``(row_tilde, s_i, z_draws)`` with ``z_draws`` in entry order;
    for a fully masked row, ``(row, 0.0, empty)``.
    """
    row = np.asarray(row, dtype=float)
    mask_row = np.asarray(mask_row, dtype=bool)
    sup_row = np.asarray(sup_row, dtype=float)
    if not (row.shape == mask_row.shape == sup_row.shape):
        raise ValueError("row, mask_row and sup_row must have identical shapes")
    free = ~mask_row
    n0 = int(free.sum())
    if n0 == 0:
        return row.copy(), 0.0, np.empty(0)
    s_i = support_width(p.k, p.epsilon, p.delta, n0)
    u = np.zeros(row.shape)
    u[free] = rng.random(n0)
    out, z = _noisy_rows(row, free, sup_row, u, np.asarray(s_i), p.sigma)
    return out, s_i, z[free]


def privatize_matrix(sys: ConstraintSystem, p: PrivacyParams, seed: int,
                     record_noise: bool = False) -> PrivatizedSystem:
    """Privatize each row of a validated system independently.

    Row ``i`` draws its ``n0_i`` uniforms from a stream keyed by
    ``(seed, i)``, so the output is a pure function of (system, params,
    seed) regardless of execution order. Fixed seed, identical output. The
    noise transform then runs once over the rows with a free entry; fully
    masked (public) rows are copied without building a stream.
    """
    m, n = sys.shape
    counts = sys.row_nonzero_counts()
    rows = np.flatnonzero(counts)
    A_tilde = sys.A.copy()
    supports = np.zeros(m)
    clipped = np.zeros(m, dtype=int)
    noise = np.full((m, n), np.nan) if record_noise else None
    if rows.size:
        n0 = counts[rows].tolist()
        widths = {c: support_width(p.k, p.epsilon, p.delta, c) for c in set(n0)}
        s = np.array([widths[c] for c in n0])
        supports[rows] = s
        block = ~sys.zero_mask[rows]
        u = np.zeros(block.shape)
        u[block] = np.concatenate([row_stream(seed, i).random(c)
                                   for i, c in zip(rows.tolist(), n0)])
        sup = sys.sup_A[rows]
        out, z = _noisy_rows(sys.A[rows], block, sup, u, s[:, None], p.sigma)
        A_tilde[rows] = out
        clipped[rows] = (block & (out == sup)).sum(axis=1)
        if record_noise:
            noise[rows] = np.where(block, z, np.nan)
    A_tilde.flags.writeable = False
    return PrivatizedSystem(A_tilde=A_tilde, row_supports=supports,
                            row_nonzero_counts=counts, clipped_counts=clipped,
                            params=p, seed=seed, noise_log=noise)


def privatized_system(sys: ConstraintSystem, priv: PrivatizedSystem) -> ConstraintSystem:
    """The tightened constraint system A~ x <= b inherited from ``sys``."""
    return ConstraintSystem(A=priv.A_tilde, b=sys.b, zero_mask=sys.zero_mask,
                            sup_A=sys.sup_A)


def privatized_document(lp: LinearProgram, priv: PrivatizedSystem) -> dict:
    """JSON-ready document for a privatized problem.

    Same schema as the input problem (with ``A`` replaced by the privatized
    matrix) plus a ``mechanism`` block recording the per-row supports, the
    noise scale and the seed.
    """
    sys = lp.system
    doc = {
        "c": lp.c.tolist(),
        "A": priv.A_tilde.tolist(),
        "b": sys.b.tolist(),
        "sup_A": sys.sup_A.tolist(),
        "zero_mask": sys.zero_mask.tolist(),
        "mechanism": {
            "row_supports": priv.row_supports.tolist(),
            "sigma": priv.params.sigma,
            "seed": priv.seed,
        },
    }
    if lp.privacy is not None:
        doc["privacy"] = {"epsilon": lp.privacy.epsilon, "delta": lp.privacy.delta,
                          "k": lp.privacy.k}
    return doc
