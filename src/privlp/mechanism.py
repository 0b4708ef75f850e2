"""Truncated-Laplace privatization of constraint coefficient matrices.

Each non-masked coefficient ``a`` is replaced by

    min(a + s_i + z, sup_A)        with  z ~ TruncLaplace(sigma, [-s_i, s_i]),

where ``sigma = k/epsilon`` and ``s_i`` is the per-row support half-width
calibrated so that bounded noise still delivers (epsilon, delta)
differential privacy. Because ``z >= -s_i``, coefficients can only grow:
the privatized problem is a tightening of the original, so any point
feasible for it is feasible for the true constraints. Rows are privatized
independently (disjoint data, parallel composition), with per-row noise
streams derived from (seed, row index).
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


def sample_trunc_laplace(params: TruncLaplaceParams, rng: np.random.Generator, size=None):
    """Draw from the truncated Laplace density via a closed-form inverse CDF.

    One uniform per draw, no rejection loop, so the draw count per entry is
    fixed and seeded runs are reproducible. A uniform of exactly 0 maps to
    exactly ``-s``. Returns a float for ``size=None``, else an ndarray.
    """
    sigma, s = params.sigma, params.s
    ratio = s / sigma
    u = rng.random() if size is None else rng.random(size)
    u_arr = np.asarray(u, dtype=float)
    decay = -math.expm1(-ratio)  # 1 - e^{-s/sigma}
    if ratio <= 700.0:
        lower = -s + sigma * np.log1p(2.0 * u_arr * math.expm1(ratio))
    else:
        # equivalent form that never overflows; exp(-ratio) may underflow
        # and u = 0 then maps to -inf, clipped back to the -s endpoint
        with np.errstate(divide="ignore"):
            lower = sigma * np.log(2.0 * u_arr + (1.0 - 2.0 * u_arr) * math.exp(-ratio))
    upper = -sigma * np.log1p(-(2.0 * u_arr - 1.0) * decay)
    z = np.clip(np.where(u_arr <= 0.5, lower, upper), -s, s)
    return float(z) if size is None else z


@dataclass(frozen=True)
class PrivatizedSystem:
    """Privatized matrix plus per-row mechanism metadata.

    ``row_supports[i]`` is the half-width s_i used for row i (0.0 for fully
    masked rows, which are never privatized); ``row_nonzero_counts[i]`` the
    number of privatized entries. ``noise_log`` optionally records the raw
    noise draws (NaN at masked entries) for distributional tests.
    """

    A_tilde: np.ndarray
    row_supports: np.ndarray
    row_nonzero_counts: np.ndarray
    params: PrivacyParams
    seed: int
    noise_log: np.ndarray | None = None


def privatize_row(row, mask_row, sup_row, p: PrivacyParams,
                  rng: np.random.Generator):
    """Privatize one constraint row.

    Masked entries pass through unchanged. Every other entry ``a`` becomes
    ``min(a + s_i + z, sup)`` and therefore lands in ``[a, sup]``: the noise
    is bounded below by ``-s_i`` and the shift is computed as ``a + (s_i + z)``
    so the sum can never round below ``a``.

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
    z = sample_trunc_laplace(TruncLaplaceParams(sigma=p.sigma, s=s_i), rng, size=n0)
    out = row.copy()
    out[free] = np.minimum(row[free] + (s_i + z), sup_row[free])
    return out, s_i, z


def privatize_matrix(sys: ConstraintSystem, p: PrivacyParams, seed: int,
                     record_noise: bool = False) -> PrivatizedSystem:
    """Privatize each row of a validated system independently.

    Row ``i`` draws its noise from a stream keyed by ``(seed, i)``, so the
    output is a pure function of (system, params, seed) regardless of
    execution order. Fixed seed, identical output. Fully masked (public)
    rows are copied without building a stream.
    """
    m, n = sys.shape
    A_tilde = sys.A.copy()
    supports = np.zeros(m)
    counts = np.zeros(m, dtype=int)
    noise = np.full((m, n), np.nan) if record_noise else None
    for i in np.flatnonzero(~sys.zero_mask.all(axis=1)).tolist():
        out, s_i, z = privatize_row(sys.A[i], sys.zero_mask[i], sys.sup_A[i], p,
                                    row_stream(seed, i))
        A_tilde[i] = out
        supports[i] = s_i
        counts[i] = z.size
        if record_noise:
            noise[i, ~sys.zero_mask[i]] = z
    A_tilde.flags.writeable = False
    return PrivatizedSystem(A_tilde=A_tilde, row_supports=supports,
                            row_nonzero_counts=counts, params=p, seed=seed,
                            noise_log=noise)


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
