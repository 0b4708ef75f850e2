"""Expected performance-loss bound for privatized constraints.

The bound multiplies four quantities: the objective's Lipschitz constant
(the norm of c for a linear objective), the largest feasible norm under the
original constraints, the Hoffman constant of the original matrix (how far
a point can sit from a polyhedron relative to its constraint violation),
and a closed-form bound ``xi`` on the expected Frobenius-norm perturbation
the mechanism introduces.

The Hoffman constant is computed exactly at desk scale by enumerating row
subsets: a subset J is admissible when no nonzero nonnegative combination
of its rows vanishes, and its contribution is the reciprocal of

    min { ||A_J^T v||_2 : v >= 0, ||v||_2 = 1 }.

That inner minimum is found by face enumeration: on the support where a
local minimizer is strictly positive it is an unconstrained critical point
of the Rayleigh quotient, hence a bottom eigenvector of the corresponding
principal submatrix of A_J A_J^T. The Hoffman constant needs the supports
of at most rank(A) rows, ``inner_cone_min`` those of at most rank + 1
(Peña, Vera & Zuluaga, "New characterizations of Hoffman constants for
systems of linear constraints", Math. Programming, 2021); one batched
``eigh`` call takes every support of one size, less those that
:func:`_acute` shows to hold no nonnegative bottom eigenvector. Both walks
share one budget, ``_MAX_SUPPORTS``, on the supports that the matrix's
shape allows them, which also bounds the largest batch: the 6435 supports
of 7 rows of a 15x7 matrix, about 2.5 MB of Gram blocks.

Only ``xi`` depends on the privacy parameters. :func:`bound_geometry`
computes the other three factors once per problem, and
:meth:`BoundGeometry.report` completes the bound for each epsilon.

The bound reads a system in the paper's form ``A x <= b``: a system with
equality rows is read through ``ConstraintSystem.inequality_form()``, each
equality as its pair of opposed rows. For the Hoffman constant that is the
same constant as the mixed system's, since ``(e.x - d)_+`` and
``(d - e.x)_+`` together have the Euclidean norm of ``|e.x - d|``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mechanism import _row_calibration
from .problem import (ConstraintSystem, LinearProgram, PrivacyParams, _refuse_overflow,
                      _require_finite)
from . import simplex

ADMISSION_TOL = 1e-9
_MAX_SUPPORTS = 2 ** 14 - 1  # row supports either walk may evaluate: all those of 14 rows

XI_INTERIOR = "interior"
XI_CLIPPED = "clipped"


class HoffmanSizeError(ValueError):
    """The exact enumeration would evaluate more row supports than ``_MAX_SUPPORTS``."""


class DegenerateSystemError(ValueError):
    """No row subset is admissible; the Hoffman constant is undefined."""


def _eigenspace_touches_orthant(vectors: np.ndarray) -> bool:
    """Does span(columns) contain a nonzero nonnegative vector?

    For a repeated bottom eigenvalue (several columns), decided by phase 1
    over ``V w >= 0, sum(V w) = 1``, with ``w = w+ - w-``: feasible exactly
    when the eigenspace meets the nonnegative orthant off the origin.
    """
    sums = vectors.sum(axis=0)
    rows = np.vstack([np.hstack([-vectors, vectors]), np.concatenate([sums, -sums])])
    last = np.arange(rows.shape[0]) == rows.shape[0] - 1  # the normalization, a public equality
    system = ConstraintSystem(rows, last.astype(float), np.ones(rows.shape, dtype=bool), rows, last)
    return simplex.phase1_feasible(system) is not None


def _acute(blocks: np.ndarray) -> np.ndarray:
    """Per Gram block ``G_S``: has it a row i with ``G_ij > delta_S`` for every ``j != i``?

    Such a block's bottom eigenspace holds no nonnegative vector, so its
    candidate is +inf. Take row i of ``G_S v = lambda_min v`` with ``v >=
    0``: ``sum_{j != i} G_ij v_j = (lambda_min - G_ii) v_i <= 0``, so ``v``
    is ``e_i``, and ``G_S e_i = lambda_min e_i`` needs ``G_ji = 0``.

    The margin ``delta_S = 1e-2 * M``, ``M = max_j G_jj = max|G_S|``,
    keeps this true of what :func:`_support_candidates` computes. It
    accepts a unit ``v`` with entries at least ``-tau`` and ``||(G_S - lo)
    v|| <= rho``: ``tau`` is the ``1e-12`` sign tolerance, or about
    ``sqrt(size) * FEAS_TOL`` in the orthant LP, and ``rho`` is the cluster
    width ``1e-10 * lambda_max <= 1e-10 * size * M`` plus ``eigh``'s
    backward error, about ``size^3 * 2e-16 * M``; a support has at most 14
    rows within ``_MAX_SUPPORTS``, so ``rho < 2e-9 M``. Row i bounds
    ``sum_{j != i} |v_j|`` by ``((size + 1) M tau + 3 rho) / delta_S <
    1e-3``, so ``v_i > 0.99``, and row j's ``G_ji v_i > 0.99 delta_S``
    exceeds the ``2e-3 M + 2 rho`` the rest of that row can cancel. Every
    term is a multiple of ``M``, so the margin needs no floor at any scale.
    """
    size = blocks.shape[-1]
    diagonal = np.diagonal(blocks, axis1=1, axis2=2)
    margin = 1e-2 * diagonal.max(axis=1)
    over = (blocks > margin[:, None, None]) | np.eye(size, dtype=bool)
    return over.all(axis=2).any(axis=1)


def _touches_orthant(eigvecs: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Per support, does its bottom eigenspace (the columns of ``eigvecs`` that ``group`` marks)
    hold a nonzero nonnegative vector?

    The bottom eigenvector decides where it is one-signed up to ``1e-12``:
    it lies in the eigenspace, and a unit vector with entries at least
    ``-1e-12`` sums to about 1 or more, so the orthant LP would find it
    too. A simple eigenvalue's eigenspace is that vector's line, so the
    sign test is the whole answer. Only a repeated eigenvalue whose
    bottom eigenvector is not one-signed goes to the orthant LP.
    """
    bottom = eigvecs[:, :, 0]
    touches = (bottom >= -1e-12).all(axis=1) | (bottom <= 1e-12).all(axis=1)
    for i in np.flatnonzero((group.sum(axis=1) > 1) & ~touches):
        touches[i] = _eigenspace_touches_orthant(eigvecs[i][:, group[i]])
    return touches


def _support_candidates(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Per support, min of sqrt(v' G v) over unit v >= 0 supported on all its rows.

    ``supports`` is a (count, size) array of row indices, size >= 2. The
    value is the bottom-eigenvalue square root when the bottom eigenspace
    contains a nonnegative vector, else +inf (no interior critical point on
    this support; smaller supports cover the boundary), without an
    ``eigh`` for a block that :func:`_acute` flags. A matrix's ``eigh``
    does not depend on its batch, so skipping blocks moves no bit. Whether
    the bottom eigenspace holds a nonnegative vector is
    :func:`_touches_orthant`'s sign test, and the orthant LP only where
    that test fails on a repeated eigenvalue. The bottom eigenspace is the
    eigenvalues within ``1e-10 lambda_max`` of the bottom one, and a bottom
    eigenvalue under ``1e-13 lambda_max`` (the numerical rank) collapses to
    exactly zero: its square root would otherwise surface eigensolver
    round-off (~1e-8 of the block's scale) above the admission tolerance
    and fabricate huge Hoffman constants for genuinely degenerate subsets.
    Both thresholds scale with the block, as the admission tolerance does.
    """
    blocks = gram[supports[:, :, None], supports[:, None, :]]
    kept = ~_acute(blocks)
    eigvals, eigvecs = np.linalg.eigh(blocks[kept])
    lo = eigvals[:, 0]
    scale = np.abs(eigvals[:, -1])
    group = eigvals <= (lo + 1e-10 * scale)[:, None]
    values = np.where(lo <= 1e-13 * scale, 0.0, np.sqrt(np.maximum(lo, 0.0)))
    candidates = np.full(len(supports), np.inf)
    candidates[kept] = np.where(_touches_orthant(eigvecs, group), values, np.inf)
    return candidates


def _support_walk(A, extra: int, name: str) -> np.ndarray:
    """The candidates g(S) of every row support S of at most ``rank(A) + extra`` rows.

    A singleton's g is its row norm; a larger support's is
    ``_support_candidates``'s. Raises ``ValueError`` naming the matrix
    ``name`` for a non-finite entry or an overflowing Gram matrix, and
    :class:`HoffmanSizeError` when the supports of at most ``n + extra``
    rows, counted from the shape alone so that no SVD runs first, number
    more than ``_MAX_SUPPORTS``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _require_finite(A, name)
    m, n = A.shape
    count = 0
    for size in range(1, min(m, n + extra) + 1):
        count += math.comb(m, size)
        if count > _MAX_SUPPORTS:
            raise HoffmanSizeError(f"exact enumeration over the {m} rows of {name} would evaluate at "
                                   f"least {count} row supports, over its budget of {_MAX_SUPPORTS}")
    gram = _refuse_overflow(lambda: A @ A.T,
                            f"{name} @ {name}.T overflows; entries of {name} are too large")
    candidates = [np.sqrt(np.maximum(np.diag(gram), 0.0))]
    for size in range(2, min(m, np.linalg.matrix_rank(A) + extra) + 1):
        idx = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), size)),
                          np.intp, math.comb(m, size) * size).reshape(-1, size)
        candidates.append(_support_candidates(gram, idx))
    return np.concatenate(candidates)


def inner_cone_min(M) -> float:
    """Exact min of ||M^T v||_2 over nonnegative unit vectors v.

    Face enumeration over the supports of v of at most rank(M) + 1 rows (a
    zero comes from a minimal positively dependent set, of at most rank + 1
    rows); every candidate is attained by a feasible v, and the minimizer
    is the bottom eigenpair of its own support's Gram block. Raises
    :class:`HoffmanSizeError` beyond the support budget of
    :func:`_support_walk`, which ``hoffman_constant`` shares.
    """
    if np.size(M) == 0:
        raise ValueError("M must be non-empty")
    return float(_support_walk(M, 1, "M").min())


def hoffman_constant(A) -> float:
    """Hoffman constant of A for the (2,2)-norm pair, by exact enumeration.

    Maximizes 1 / inner_cone_min(A_J) over the row subsets J whose inner
    minimum exceeds ADMISSION_TOL times the largest row norm of A (exactly
    those for which x -> A_J x + nonneg orthant is surjective): 1 / min
    g(S) over the admitted supports S. Every threshold is relative, so
    ``hoffman_constant(2**j * A)`` is ``2**-j * hoffman_constant(A)``, bit
    for bit, and ``H(cA) = H(A) / c`` to rounding. A positive minimizer
    needs a nonsingular Gram block, so only supports of at most rank(A)
    rows are evaluated; by Cauchy interlacing a support that holds a
    singular one is singular too, with g 0 or +inf, so it is never admitted.
    Raises :class:`HoffmanSizeError` when the supports of at most
    ``min(m, n)`` rows number more than the budget of :func:`_support_walk`
    (every input of at most 14 rows is within it), and
    :class:`DegenerateSystemError` when no subset is admissible.
    """
    g = _support_walk(A, 0, "A")
    largest = g[:np.atleast_2d(A).shape[0]].max(initial=0.0)  # the singletons' g: row norms
    admitted = g[g > ADMISSION_TOL * largest]
    if not admitted.size:
        raise DegenerateSystemError("no admissible row subset; Hoffman constant undefined")
    return 1.0 / float(admitted.min())


@dataclass(frozen=True)
class AccuracyReport:
    """Pieces of the expected performance-loss bound and their product."""

    L: float
    x_bar_norm: float
    hoffman: float
    xi: float
    xi_case: str
    bound: float

    def to_dict(self) -> dict:
        return {"L": self.L, "x_bar_norm": self.x_bar_norm, "hoffman": self.hoffman,
                "xi": self.xi, "xi_case": self.xi_case, "bound": self.bound}


def xi_term(sys: ConstraintSystem, p: PrivacyParams) -> tuple[float, str]:
    """Expected-perturbation bound xi and which case produced it.

    ``n0`` and ``s_i`` per row come from ``mechanism._row_calibration``,
    over ``sys.inequality_form()``: a system with equality rows gets the
    ``xi`` of its paired form. Interior case (no entry can reach its public
    bound even after the full shift, a + 2 s_i < sup for every non-masked
    entry):

        xi = sqrt( sum_rows 2 m (k/eps)^2 n0 + (n0 * s_row)^2 ), in row order

    Clipped case (some entry can hit its bound): xi is the Frobenius norm
    of (A - sup_A), the worst tightening the clipping allows. In either
    case an ``xi`` that overflows raises ``ValueError``; a finite one is
    not rescaled, so it keeps its bits.
    """
    sys = sys.inequality_form()
    _, _, free, A, sup = sys.private_rows
    n0, widths = _row_calibration(sys, p)
    if (free & (A + 2.0 * widths[n0][:, None] >= sup)).any():
        xi = _refuse_overflow(lambda: float(np.linalg.norm(sys.A - sys.sup_A)),
                              "the norm of A - sup_A overflows; entries of A - sup_A are too large")
        return xi, XI_CLIPPED
    # cumsum adds the rows in order where .sum() would pair them; 0.0 leads for a system with no free entry
    return _refuse_overflow(lambda: math.sqrt(np.cumsum(np.append(
        0.0, 2.0 * sys.shape[0] * p.sigma * p.sigma * n0 + (n0 * widths[n0]) ** 2))[-1]),
        "the interior xi overflows; k/epsilon and the support widths are too large"), XI_INTERIOR


class BoundGeometry(NamedTuple):
    """The epsilon-independent factors of the bound: L, ||x_bar|| and H(A).

    A NamedTuple rather than a frozen dataclass: it is as immutable and
    cheaper to create at import time.
    """

    L: float
    x_bar_norm: float
    hoffman: float

    def report(self, system: ConstraintSystem, p: PrivacyParams) -> AccuracyReport:
        """Complete the bound for one privacy setting; only ``xi`` is computed here.

        An unbounded feasible region yields an infinite bound unless the
        objective is constant or the mechanism cannot perturb anything
        (xi = 0), in which case the loss is exactly zero. ``xi`` is
        :func:`xi_term`'s, which reads ``system.inequality_form()`` itself.
        """
        xi, xi_case = xi_term(system, p)
        if self.L == 0.0 or xi == 0.0:
            bound = 0.0
        elif math.isinf(self.x_bar_norm):
            bound = math.inf
        else:
            bound = self.L * self.x_bar_norm * self.hoffman * xi
        return AccuracyReport(L=self.L, x_bar_norm=self.x_bar_norm, hoffman=self.hoffman,
                              xi=xi, xi_case=xi_case, bound=bound)


def bound_geometry(lp: LinearProgram) -> BoundGeometry:
    """Compute L, ||x_bar|| and H(A) once per problem.

    Uses the original (non-private) matrix for both the Hoffman constant
    and the max-norm point, in its ``inequality_form()``.
    """
    form = lp.system.inequality_form()
    hoffman = hoffman_constant(form.A)
    located = simplex.max_norm_point(form)
    x_bar_norm = math.inf if located == simplex.UNBOUNDED else located[1]
    return BoundGeometry(L=lp.lipschitz, x_bar_norm=x_bar_norm, hoffman=hoffman)


def cost_bound(lp: LinearProgram, p: PrivacyParams) -> AccuracyReport:
    """Assemble the expected cost-loss bound L * ||x_bar|| * H * xi."""
    return bound_geometry(lp).report(lp.system, p)
