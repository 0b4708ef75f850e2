"""Dense two-phase primal simplex for small LPs, its warm start, and vertex utilities.

Solves  maximize c.x  s.t.  A x <= b, x >= 0,  where some rows of a
:class:`ConstraintSystem` may be equalities.  Pivoting is fully
deterministic: steepest reduced cost enters (ties to the lowest column
index), the leaving row wins a lexicographic ratio test, and a stall
detector drops to Bland's rule outright if degeneracy ever stops progress.
Phase 2 prices ``c`` divided by the power of two that puts ``max|c|`` in
(0.5, 1], so scaling ``c`` by a power of two leaves every pivot unchanged.

This module owns the tableau, laid out as ``[x | slacks | artificials |
rhs]``, and every start of it: the slack start ``[A | I | b]``
(:func:`_slack_start`), or a :class:`WarmStart`'s, a baseline basis
factored once and updated to each system by Woodbury, used where the
update's norms certify it (else the slack start). One routine,
:func:`_solve_stack`, finishes a stack of systems: rows whose start value
is negative are sign-flipped and get an artificial, and an equality row's
unit column is an artificial, which phase 1 drives out (a redundant
equality row keeps it basic at 0, so the basis stays square). Pricing, the
optimality test, the refine solve and the re-check against each system's
rows run once over the stack; only a system not yet optimal pivots, in the
one scalar pivot loop on its views into the stack. Each vertex is
re-derived from the original data through its final basis matrix, and an
overflow is a ``ValueError``. :func:`solve_block` returns a block as arrays
(:class:`SolvedBlock`); :func:`solve_lp`, a block of one from the slack
start, alone builds a :class:`Solution` and its active set. Dense, for
tens of rows and columns; the vertex utilities (:func:`enumerate_vertices`,
:func:`max_norm_point`) read every row as an inequality.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .problem import FEAS_TOL, ConstraintSystem

_MAX_PIVOTS = 200_000
_STALL_LIMIT = 200
_MAX_VERTEX_BASES = 500_000  # bases one vertex enumeration may meet
_VERTEX_CHUNK = 256
_VERTEX_OVERFLOW = "vertex enumeration overflows; the region's vertex coordinates are too large"

# Entries below this are zero to the simplex, and a start basis whose 1-norm
# condition number reaches its inverse is singular.
PIVOT_TOL = 1e-10
_CERTIFY_MARGIN = 1e-9  # relative widening of a warm start's certified norm bounds, for rounding

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class Solution:
    """Outcome of one LP solve (:func:`solve_lp`).

    ``x`` and ``objective`` are set only when ``status == "Optimal"``.
    ``basis`` is the active set at ``x``: ``0..m-1`` for rows of A (an
    equality row always), ``m + j`` for ``x_j >= 0``. ``basic_columns`` is
    the final simplex basis, one column of ``[x | slacks]`` per row, which a
    :class:`WarmStart` can start from; ``phase1_pivots`` and
    ``phase2_pivots`` count pivots, and ``start_path`` names the start.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    basis: tuple[int, ...] = field(default=())
    basic_columns: tuple[int, ...] = field(default=())
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    start_path: str = "slack"

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class SolvedBlock(NamedTuple):
    """A block's solves as arrays, one slot per system: ``x`` (``(k, n)``) and ``objective``
    (``c.x``) are NaN where ``status`` is not ``"Optimal"``; ``pivots[t]`` counts phase-1 and
    phase-2 pivots, ``start_path`` is ``"slack"`` or ``"updated"``, ``basic_columns`` each final basis.
    """

    status: np.ndarray
    x: np.ndarray
    objective: np.ndarray
    pivots: np.ndarray
    start_path: np.ndarray
    basic_columns: np.ndarray


def _overflow_named(solve):
    """``solve`` under one ``np.errstate``: an overflow of a pivot, ratio or ``c.x`` is a ``ValueError``."""
    @functools.wraps(solve)
    def named(*args):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return solve(*args)
        except FloatingPointError:
            raise ValueError("the simplex overflows; costs, right-hand sides or A are too large") from None
    return named


def _slack_start(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(T, basis)``: per matrix of the stack ``A``, the slack start ``[A | I | b]``.

    ``basis`` is the slack basis ``n..n+m-1`` for each system, a new array
    the solve may update in place.
    """
    k, m, n = A.shape
    T = np.zeros((k, m, n + m + 1))
    T[..., :n] = A
    T[..., np.arange(m), np.arange(n, n + m)] = 1.0
    T[..., -1] = b
    return T, np.tile(np.arange(n, n + m), (k, 1))


def _basis_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Columns ``basis[t]`` of ``[A[t] | I]`` for each matrix of the stack ``A``."""
    k, m, n = A.shape
    rows = n * np.arange(k * m).reshape(k, m, 1)  # where each row of A starts
    B = A.reshape(-1).take(rows + np.minimum(basis, n - 1)[:, None, :])
    t, j = np.nonzero(basis >= n)
    B[t, :, j] = 0.0
    B[t, basis[t, j] - n, j] = 1.0
    return B


def _stacked_solve(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``M^-1 R`` per system of the stack ``M`` (``R`` may be shared); NaN where ``M`` is singular.

    One stacked call solves each system as a call on its own would; only
    when one of them is singular (which raises for the whole stack) are
    they solved one by one.
    """
    try:
        return np.linalg.solve(M, R)
    except np.linalg.LinAlgError:  # one is singular, or not square
        R = np.broadcast_to(R, M.shape[:-1] + R.shape[-1:])
        out = np.full(R.shape, np.nan)
        for t in range(R.shape[0]):
            try:
                out[t] = np.linalg.solve(M[t], R[t])
            except np.linalg.LinAlgError:
                pass
        return out


class WarmStart:
    """A basis factored once, to start solves of systems that differ in data.

    Holds the baseline ``system`` (its ``b`` and equality rows are every
    solve's), the basis (m column indices into ``[x | slacks]``, such as a
    solve's ``basic_columns``) and the baseline tableau ``T0 = B0^-1 [A |
    I | b]``, with ``B0`` the basis columns of ``[A | I]``; ``T0`` is None
    when the basis is singular for the baseline. Starts are built for a
    block of systems that differ from the baseline only in ``A``, as one
    ``(k, m, n + m + 1)`` stack of tableaus; a block of one is a single
    start. ``B0`` is singular when ``T0`` is not finite or its 1-norm
    condition number ``||B0||_1 ||B0^-1||_1`` reaches ``1 / PIVOT_TOL``: LU
    reports only an exactly zero pivot.
    """

    def __init__(self, system: ConstraintSystem, basic_columns):
        self.system = system
        self.A, self.b = np.asarray(system.A), np.asarray(system.b)
        m, n = self.A.shape
        self.basis = np.array(basic_columns, dtype=int)
        body = _slack_start(self.A[None], self.b)[0]
        B0 = body[..., :-1][..., self.basis]
        T0 = _stacked_solve(B0, body)[0]
        # ||B0||_1, ||B0^-1||_1 and max|T0|, which bound every update
        self._norms = norm, inverse_norm, largest = (np.abs(B0[0]).sum(axis=0).max(initial=0.0),
                                                     np.abs(T0[:, n:n + m]).sum(axis=0).max(),
                                                     np.abs(T0).max())
        with np.errstate(over="ignore"):  # a condition number that overflows is singular
            usable = norm * inverse_norm < 1 / PIVOT_TOL and np.isfinite(largest)
        self.T0 = T0 if usable else None

    def tableaus(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(T, basis, paths)`` for the stack ``A`` of shape ``(k, m, n)``, all new arrays.

        ``T[t]`` is ``B[t]^-1 [A[t] | I | b]`` in the start's basis, with
        ``B[t]`` its basis columns of ``[A[t] | I]`` (``paths[t]`` is
        ``"updated"``), or the slack start where the update's norms do not
        certify it usable (:meth:`_updated`; ``"slack"``), a singular ``C``
        included. Each system is an update of ``T0`` over the union of the
        rows changed in any of them, computed as on that system alone. In
        the start's basis the basis columns are exactly the identity, and a
        value in ``[-FEAS_TOL, 0)`` is set to 0.
        """
        if A.shape[1:] != self.A.shape:
            raise ValueError(f"start was built for a system of shape {self.A.shape}, "
                             f"not {A.shape[1:]}")
        k, m, _ = A.shape
        if self.T0 is None:
            return *_slack_start(A, self.b), np.full(k, "slack")
        T, usable = self._updated(A, np.flatnonzero((A != self.A).any(axis=(0, 2))))
        T[:, :, self.basis] = np.eye(m)
        rhs = T[:, :, -1]
        rhs[(rhs < 0) & (rhs >= -FEAS_TOL)] = 0.0
        basis = np.tile(self.basis, (k, 1))
        if not usable.all():
            T[~usable], basis[~usable] = _slack_start(A[~usable], self.b)
        return T, basis, np.where(usable, "updated", "slack")

    def _updated(self, A: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``T0`` updated to each system of ``A`` by the Woodbury identity, and which are certified.

        With ``R`` the changed rows, ``D = A[R] - A0[R]``, ``D_B`` its basis
        columns (0 at slacks) and ``U = T0[:, n + R]`` (columns ``R`` of
        ``B0^-1``): ``T = T0 - U S`` with ``S = C^-1 (D_B T0 - [D | 0 | 0])``
        and ``C = I + D_B U``. A system whose ``C`` is singular gets a NaN
        ``T``. ``np.matmul`` runs each system's products as ``np.dot`` runs
        them on one system, to the bit.

        ``certified[t]`` is True where the update's norms prove ``B[t]``
        usable by the test ``T0`` passed: ``||B||_1 <= ||B0||_1 +
        ||D_B||_1``; ``||B^-1||_1 <= ||B0^-1||_1 (1 + |R| max|S_slack|)``,
        since ``U``'s columns are columns of ``B0^-1``; and ``max|T| <=
        max|T0| + |R| max|U| max|S|``, finite. Each bound is widened by
        ``_CERTIFY_MARGIN`` for the rounding of the computed norms. A system
        the bounds do not certify takes the slack start, though its own
        condition number may be under the threshold.
        """
        k, m, n = A.shape
        D = A[:, rows] - self.A[rows]
        x = np.flatnonzero(self.basis < n)
        D_B = np.zeros((k, rows.size, m))
        D_B[:, :, x] = D[:, :, self.basis[x]]
        U = self.T0[:, n + rows]
        W = np.matmul(D_B, self.T0)
        W[:, :, :n] -= D
        S = _stacked_solve(np.eye(rows.size) + np.matmul(D_B, U), W)
        T = np.matmul(U, S)
        np.subtract(self.T0, T, out=T)
        norm, inverse_norm, largest = self._norms
        S = np.abs(S)
        slack_max = S[..., n:n + m].max(axis=(1, 2), initial=0.0)
        size = rows.size * (1.0 + _CERTIFY_MARGIN)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound certifies nothing
            norm = norm + np.abs(D_B).sum(axis=1).max(axis=1, initial=0.0)
            inverse_norm = inverse_norm * (1.0 + size * slack_max)
            largest = largest + size * np.abs(U).max(initial=0.0) * S.max(axis=(1, 2), initial=0.0)
            certified = ((norm * inverse_norm * (1.0 + _CERTIFY_MARGIN) < 1 / PIVOT_TOL)
                         & np.isfinite(largest * (1.0 + _CERTIFY_MARGIN)))
        return T, certified


def _priced_objective(costs: np.ndarray, basis: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Reduced costs ``z_j - c_j`` of tableau ``T`` in ``basis``, and its value in the last cell.

    ``T`` and ``basis`` may be stacks; each tableau gets the bits it gets alone.
    """
    obj = np.zeros(T.shape[:-2] + T.shape[-1:])
    obj[..., :-1] = -costs
    basic_costs = costs[basis]
    for i in np.flatnonzero(basic_costs.reshape(-1, basis.shape[-1]).any(axis=0)).tolist():
        cost = basic_costs[..., i, None]
        np.add(obj, cost * T[..., i, :], out=obj, where=cost != 0)
    return obj


def _reduced_costs(obj: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Reduced costs of the columns allowed to enter, +inf at the rest; ``obj`` may be a stack."""
    return np.where(allowed, obj[..., :-1], np.inf)


def _optimal(least):
    """Whether a tableau whose least reduced cost is ``least`` is optimal (elementwise)."""
    return least >= -PIVOT_TOL


def _refined(B: np.ndarray, b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The stack ``rhs`` of basic values, re-derived from the original data as ``B^-1 b``.

    The exact values replace the tableau's where the solve is finite and
    within 1e-4 of them, so pivoting drift never reaches the caller.
    """
    exact = _stacked_solve(B, b[:, None])[..., 0]
    accept = np.isfinite(exact).all(axis=-1) & (np.abs(exact - rhs).max(axis=-1) < 1e-4)
    return np.where(accept[:, None], exact, rhs)


def _vertices(A: np.ndarray, b: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Each system's ``x >= 0``, its basic values ``rhs`` refined through its basis matrix."""
    rhs = _refined(_basis_matrix(A, basis), b, rhs)
    x = np.zeros(rhs.shape[:-1] + A.shape[-1:])
    t, i = np.nonzero(basis < A.shape[-1])
    x[t, basis[t, i]] = rhs[t, i]
    return np.maximum(x, 0.0, out=x)


def _entered(T: np.ndarray, basis: np.ndarray, n: int,
             equality: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stack ``T`` of start tableaus in ``basis`` (updated in place), made ready for phase 1.

    Each row whose start value is negative is sign-flipped and gets its own
    artificial column, basic in that row, appended in row order; a system
    with fewer than the stack's most is padded with zero columns, which
    never enter. Returns the stack, its artificial columns (each equality
    row's unit column and every appended one) and each system's count of
    appended columns.
    """
    k, m, _ = T.shape
    flip = T[:, :, -1] < 0
    appended = flip.sum(axis=1)
    artificial = np.zeros(n + m + appended.max(), dtype=bool)
    artificial[n + m:] = True
    if equality is not None:
        artificial[n:n + m] = equality
    if artificial.size > n + m:
        T[flip] *= -1.0
        T = np.concatenate([T[..., :-1], np.zeros((k, m, artificial.size - n - m)), T[..., -1:]],
                           axis=-1)
        t, i = np.nonzero(flip)
        basis[t, i] = n + m + np.cumsum(flip, axis=1)[t, i] - 1
        T[t, i, basis[t, i]] = 1.0
    return T, artificial, appended


class _Tableau:
    """One system's tableau over columns [x | one per row | artificials | rhs], pivoted in place.

    ``T`` and ``basis`` are its views into a stack made by :func:`_entered`,
    whose artificial columns ``artificial`` marks.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray, n: int, artificial: np.ndarray):
        self.T, self.basis, self.n, self.artificial = T, basis, n, artificial
        self.m = T.shape[0]
        self.pivots = 0

    def _pivot(self, row: int, col: int, obj: np.ndarray):
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= factors[:, None] * T[row]
        obj -= obj[col] * T[row]
        self.basis[row] = col
        self.pivots += 1

    def _leaving_row(self, col: int, bland: bool) -> int | None:
        T, column = self.T, self.T[:, col]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return None
        ratios = T[rows, -1] / column[rows]
        ties = rows[ratios <= ratios.min() + PIVOT_TOL]
        if ties.size == 1:
            return int(ties[0])
        if bland:
            return int(ties[np.argmin(self.basis[ties])])
        # lexicographic ratio test: smallest normalized row wins
        normalized = T[ties] / T[ties, col][:, None]
        order = np.lexsort(normalized.T[::-1])
        return int(ties[order[0]])

    def _run(self, obj: np.ndarray, allowed: np.ndarray) -> str:
        bland = False
        stall = 0
        last_value = obj[-1]
        for _ in range(_MAX_PIVOTS):
            reduced = _reduced_costs(obj, allowed)
            if bland:
                cols = np.flatnonzero(reduced < -PIVOT_TOL)
                if cols.size == 0:
                    return OPTIMAL
                col = int(cols[0])
            else:
                col = int(reduced.argmin())
                if _optimal(reduced[col]):
                    return OPTIMAL
            row = self._leaving_row(col, bland)
            if row is None:
                return UNBOUNDED
            self._pivot(row, col, obj)
            if obj[-1] > last_value + 1e-12:
                last_value = obj[-1]
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True  # degeneracy stall: finish under Bland's rule
        raise RuntimeError("simplex exceeded the pivot budget; input looks pathological")

    def solve_phase1(self, appended: int) -> bool:
        """Drive artificials to zero. Returns False when infeasible.

        The system's own ``appended`` artificials may re-enter; an equality
        row's unit column, or a column that pads the stack, never enters.
        """
        if not self.artificial[self.basis].any():
            return True
        obj = _priced_objective(np.where(self.artificial, -1.0, 0.0), self.basis, self.T)
        allowed = ~self.artificial
        allowed[self.n + self.m:][:appended] = True
        status = self._run(obj, allowed)
        assert status == OPTIMAL  # phase-1 objective is bounded by 0
        if obj[-1] < -FEAS_TOL:
            return False
        self._evict_artificials()
        return True

    def _evict_artificials(self):
        """Pivot each artificial still basic out for a column of ``[x | slacks]`` that may enter.

        A row where none may enter is redundant: it keeps an artificial of
        ``[x | slacks]`` basic at 0, the unit column of an equality row, so
        the basis stays m columns that a :class:`WarmStart` can factor. No
        column that may enter has an entry in that row, so it never leaves,
        and an artificial never enters again.
        """
        width = self.n + self.m
        enterable = ~self.artificial[:width]
        for i in range(self.m):
            if not self.artificial[self.basis[i]]:
                continue
            entries = np.abs(self.T[i, :width])
            candidates = np.flatnonzero(enterable & (entries > PIVOT_TOL))
            if candidates.size:
                self._pivot(i, int(candidates[0]), np.zeros(self.T.shape[1]))
            elif self.basis[i] >= width:  # an appended artificial: swap in a unit column
                unit = self.n + int(np.argmax(entries[self.n:]))
                self._pivot(i, unit, np.zeros(self.T.shape[1]))


@_overflow_named
def _solve_stack(c, system: ConstraintSystem, A: np.ndarray, T: np.ndarray, basis: np.ndarray,
                 paths) -> SolvedBlock:
    """Maximize ``c.x`` over ``system.tightened(A[t])`` from tableau ``T[t]`` in ``basis[t]``.

    ``A`` is a ``(k, m, n)`` stack sharing ``system``'s ``b`` and equality
    rows; ``paths[t]`` names each start. Raises ``RuntimeError`` when a
    point violates its rows beyond ``FEAS_TOL``.
    """
    k, m, n = A.shape
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"c must have shape ({n},), got {c.shape}")
    T, artificial, appended = _entered(T, basis, n, system.equality)
    costs = np.zeros(artificial.size)
    # priced divided by the power of two that puts max|c| in (0.5, 1]: the tolerances are absolute
    mantissa, exponent = np.frexp(np.abs(c).max(initial=0.0))
    costs[:n] = np.ldexp(c, (mantissa == 0.5) - exponent)
    obj = _priced_objective(costs, basis, T)
    allowed = ~artificial  # artificials never re-enter
    needs_phase1 = artificial[basis].any(axis=1)
    least = _reduced_costs(obj, allowed).min(axis=1)
    status, pivots = np.full(k, OPTIMAL, dtype=object), np.zeros((k, 2), dtype=int)
    for t in np.flatnonzero(needs_phase1 | ~_optimal(least)).tolist():
        tab = _Tableau(T[t], basis[t], n, artificial)
        if needs_phase1[t]:
            if not tab.solve_phase1(appended[t]):
                status[t], pivots[t] = INFEASIBLE, (tab.pivots, 0)
                continue
            obj[t] = _priced_objective(costs, basis[t], T[t])  # in its basis after phase 1
        phase1_pivots = tab.pivots
        status[t] = tab._run(obj[t], allowed)
        pivots[t] = phase1_pivots, tab.pivots - phase1_pivots
    done = status == OPTIMAL
    some = slice(None) if done.all() else done  # copies part of the stack only when a solve failed
    A = A[some]
    X = _vertices(A, system.b, T[some, :, -1], basis[some])
    residual = (A @ X[:, :, None])[:, :, 0] - system.b
    if system.equality is not None:
        np.abs(residual, out=residual, where=system.equality)
    worst = residual.max(axis=1, initial=0.0)
    if (worst > FEAS_TOL).any():
        raise RuntimeError("simplex returned an infeasible point "
                           f"(violation {worst[worst > FEAS_TOL][0]:.3e})")
    x = np.full((k, n), np.nan)
    x[some] = X
    return SolvedBlock(status, x, np.vecdot(x, c), pivots, np.asarray(paths), basis)


def solve_lp(c, sys: ConstraintSystem) -> Solution:
    """Maximize ``c.x`` over {x >= 0 : A x <= b}, with equality on ``sys.equality`` rows.

    A block of one from the slack basis, as a :class:`Solution` with its
    active set. When optimal, its point re-verifies against the constraints
    at tolerance ``FEAS_TOL`` (:meth:`ConstraintSystem.residuals`).
    """
    A = np.asarray(sys.A)[None]
    solved = _solve_stack(c, sys, A, *_slack_start(A, sys.b), ("slack",))
    status, (phase1, phase2) = solved.status[0], solved.pivots[0].tolist()
    if status != OPTIMAL:
        return Solution(status, phase1_pivots=phase1, phase2_pivots=phase2)
    x = solved.x[0]  # active: the rows within FEAS_TOL, then the bounds m + j (x >= 0)
    active = np.flatnonzero(np.abs(np.concatenate([sys.residuals(x), x])) <= FEAS_TOL)
    return Solution(status, x, float(solved.objective[0]), tuple(active.tolist()),
                    tuple(solved.basic_columns[0].tolist()), phase1, phase2)


def solve_block(c, A_block: np.ndarray, start: WarmStart) -> SolvedBlock:
    """Maximize ``c.x`` over ``start.system.tightened(A)`` for each ``A`` of the stack ``A_block``.

    ``A_block`` has shape ``(k, m, n)``, each a privatized ``A`` of
    ``start.system``. The starts come as one stack
    (:meth:`WarmStart.tableaus`; a singular start basis takes the slack
    basis), and the block comes back as arrays, with no per-trial
    :class:`Solution`. Each slot equals the block-of-one solve's, field for
    field, when the matrices change the same rows, as privatized ones do.
    """
    return _solve_stack(c, start.system, A_block, *start.tableaus(A_block))


@_overflow_named
def _phase1(A: np.ndarray, b: np.ndarray,
            equality: np.ndarray | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The slack start of ``A x <= b`` after phase 1 as a stack of one ``(T, basis)``, or None."""
    n = A.shape[1]
    T, basis = _slack_start(A[None], b)
    T, artificial, appended = _entered(T, basis, n, equality)
    feasible = _Tableau(T[0], basis[0], n, artificial).solve_phase1(appended[0])
    return (T, basis) if feasible else None


def phase1_feasible(sys: ConstraintSystem) -> np.ndarray | None:
    """Find any point of {x >= 0 : A x <= b} (``=`` on equality rows), or None when it is empty."""
    A, b = np.asarray(sys.A), np.asarray(sys.b)
    started = _phase1(A, b, sys.equality)
    return None if started is None else _vertices(A[None], b, started[0][..., -1], started[1])[0]


def _walk_bases(rows: np.ndarray, rhs: np.ndarray,
                start: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """The accepted bases of ``rows x <= rhs`` met by walking from ``start``, and their vertices.

    Bases are expanded ``_VERTEX_CHUNK`` at a time. A basis is accepted as
    the full scan accepts it: no exact zero pivot in its LU factorization
    (``slogdet``), a finite per-matrix ``solve`` and a vertex feasible at
    ``FEAS_TOL``. Only accepted bases are expanded. Leaving ``S[j]`` moves
    along column ``j`` of ``-inv(rows[S])``, and one ratio test over all n
    directions gives each bounded edge's far basis. At a degenerate vertex
    (more than n constraints within ``FEAS_TOL``), every n-subset of its
    tight constraints joins the walk: then every basis of the vertex is met,
    and each edge leaving it is the direction of one of them. An edge with
    no finite ratio is a ray of the region: the walk returns None at the
    first one it meets. Raises ``ValueError`` as soon as more than
    ``_MAX_VERTEX_BASES`` bases are met.
    """
    n = rows.shape[1]
    met = {start}
    queue = [start]  # met, not yet expanded
    degenerate = set()  # tight sets of the degenerate vertices already expanded
    accepted, vertices = [], []

    def meet(candidates):
        for S in candidates:
            if S not in met:
                if len(met) == _MAX_VERTEX_BASES:
                    raise ValueError(f"vertex enumeration met over {_MAX_VERTEX_BASES} "
                                     "bases; the system is too large")
                met.add(S)
                queue.append(S)

    while queue:
        frontier = np.array(queue[-_VERTEX_CHUNK:], dtype=np.intp)
        del queue[-_VERTEX_CHUNK:]
        squares = rows[frontier]
        sign, _ = np.linalg.slogdet(squares)
        frontier, squares = frontier[sign != 0], squares[sign != 0]
        X = np.linalg.solve(squares, rhs[frontier][:, :, None])[:, :, 0]
        keep = np.isfinite(X).all(axis=1)
        frontier, squares, X = frontier[keep], squares[keep], X[keep]
        excess = X @ rows.T - rhs
        keep = ~(excess.max(axis=1) > FEAS_TOL)
        frontier, squares, X, slack = frontier[keep], squares[keep], X[keep], -excess[keep]
        accepted.append(frontier)
        vertices.append(X)
        inv = np.linalg.inv(squares)
        keep = np.isfinite(inv).all(axis=(1, 2))
        frontier, inv, slack = frontier[keep], inv[keep], slack[keep]
        tight = slack <= FEAS_TOL
        rate = -(rows @ inv)  # rate[a, i, j]: how fast slack i falls along edge j of basis a
        # a basis' own rows stay tight along its edges; round-off there must not block at 0
        rate[np.arange(frontier.shape[0])[:, None], frontier] = 0.0
        try:
            with np.errstate(over="raise"):  # an edge too long for a float is no ray
                ratio = np.divide(np.where(tight, 0.0, slack)[:, :, None], rate,
                                  out=np.full(rate.shape, np.inf), where=rate > 0)
        except FloatingPointError:
            raise ValueError(_VERTEX_OVERFLOW) from None
        bounded = np.isfinite(ratio).any(axis=1)
        if not bounded.all():
            return None  # a ray: the region is unbounded
        a, j = np.nonzero(bounded)
        far = frontier[a]
        far[np.arange(a.size), j] = ratio[a, :, j].argmin(axis=1)
        far.sort(axis=1)
        meet(map(tuple, far.tolist()))
        for i in np.flatnonzero(tight.sum(axis=1) > n):
            if (key := tight[i].tobytes()) not in degenerate:
                degenerate.add(key)
                meet(itertools.combinations(np.flatnonzero(tight[i]).tolist(), n))
    return np.concatenate(accepted), np.concatenate(vertices)


def enumerate_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """All vertices of a bounded {x >= 0 : A x <= b}, one per row, deduplicated.

    Vertices are intersections of n active constraints drawn from the m
    inequality rows and the n sign bounds. Rather than solve all C(m+n, n)
    candidate bases, this walks the graph of feasible bases from the vertex
    phase 1 ends on (:func:`_walk_bases`; Avis & Fukuda 1992), so the work
    follows the number of vertices. The walk accepts a basis by the full
    scan's own test: a basis whose LU factorization meets an exact zero
    pivot is singular and skipped, the rest are solved per matrix and kept
    when finite and feasible at ``FEAS_TOL``. The walk meets every basis the
    scan accepts; sorted into the scan's lexicographic basis order, each vertex
    is kept at its first basis, so the output is the scan's, byte for byte.
    Raises ``ValueError`` when the walk meets more than ``_MAX_VERTEX_BASES``
    bases; returns a ``(0, n)`` array for an empty region, and None for an
    unbounded one, as soon as the walk meets a ray.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    started = _phase1(A, b, None)
    if started is None:
        return np.zeros((0, n))
    # phase 1's vertex: nonbasic x_j is active bound m + j, nonbasic slack i is row i
    # (a mask, not np.setdiff1d, which imports numpy.ma: about 1 MB of memory)
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[started[1][0]] = False
    nonbasic = np.flatnonzero(nonbasic)
    start = tuple(np.sort(np.where(nonbasic < n, m + nonbasic, nonbasic - n)).tolist())
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    walked = _walk_bases(rows, rhs, start)
    if walked is None:
        return None
    bases, X = walked
    X = X[np.lexsort(bases.T[::-1])]  # the scan's order: by S[0], then S[1], ...
    with np.errstate(over="ignore"):
        keys = np.round(X, 9) + 0.0
    if not np.isfinite(keys).all():
        raise ValueError(_VERTEX_OVERFLOW)
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key.tobytes(), i)
    return X[list(first.values())]


def max_norm_point(sys: ConstraintSystem):
    """Largest-Euclidean-norm point of {x >= 0 : A x <= b}.

    The norm is convex, so the maximum over a bounded polyhedron sits at a
    vertex; this enumerates vertices and returns the max-norm one, breaking
    norm ties by lexicographically smallest coordinates; the vertices, and
    the ``ValueError`` beyond ``_MAX_VERTEX_BASES`` bases, are those of
    :func:`enumerate_vertices`. Returns ``(x_bar, norm)``, or the string
    status ``"Unbounded"`` when the region has no largest element.
    Every row is read as an inequality, so a system with equality rows
    raises ``ValueError``: pass its ``inequality_form()``.
    """
    if sys.equality is not None:
        raise ValueError("max_norm_point reads A x <= b; pass the system's inequality_form()")
    vertices = enumerate_vertices(np.asarray(sys.A), np.asarray(sys.b))
    if vertices is None:
        return UNBOUNDED
    if vertices.shape[0] == 0:
        raise ValueError("region is empty; max_norm_point requires a feasible system")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vertices, axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("the norm of a vertex overflows; the region's vertices are too large")
    best = norms.max()
    candidates = vertices[norms >= best - FEAS_TOL]
    order = np.lexsort(candidates.T[::-1])  # lexicographic by x_0, then x_1, ...
    x_bar = candidates[order[0]]
    return x_bar, float(np.linalg.norm(x_bar))
