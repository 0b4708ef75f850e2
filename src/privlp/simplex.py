"""Dense two-phase primal simplex for small LPs, plus vertex utilities.

Solves  maximize c.x  s.t.  A x <= b, x >= 0.  Pivoting is fully
deterministic: steepest reduced cost enters (ties to the lowest column
index), the leaving row wins a lexicographic ratio test, and a stall
detector drops to Bland's rule outright if degeneracy ever stops progress.
Scaling c by a positive constant leaves every pivot decision unchanged.

A solve starts from the slack basis, or from a given basis ``start`` such
as the final ``basic_columns`` of a solve of a problem that differs only in
its data. A start is factored once; rows whose start value is negative are
sign-flipped and get an artificial, so phase 1 runs over those rows only,
and a start that is still feasible goes straight to phase 2. The returned
vertex is re-derived from the original data through its final basis, so
tableau round-off never reaches the caller, whatever the start. Built for
desk-scale instances (tens of rows and columns); dense, no sparsity.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ConstraintSystem

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
_MAX_PIVOTS = 200_000
_MAX_VERTEX_BASES = 5_000_000
_VERTEX_CHUNK = 256

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class Solution:
    """Outcome of an LP solve.

    ``x`` and ``objective`` are populated only when ``status == "Optimal"``.
    ``basis`` lists the active constraint indices at the returned point:
    ``0..m-1`` for rows of A, ``m + j`` for the bound ``x_j >= 0``.
    ``basic_columns`` is the final simplex basis, one column index into
    ``[x | slacks]`` per row; pass it as ``start`` to re-solve a problem
    that differs only in its data. ``phase1_pivots`` and ``phase2_pivots``
    count the pivots of each phase.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    basis: tuple[int, ...] = field(default=())
    basic_columns: tuple[int, ...] = field(default=())
    phase1_pivots: int = 0
    phase2_pivots: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


_STALL_LIMIT = 200


def _factor_start(B: np.ndarray, body: np.ndarray, n: int) -> np.ndarray | None:
    """``B^-1 [A | I | b]``, or None when ``B`` is singular to working precision.

    LU reports only an exactly zero pivot, so the 1-norm condition number is
    checked too, against ``1 / PIVOT_TOL``; ``B^-1`` is the slack block of
    the result.
    """
    try:
        solved = np.linalg.solve(B, body)
    except np.linalg.LinAlgError:  # singular, or not m columns
        return None
    condition = np.linalg.norm(B, 1) * np.linalg.norm(solved[:, n:n + B.shape[0]], 1)
    if not (np.isfinite(solved).all() and condition < 1 / PIVOT_TOL):
        return None
    return solved


class _Tableau:
    """Simplex tableau over columns [x | slacks | artificials | rhs].

    ``start`` is the initial basis: m column indices into ``[x | slacks]``.
    ``None`` is the slack basis, whose tableau is ``[A | I | b]`` with no
    factorization. Any other start is factored once, ``B^-1 [A | I | b]``,
    and falls back to the slack basis when that fails. A row whose start
    value is negative is sign-flipped and gets an artificial, so phase 1
    runs over those rows only; a factored value in ``[-FEAS_TOL, 0)`` is
    round-off and is set to 0.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, start=None):
        m, n = A.shape
        self.m, self.n = m, n
        self.n_slack = m
        self.AI, self.b = np.hstack([A, np.eye(m)]), b  # original data, for extraction
        body = np.hstack([self.AI, b[:, None]])
        self.basis = np.arange(n, n + m)
        factored = None if start is None else _factor_start(self.AI[:, start], body, n)
        if factored is not None:
            body, self.basis = factored, np.array(start, dtype=int)
            body[:, self.basis] = np.eye(m)
            rhs = body[:, -1]
            rhs[(rhs < 0) & (rhs >= -FEAS_TOL)] = 0.0  # round-off of the factorization
        flip = body[:, -1] < 0
        body[flip] *= -1.0
        art_rows = np.flatnonzero(flip)
        self.art_cols = list(range(n + m, n + m + art_rows.size))
        art = np.zeros((m, art_rows.size))
        art[art_rows, np.arange(art_rows.size)] = 1.0
        self.basis[art_rows] = self.art_cols
        self.T = body if art_rows.size == 0 else np.hstack([body[:, :-1], art, body[:, -1:]])
        self.width = n + m + art_rows.size
        self.pivots = 0

    def _pivot(self, row: int, col: int, obj: np.ndarray):
        T = self.T
        T[row] = T[row] / T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        obj -= obj[col] * T[row]
        self.basis[row] = col
        self.pivots += 1

    def _priced_objective(self, costs: np.ndarray) -> np.ndarray:
        # obj[j] holds the reduced cost z_j - c_j; rhs cell holds the value.
        obj = np.concatenate([-costs, [0.0]])
        for i, var in enumerate(self.basis):
            if costs[var] != 0.0:
                obj += costs[var] * self.T[i]
        return obj

    def _leaving_row(self, col: int, bland: bool) -> int | None:
        T = self.T
        pos = T[:, col] > PIVOT_TOL
        if not pos.any():
            return None
        rows = np.flatnonzero(pos)
        ratios = T[rows, -1] / T[rows, col]
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
            reduced = np.where(allowed, obj[:-1], np.inf)
            if bland:
                cols = np.flatnonzero(reduced < -PIVOT_TOL)
                if cols.size == 0:
                    return OPTIMAL
                col = int(cols[0])
            else:
                col = int(np.argmin(reduced))
                if reduced[col] >= -PIVOT_TOL:
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

    def solve_phase1(self) -> bool:
        """Drive artificials to zero. Returns False when infeasible."""
        if not self.art_cols:
            return True
        costs = np.zeros(self.width)
        costs[self.art_cols] = -1.0
        obj = self._priced_objective(costs)
        allowed = np.ones(self.width, dtype=bool)
        status = self._run(obj, allowed)
        assert status == OPTIMAL  # phase-1 objective is bounded by 0
        if obj[-1] < -FEAS_TOL:
            return False
        self._evict_artificials()
        return True

    def _evict_artificials(self):
        art = set(self.art_cols)
        drop_rows = []
        for i in range(self.m):
            if self.basis[i] not in art:
                continue
            candidates = np.flatnonzero(np.abs(self.T[i, : self.n + self.n_slack]) > PIVOT_TOL)
            if candidates.size:
                self._pivot(i, int(candidates[0]), np.zeros(self.width + 1))
            else:
                drop_rows.append(i)  # redundant constraint row
        if drop_rows:
            keep = np.setdiff1d(np.arange(self.m), drop_rows)
            self.T = self.T[keep]
            self.basis = self.basis[keep]
            self.m = len(keep)

    def solve_phase2(self, c: np.ndarray) -> str:
        costs = np.zeros(self.width)
        costs[: self.n] = c
        obj = self._priced_objective(costs)
        allowed = np.ones(self.width, dtype=bool)
        allowed[self.n + self.n_slack :] = False  # artificials never re-enter
        return self._run(obj, allowed)

    def _refine(self):
        # Re-derive basic values from the original, unflipped [A | I] and b;
        # pivoting drift in T[:, -1] never reaches the caller when the basis
        # solve succeeds, whatever the start. A dropped redundant row leaves
        # the basis short of m columns, and then the tableau values stand.
        try:
            exact = np.linalg.solve(self.AI[:, self.basis], self.b)
        except np.linalg.LinAlgError:
            return
        if np.isfinite(exact).all() and np.max(np.abs(exact - self.T[:, -1])) < 1e-4:
            self.T[:, -1] = exact

    def extract_x(self) -> np.ndarray:
        self._refine()
        x = np.zeros(self.n)
        for i, var in enumerate(self.basis):
            if var < self.n:
                x[var] = self.T[i, -1]
        return np.maximum(x, 0.0)


def _solve_raw(c: np.ndarray, A: np.ndarray, b: np.ndarray, start=None) -> Solution:
    m, n = A.shape
    tab = _Tableau(A, b, start)
    if not tab.solve_phase1():
        return Solution(status=INFEASIBLE, phase1_pivots=tab.pivots)
    phase1 = tab.pivots
    status = tab.solve_phase2(c)
    pivots = {"phase1_pivots": phase1, "phase2_pivots": tab.pivots - phase1}
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED, **pivots)
    x = tab.extract_x()
    residual = A @ x - b
    active = [int(i) for i in np.flatnonzero(np.abs(residual) <= FEAS_TOL)]
    active += [m + int(j) for j in np.flatnonzero(x <= FEAS_TOL)]
    return Solution(status=OPTIMAL, x=x, objective=float(c @ x), basis=tuple(active),
                    basic_columns=tuple(int(j) for j in tab.basis), **pivots)


def solve_lp(c, sys: ConstraintSystem, start=None) -> Solution:
    """Maximize ``c.x`` over {x >= 0 : A x <= b}.

    ``start`` is an initial basis, such as the ``basic_columns`` of a
    solve of a problem with the same shape; ``None`` starts from the slack
    basis. Returns a :class:`Solution` whose point, when optimal,
    re-verifies against the constraints at tolerance 1e-9.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.shape[1],):
        raise ValueError(f"c must have shape ({sys.shape[1]},), got {c.shape}")
    sol = _solve_raw(c, np.asarray(sys.A), np.asarray(sys.b), start)
    if sol.is_optimal:
        worst = float(np.max(sys.A @ sol.x - sys.b, initial=0.0))
        if worst > FEAS_TOL or sol.x.min(initial=0.0) < -FEAS_TOL:
            raise RuntimeError(f"simplex returned an infeasible point (violation {worst:.3e})")
    return sol


def phase1_feasible(sys: ConstraintSystem) -> np.ndarray | None:
    """Find any point of {x >= 0 : A x <= b}, or None when the set is empty."""
    tab = _Tableau(np.asarray(sys.A), np.asarray(sys.b))
    if not tab.solve_phase1():
        return None
    return tab.extract_x()


def enumerate_vertices(A: np.ndarray, b: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray:
    """All vertices of {x >= 0 : A x <= b}, one per row, deduplicated.

    Vertices are intersections of n active constraints drawn from the m
    inequality rows and the n sign bounds. Candidate bases are solved in
    batches of ``_VERTEX_CHUNK``; a basis whose LU factorization meets an
    exact zero pivot is singular and skipped. Rows come out in basis order,
    each vertex at its first basis. Intended for desk-scale systems; raises
    when the number of candidate bases is unreasonably large.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if math.comb(m + n, n) > _MAX_VERTEX_BASES:
        raise ValueError(f"vertex enumeration over C({m + n},{n}) bases is too large")
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    found = []
    bases = itertools.combinations(range(m + n), n)
    while chunk := list(itertools.islice(bases, _VERTEX_CHUNK)):
        idx = np.array(chunk)
        squares = rows[idx]
        sign, _ = np.linalg.slogdet(squares)
        idx, squares = idx[sign != 0], squares[sign != 0]
        X = np.linalg.solve(squares, rhs[idx][:, :, None])[:, :, 0]
        X = X[np.isfinite(X).all(axis=1)]
        found.append(X[~((X @ rows.T - rhs).max(axis=1) > tol)])
    X = np.concatenate(found)
    first = {}
    for i, key in enumerate(np.round(X, 9) + 0.0):
        first.setdefault(key.tobytes(), i)
    return X[list(first.values())]


def max_norm_point(sys: ConstraintSystem):
    """Largest-Euclidean-norm point of {x >= 0 : A x <= b}.

    The norm is convex, so the maximum over a bounded polyhedron sits at a
    vertex; this enumerates vertices and returns the max-norm one, breaking
    norm ties by lexicographically smallest coordinates. Returns
    ``(x_bar, norm)``, or the string status ``"Unbounded"`` when
    ``max 1.x`` is unbounded (the region then has no largest element).
    """
    if solve_lp(np.ones(sys.shape[1]), sys).status == UNBOUNDED:
        return UNBOUNDED  # the region lies in x >= 0, so this is the recession check
    vertices = enumerate_vertices(np.asarray(sys.A), np.asarray(sys.b))
    if vertices.shape[0] == 0:
        raise ValueError("region is empty; max_norm_point requires a feasible system")
    norms = np.linalg.norm(vertices, axis=1)
    best = norms.max()
    candidates = vertices[norms >= best - FEAS_TOL]
    order = np.lexsort(candidates.T[::-1])  # lexicographic by x_0, then x_1, ...
    x_bar = candidates[order[0]]
    return x_bar, float(np.linalg.norm(x_bar))
