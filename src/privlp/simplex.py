"""Dense two-phase primal simplex for small LPs, plus vertex utilities.

Solves  maximize c.x  s.t.  A x <= b, x >= 0,  where some rows of a
:class:`ConstraintSystem` may be equalities.  Pivoting is fully
deterministic: steepest reduced cost enters (ties to the lowest column
index), the leaving row wins a lexicographic ratio test, and a stall
detector drops to Bland's rule outright if degeneracy ever stops progress.
Scaling c by a positive constant leaves every pivot decision unchanged.

``solve_lp`` starts from the slack basis. :func:`solve_block` is the one
warm entry: it solves a block of matrices of one system from a
:class:`WarmStart`, such as the final ``basic_columns`` of a baseline
solve; their start tableaus come as one stack (see ``warmstart``), and a
system whose start is already feasible and optimal finishes in the stack,
with no pivot. Rows whose start value is negative are sign-flipped and get
an artificial, so phase 1 runs over those rows only, and a start that is
still feasible goes straight to phase 2. An equality row keeps one row of the tableau; its own
unit column is an artificial rather than a slack, so phase 1 drives it out
of the basis and it never enters again, except that a redundant equality
row keeps an artificial basic at 0, so the basis stays square. The
returned vertex is re-derived from the original data through its final
basis matrix, so tableau round-off never reaches the caller, whatever the
start. Built for desk-scale instances (tens of rows and columns); dense,
no sparsity.

``enumerate_vertices`` lists the vertices of the feasible region by walking
its graph of feasible bases from the vertex phase 1 ends on, so its work
follows the number of vertices, not the C(m+n, n) candidate bases. It accepts
a basis by the same per-basis solve and filter as a scan over every
candidate, and sorts the accepted bases into the scan's order, so on a
bounded region the output is the scan's to the bit. The walk stops with a
``ValueError`` as soon as it meets more than ``_MAX_VERTEX_BASES`` bases,
and returns None at the first ray it meets. Both vertex utilities read
every row as an inequality.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .problem import FEAS_TOL, ConstraintSystem
from .warmstart import PIVOT_TOL, WarmStart, _basis_matrix, _slack_tableau, _stacked_solve

_MAX_PIVOTS = 200_000
_MAX_VERTEX_BASES = 500_000  # bases one vertex enumeration may meet
_VERTEX_CHUNK = 256

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class Solution:
    """Outcome of an LP solve.

    ``x`` and ``objective`` are populated only when ``status == "Optimal"``.
    ``basis`` lists the active constraint indices at the returned point:
    ``0..m-1`` for rows of A (an equality row is always one), ``m + j`` for
    the bound ``x_j >= 0``.
    ``basic_columns`` is the final simplex basis, one column index into
    ``[x | slacks]`` per row; a :class:`WarmStart` built on it starts
    re-solves of problems that differ only in their data.
    ``phase1_pivots`` and ``phase2_pivots`` count the pivots of each phase,
    and ``start_path`` names the start that ran: ``"slack"``, ``"factored"``
    or ``"updated"``.
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


_STALL_LIMIT = 200


def _artificial_columns(n: int, m: int, equality: np.ndarray | None) -> np.ndarray:
    """Which columns of ``[x | one per row]`` are artificial: the unit columns of equality rows."""
    artificial = np.zeros(n + m, dtype=bool)
    if equality is not None:
        artificial[n:] = equality
    return artificial


def _priced_objective(costs: np.ndarray, basis: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Reduced costs ``z_j - c_j`` of tableau ``T`` in ``basis``, and its value in the last cell.

    ``T`` may be a stack of tableaus in one basis: each gets the bits it
    gets on its own, as the rows are added in the same order.
    """
    obj = np.zeros(T.shape[:-2] + T.shape[-1:])
    obj[..., :-1] = -costs
    basic_costs = costs[basis]
    for i in np.flatnonzero(basic_costs).tolist():
        obj += basic_costs[i] * T[..., i, :]
    return obj


def _reduced_costs(obj: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Reduced costs of the columns allowed to enter, +inf at the rest; ``obj`` may be a stack."""
    return np.where(allowed, obj[..., :-1], np.inf)


def _optimal(least):
    """Whether a tableau whose least reduced cost is ``least`` is optimal (elementwise)."""
    return least >= -PIVOT_TOL


def _refined(B: np.ndarray, b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The stack ``rhs`` of basic values, re-derived from the original data as ``B^-1 b``.

    Pivoting drift in a tableau's values never reaches the caller: the
    exact values replace them where the solve is finite and within 1e-4 of
    them, and otherwise the tableau values stand.
    """
    exact = _stacked_solve(B, b[:, None])[..., 0]
    accept = np.isfinite(exact).all(axis=-1) & (np.abs(exact - rhs).max(axis=-1) < 1e-4)
    return np.where(accept[:, None], exact, rhs)


def _basic_x(rhs: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    """``x`` at basic values ``rhs`` (may be a stack): 0 off the basis, and never below 0."""
    x = np.zeros(rhs.shape[:-1] + (n,))
    basic = basis < n
    x[..., basis[basic]] = rhs[..., basic]
    return np.maximum(x, 0.0, out=x)


class _Tableau:
    """Simplex tableau over columns [x | one per row | artificials | rhs].

    ``start`` is None for the slack basis, whose tableau is ``[A | I | b]``,
    or a warm start ``(T, basis, start_path)``, one system of
    :meth:`WarmStart.tableaus`; ``start_path`` is ``"slack"``,
    ``"factored"`` or ``"updated"``. A row whose start value is negative is
    sign-flipped and gets an artificial, so phase 1 runs over those rows
    only. ``equality`` marks the equality rows: the unit column of such a
    row is an artificial, not a slack, so ``artificial`` marks it with the
    appended columns.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, equality: np.ndarray | None = None,
                 start: tuple | None = None):
        m, n = A.shape
        self.m, self.n = m, n
        self.A, self.b = A, b  # original data, for extraction
        if start is None:
            start = _slack_tableau(A, b), np.arange(n, n + m), "slack"
        body, self.basis, self.start_path = start
        self.T, self.width = body, n + m
        self.artificial = _artificial_columns(n, m, equality)
        self.pivots = 0
        flip = body[:, -1] < 0
        if flip.any():
            body[flip] *= -1.0
            art_rows = np.flatnonzero(flip)
            art = np.zeros((m, art_rows.size))
            art[art_rows, np.arange(art_rows.size)] = 1.0
            self.basis[art_rows] = np.arange(n + m, n + m + art_rows.size)
            self.T = np.hstack([body[:, :-1], art, body[:, -1:]])
            self.width += art_rows.size
            self.artificial = np.concatenate([self.artificial, np.ones(art_rows.size, dtype=bool)])

    def _pivot(self, row: int, col: int, obj: np.ndarray):
        T = self.T
        T[row] = T[row] / T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        obj -= obj[col] * T[row]
        self.basis[row] = col
        self.pivots += 1

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
            reduced = _reduced_costs(obj, allowed)
            if bland:
                cols = np.flatnonzero(reduced < -PIVOT_TOL)
                if cols.size == 0:
                    return OPTIMAL
                col = int(cols[0])
            else:
                col = int(np.argmin(reduced))
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

    def solve_phase1(self) -> bool:
        """Drive artificials to zero. Returns False when infeasible.

        An appended artificial may re-enter in phase 1; an equality row's
        unit column never enters.
        """
        if not self.artificial[self.basis].any():
            return True
        obj = _priced_objective(np.where(self.artificial, -1.0, 0.0), self.basis, self.T)
        allowed = np.ones(self.width, dtype=bool)
        allowed[: self.n + self.m] = ~self.artificial[: self.n + self.m]
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
                self._pivot(i, int(candidates[0]), np.zeros(self.width + 1))
            elif self.basis[i] >= width:  # an appended artificial: swap in a unit column
                self._pivot(i, self.n + int(np.argmax(entries[self.n:])), np.zeros(self.width + 1))

    def solve_phase2(self, c: np.ndarray) -> str:
        costs = np.zeros(self.width)
        costs[: self.n] = c
        obj = _priced_objective(costs, self.basis, self.T)
        return self._run(obj, ~self.artificial)  # artificials never re-enter

    def extract_x(self) -> np.ndarray:
        B = _basis_matrix(self.A, self.basis)
        return _basic_x(_refined(B[None], self.b, self.T[None, :, -1])[0], self.basis, self.n)


def _objective(c, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"c must have shape ({n},), got {c.shape}")
    return c


def _vertex_solution(c: np.ndarray, system: ConstraintSystem, x: np.ndarray, basis: np.ndarray,
                     **stats) -> Solution:
    """The optimal :class:`Solution` at ``x``, once ``x`` re-verifies against ``system``."""
    residual = system.residuals(x)
    worst = float(np.max(residual, initial=0.0))
    if worst > FEAS_TOL:
        raise RuntimeError(f"simplex returned an infeasible point (violation {worst:.3e})")
    active = np.flatnonzero(np.abs(residual) <= FEAS_TOL).tolist()
    active += (system.shape[0] + np.flatnonzero(x <= FEAS_TOL)).tolist()
    return Solution(status=OPTIMAL, x=x, objective=float(c @ x), basis=tuple(active),
                    basic_columns=tuple(basis.tolist()), **stats)


def _solved(c: np.ndarray, system: ConstraintSystem, tab: _Tableau) -> Solution:
    """Run both phases on ``tab``, a tableau of ``system``, and report."""
    if not tab.solve_phase1():
        return Solution(status=INFEASIBLE, phase1_pivots=tab.pivots, start_path=tab.start_path)
    phase1 = tab.pivots
    status = tab.solve_phase2(c)
    stats = {"phase1_pivots": phase1, "phase2_pivots": tab.pivots - phase1,
             "start_path": tab.start_path}
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED, **stats)
    return _vertex_solution(c, system, tab.extract_x(), tab.basis, **stats)


def solve_lp(c, sys: ConstraintSystem) -> Solution:
    """Maximize ``c.x`` over {x >= 0 : A x <= b}, with equality on ``sys.equality`` rows.

    Starts from the slack basis. Returns a :class:`Solution` whose point,
    when optimal, re-verifies against the constraints at tolerance
    ``FEAS_TOL`` (:meth:`ConstraintSystem.residuals`).
    """
    c = _objective(c, sys.shape[1])
    return _solved(c, sys, _Tableau(np.asarray(sys.A), np.asarray(sys.b), sys.equality))


def solve_block(c, A_block: np.ndarray, start: WarmStart) -> list[Solution]:
    """Maximize ``c.x`` over ``start.system.tightened(A)`` for each ``A`` of the stack ``A_block``.

    ``A_block`` has shape ``(k, m, n)``, each matrix a privatized ``A`` of
    ``start.system``, whose ``b`` and equality rows every solve shares. The
    start tableaus are built as one stack (:meth:`WarmStart.tableaus`). A
    system whose start is feasible and optimal finishes in the stack, with
    no pivot: one stacked refine solve, then its own check of its point
    against its rows. Any other pivots from its slice of the stack, and one
    whose start basis is singular from the slack basis. Each
    :class:`Solution` equals the block-of-one solve's field for field when
    the systems of the block change the same rows, as privatized matrices
    of one system do.
    """
    system, b = start.system, start.b
    m, n = system.shape
    c = _objective(c, n)
    T, B, paths = start.tableaus(A_block)
    basis = start.basis
    warm = paths != "slack"
    finished = np.zeros(warm.shape, dtype=bool)
    artificial = _artificial_columns(n, m, system.equality)
    if warm.any() and not artificial[basis].any():
        costs = np.zeros(n + m)
        costs[:n] = c
        least = _reduced_costs(_priced_objective(costs, basis, T), ~artificial).min(axis=-1)
        finished = warm & (T[:, :, -1] >= 0).all(axis=-1) & _optimal(least)
    X = iter(_basic_x(_refined(B[finished], b, T[finished, :, -1]), basis, n)
             if finished.any() else ())
    solutions = []
    for t, A in enumerate(A_block):
        tightened = system.tightened(A)
        if finished[t]:
            solutions.append(_vertex_solution(c, tightened, next(X), basis, start_path=paths[t]))
        else:
            started = (T[t], basis.copy(), paths[t]) if warm[t] else None
            solutions.append(_solved(c, tightened, _Tableau(A, b, system.equality, started)))
    return solutions


def phase1_feasible(sys: ConstraintSystem) -> np.ndarray | None:
    """Find any point of {x >= 0 : A x <= b} (``=`` on equality rows), or None when it is empty."""
    tab = _Tableau(np.asarray(sys.A), np.asarray(sys.b), sys.equality)
    if not tab.solve_phase1():
        return None
    return tab.extract_x()


def _walk_bases(rows: np.ndarray, rhs: np.ndarray, start: tuple[int, ...],
                tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The accepted bases of ``rows x <= rhs`` met by walking from ``start``, and their vertices.

    Bases are expanded ``_VERTEX_CHUNK`` at a time. A basis is accepted as
    the full scan accepts it: no exact zero pivot in its LU factorization
    (``slogdet``), a finite per-matrix ``solve`` and a vertex feasible at
    ``tol``. Only accepted bases are expanded. Leaving ``S[j]`` moves along
    column ``j`` of ``-inv(rows[S])``, and one ratio test over all n
    directions gives each bounded edge's far basis. At a degenerate vertex
    (more than n constraints within ``tol``), every n-subset of its tight
    constraints joins the walk: then every basis of the vertex is met, and
    each edge leaving it is the direction of one of them. An edge with no
    finite ratio is a ray of the region: the walk returns None at the first
    one it meets. Raises ``ValueError`` as soon as more than
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
        keep = ~(excess.max(axis=1) > tol)
        frontier, squares, X, slack = frontier[keep], squares[keep], X[keep], -excess[keep]
        accepted.append(frontier)
        vertices.append(X)
        inv = np.linalg.inv(squares)
        keep = np.isfinite(inv).all(axis=(1, 2))
        frontier, inv, slack = frontier[keep], inv[keep], slack[keep]
        tight = slack <= tol
        rate = -(rows @ inv)  # rate[a, i, j]: how fast slack i falls along edge j of basis a
        # a basis' own rows stay tight along its edges; round-off there must not block at 0
        rate[np.arange(frontier.shape[0])[:, None], frontier] = 0.0
        ratio = np.divide(np.where(tight, 0.0, slack)[:, :, None], rate,
                          out=np.full(rate.shape, np.inf), where=rate > 0)
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


def enumerate_vertices(A: np.ndarray, b: np.ndarray, tol: float = FEAS_TOL) -> np.ndarray | None:
    """All vertices of a bounded {x >= 0 : A x <= b}, one per row, deduplicated.

    Vertices are intersections of n active constraints drawn from the m
    inequality rows and the n sign bounds. Rather than solve all C(m+n, n)
    candidate bases, this walks the graph of feasible bases from the vertex
    phase 1 ends on (:func:`_walk_bases`; Avis & Fukuda 1992), so the work
    follows the number of vertices. The walk accepts a basis by the full
    scan's own test: a basis whose LU factorization meets an exact zero
    pivot is singular and skipped, the rest are solved per matrix and kept
    when finite and feasible at ``tol``. The walk meets every basis the scan
    accepts; sorted into the scan's lexicographic basis order, each vertex
    is kept at its first basis, so the output is the scan's, byte for byte.
    Raises ``ValueError`` when the walk meets more than ``_MAX_VERTEX_BASES``
    bases; returns a ``(0, n)`` array for an empty region, and None for an
    unbounded one, as soon as the walk meets a ray.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    tab = _Tableau(A, b)
    if not tab.solve_phase1():
        return np.zeros((0, n))
    # phase 1's vertex: nonbasic x_j is active bound m + j, nonbasic slack i is row i
    # (a mask, not np.setdiff1d, which imports numpy.ma: about 1 MB of memory)
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[tab.basis] = False
    nonbasic = np.flatnonzero(nonbasic)
    start = tuple(np.sort(np.where(nonbasic < n, m + nonbasic, nonbasic - n)).tolist())
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    walked = _walk_bases(rows, rhs, start, tol)
    if walked is None:
        return None
    bases, X = walked
    X = X[np.lexsort(bases.T[::-1])]  # the scan's order: by S[0], then S[1], ...
    first = {}
    for i, key in enumerate(np.round(X, 9) + 0.0):
        first.setdefault(key.tobytes(), i)
    return X[list(first.values())]


def max_norm_point(sys: ConstraintSystem):
    """Largest-Euclidean-norm point of {x >= 0 : A x <= b}.

    The norm is convex, so the maximum over a bounded polyhedron sits at a
    vertex; this enumerates vertices and returns the max-norm one, breaking
    norm ties by lexicographically smallest coordinates. The vertices come
    from :func:`enumerate_vertices`' walk over feasible bases, equal to the
    bit to a scan of every basis, so ``x_bar`` is the scan's; it raises
    ``ValueError`` when the walk meets more than ``_MAX_VERTEX_BASES``
    bases. Returns ``(x_bar, norm)``, or the string status ``"Unbounded"``
    when the walk meets a ray (the region then has no largest element).
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
    norms = np.linalg.norm(vertices, axis=1)
    best = norms.max()
    candidates = vertices[norms >= best - FEAS_TOL]
    order = np.lexsort(candidates.T[::-1])  # lexicographic by x_0, then x_1, ...
    x_bar = candidates[order[0]]
    return x_bar, float(np.linalg.norm(x_bar))
