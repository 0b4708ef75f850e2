"""Independent oracles the tests check the package against.

Everything here recomputes expected values by a different route than the
implementation under test: high-precision arithmetic for closed forms,
quadrature for distribution facts, brute-force enumeration and sampling
for polyhedral quantities. Nothing imports the package's computational
paths except where a test explicitly compares the two.
"""
from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.optimize import minimize


def support_width_hp(k, eps, delta, n0) -> float:
    """Support half-width evaluated at 50 decimal digits."""
    with mp.workdps(50):
        value = (mp.mpf(k) / mp.mpf(eps)) * mp.log(
            n0 * (mp.e ** mp.mpf(eps) - 1) / mp.mpf(delta) + 1)
        return float(value)


def _quad_kinked(f, lo, hi):
    # split at the |z| kink so quad reaches full precision
    if lo < 0.0 < hi:
        a, _ = integrate.quad(f, lo, 0.0, limit=200)
        b, _ = integrate.quad(f, 0.0, hi, limit=200)
        return a + b
    value, _ = integrate.quad(f, lo, hi, limit=200)
    return value


def trunc_laplace_moment(sigma: float, s: float, power: int = 2) -> float:
    """Moment of the truncated Laplace density by numerical quadrature."""
    dens = lambda z: math.exp(-abs(z) / sigma)
    mass = _quad_kinked(dens, -s, s)
    raw = _quad_kinked(lambda z: z ** power * dens(z), -s, s)
    return raw / mass


def trunc_laplace_cdf(x: float, sigma: float, s: float) -> float:
    """P(z <= x) for the truncated Laplace density, by quadrature."""
    if x <= -s:
        return 0.0
    dens = lambda z: math.exp(-abs(z) / sigma)
    mass = _quad_kinked(dens, -s, s)
    head = _quad_kinked(dens, -s, min(x, s))
    return head / mass


def trunc_laplace_cdf_hp(x: float, sigma: float, s: float) -> float:
    """P(z <= x) for the truncated Laplace density on [-s, s], in closed form at 50 digits.

    ``x`` lies in [-s, s]. The normalizing mass is ``2 sigma (1 - e^{-s/sigma})``.
    """
    with mp.workdps(50):
        x, sigma, s = mp.mpf(x), mp.mpf(sigma), mp.mpf(s)
        tail = mp.exp(-s / sigma)
        head = mp.exp(x / sigma) - tail if x <= 0 else 2 - tail - mp.exp(-x / sigma)
        return float(head / (2 * (1 - tail)))


# ---------------------------------------------------------------------------
# polyhedron oracles


def region_vertices(A, b, tol=1e-9) -> np.ndarray:
    """Vertices of {x >= 0 : A x <= b} by rank-checked basis enumeration."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    vertices = []
    seen = set()
    for comb in itertools.combinations(range(m + n), n):
        square = rows[list(comb)]
        if np.linalg.matrix_rank(square) < n:
            continue
        x, *_ = np.linalg.lstsq(square, rhs[list(comb)], rcond=None)
        if np.linalg.norm(square @ x - rhs[list(comb)]) > 1e-8:
            continue
        if np.max(rows @ x - rhs) > tol:
            continue
        key = tuple(np.round(x, 9))
        if key not in seen:
            seen.add(key)
            vertices.append(x)
    return np.array(vertices) if vertices else np.empty((0, n))


def vertex_scan(A, b, tol=1e-9) -> np.ndarray:
    """``simplex.enumerate_vertices`` as a scan over all C(m+n, n) candidate bases.

    The scan the walk replaced, kept verbatim: bases are solved in
    lexicographic order in batches of 256; a basis whose LU factorization
    meets an exact zero pivot is singular and skipped; each vertex is kept
    at its first basis. The walk must return these bytes.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    found = []
    bases = itertools.combinations(range(m + n), n)
    while chunk := list(itertools.islice(bases, 256)):
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


def lp_oracle(c, A, b):
    """Brute-force LP verdict: ('Infeasible' | 'Unbounded' | 'Optimal', objective).

    Feasibility and the optimum come from vertex enumeration (the region
    lies in the nonnegative orthant, so it is pointed and any finite
    optimum sits on a vertex). Unboundedness is certified by a recession
    direction with positive objective, found on the capped recession cone.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    vertices = region_vertices(A, b)
    if vertices.shape[0] == 0:
        return "Infeasible", None
    n = A.shape[1]
    cone_A = np.vstack([A, np.ones((1, n))])
    cone_b = np.concatenate([np.zeros(A.shape[0]), [1.0]])
    for d in region_vertices(cone_A, cone_b):
        if d.sum() > 1e-6 and c @ (d / d.sum()) > 1e-9:
            return "Unbounded", None
    return "Optimal", float((vertices @ c).max())


def max_norm_grid(A, b, box_hi, step=1e-3):
    """Largest norm over {x >= 0 : A x <= b} by dense grid search.

    Grids the first n-1 coordinates at ``step`` and closes the last
    coordinate in closed form (its feasible interval given the others is
    explicit), so the search error comes from n-1 gridded dimensions only.
    Supports n in {2, 3}.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    assert n in (2, 3)
    axes = [np.arange(0.0, hi + step, step) for hi in box_hi[:-1]]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    best = 0.0
    chunk = 2_000_000
    for lo in range(0, pts.shape[0], chunk):
        P = pts[lo:lo + chunk]
        partial = P @ A[:, :-1].T
        hi_bound = np.full(P.shape[0], box_hi[-1])
        lo_bound = np.zeros(P.shape[0])
        last = A[:, -1]
        for i in range(m):
            slack = b[i] - partial[:, i]
            if last[i] > 1e-12:
                hi_bound = np.minimum(hi_bound, slack / last[i])
            elif last[i] < -1e-12:
                lo_bound = np.maximum(lo_bound, slack / last[i])
            else:
                hi_bound = np.where(slack < 0, -1.0, hi_bound)  # infeasible point
        ok = hi_bound >= lo_bound - 1e-12
        if not ok.any():
            continue
        norms_sq = (P[ok] ** 2).sum(axis=1) + np.maximum(hi_bound[ok], lo_bound[ok]) ** 2
        best = max(best, float(np.sqrt(norms_sq.max())))
    return best


# ---------------------------------------------------------------------------
# Hoffman-constant oracles


def _refine_nonneg_min(M: np.ndarray, v0: np.ndarray) -> float:
    """Polish a candidate minimizer of ||M^T v|| over the nonnegative sphere.

    Parameterizes v = w*w / ||w*w|| so iterates stay in the orthant, and
    minimizes the squared norm (smooth at a zero minimum).
    """
    gram = M @ M.T

    def objective(w):
        v = w * w
        scale = np.linalg.norm(v)
        if scale == 0.0:
            return float("inf")
        v = v / scale
        return float(v @ gram @ v)

    result = minimize(objective, np.sqrt(np.abs(v0)), method="Nelder-Mead",
                      options={"xatol": 1e-13, "fatol": 1e-18, "maxiter": 20_000,
                               "maxfev": 20_000})
    return math.sqrt(max(min(result.fun, objective(np.sqrt(np.abs(v0)))), 0.0))


def _unit_rows(bank: np.ndarray) -> np.ndarray:
    return bank / np.linalg.norm(bank, axis=1, keepdims=True)


def _sampled_min(M: np.ndarray, V: np.ndarray, refine: bool = True) -> float:
    """min ||M^T v|| over the unit directions V (one per row), then polished."""
    vals = np.linalg.norm(V @ M, axis=1)
    i = int(np.argmin(vals))
    best = float(vals[i])
    if refine:
        best = min(best, _refine_nonneg_min(M, V[i]))
    return best


def sphere_inner_min(M, n_dirs=1_000_000, seed=0, refine=True) -> float:
    """min ||M^T v|| over nonnegative unit v, by dense sampling + polish."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    bank = np.abs(np.random.default_rng(seed).standard_normal((n_dirs, M.shape[0])))
    return _sampled_min(M, _unit_rows(bank), refine)


def hoffman_bruteforce(A, n_dirs=1_000_000, seed=0, admit_tol=1e-6) -> float:
    """Definition-level Hoffman constant: subset enumeration + sampling.

    ``admit_tol`` is the oracle's numerical resolution: sampling plus local
    polish cannot certify an inner minimum below ~1e-8, so subsets whose
    polished minimum lands under the tolerance are treated as degenerate
    (not admissible). Random instances used in tests keep a wide margin on
    both sides of it. Every subset of one size is sampled over the same
    directions: the first ``size`` columns of one bank, normalized once.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m = A.shape[0]
    bank = np.abs(np.random.default_rng(seed).standard_normal((n_dirs, m)))
    best = None
    for size in range(1, m + 1):
        V = _unit_rows(bank[:, :size])
        for subset in itertools.combinations(range(m), size):
            value = _sampled_min(A[list(subset)], V)
            if value > admit_tol:
                best = value if best is None else min(best, value)
    if best is None:
        raise ValueError("no admissible subset")
    return 1.0 / best


def _cone_meets_orthant(E: np.ndarray) -> bool:
    """Does span(columns of E) hold a nonzero vector y >= -1e-12, by LP?"""
    from scipy.optimize import linprog
    r, d = E.shape
    result = linprog(np.zeros(d), A_ub=-E, b_ub=np.full(r, 1e-12),
                     A_eq=E.sum(axis=0)[None, :], b_eq=[1.0], bounds=[(None, None)] * d,
                     method="highs")
    return result.status == 0


def orthant_t_lp(vectors: np.ndarray) -> bool:
    """Does span(columns) hold a nonzero nonnegative vector: max t s.t. V w >= t, sum(V w) = 1.

    The package's earlier decision, kept as the reference for its phase-1
    test: ``w`` and ``t`` are split into nonnegative parts, the
    normalization is written as two opposed rows, and the span meets the
    orthant when the package's simplex reaches ``t >= -1e-9``.
    """
    from privlp import ConstraintSystem
    from privlp.simplex import solve_lp
    r, d = vectors.shape
    ones_v = vectors.sum(axis=0)
    rows = np.vstack([
        np.hstack([-vectors, vectors, np.ones((r, 1)), -np.ones((r, 1))]),
        np.hstack([ones_v, -ones_v, 0.0, 0.0]),
        np.hstack([-ones_v, ones_v, 0.0, 0.0]),
    ])
    rhs = np.concatenate([np.zeros(r), [1.0, -1.0]])
    cost = np.zeros(2 * d + 2)
    cost[-2], cost[-1] = 1.0, -1.0
    public = ConstraintSystem(A=rows, b=rhs, zero_mask=np.ones(rows.shape, dtype=bool), sup_A=rows)
    sol = solve_lp(cost, public)
    return sol.is_optimal and sol.objective >= -1e-9


def hoffman_all_supports(A, admit_tol=1e-9) -> float:
    """Hoffman constant by face enumeration over every row support.

    For each subset J, min ||A_J^T v|| over nonnegative unit v is the least
    candidate over the supports S of J; a support's candidate is its Gram
    block's bottom eigenvalue (square-rooted) when that eigenspace meets the
    nonnegative orthant, decided here by scipy's LP. No support size is
    skipped, so this checks any enumeration that prunes supports.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m = A.shape[0]
    f = np.full(1 << m, np.inf)
    for mask in range(1, 1 << m):
        S = [i for i in range(m) if mask >> i & 1]
        eigvals, eigvecs = np.linalg.eigh(A[S] @ A[S].T)
        lo, scale = eigvals[0], max(1.0, abs(eigvals[-1]))
        if _cone_meets_orthant(eigvecs[:, eigvals <= lo + 1e-10 * scale]):
            f[mask] = 0.0 if lo <= 1e-13 * scale else math.sqrt(lo)
    for mask in range(1, 1 << m):
        for i in range(m):
            if mask >> i & 1:
                f[mask] = min(f[mask], f[mask ^ (1 << i)])
    admitted = f[1:][f[1:] > admit_tol]
    if admitted.size == 0:
        raise ValueError("no admissible subset")
    return float(1.0 / admitted.min())


def subset_minima_table(A: np.ndarray) -> np.ndarray:
    """f[mask] = inner_cone_min over the rows selected by mask, all masks.

    The package's earlier algorithm, kept verbatim as the bit-for-bit
    reference for the support walk that replaced it. Only supports of at
    most rank(A) + 1 rows are evaluated (by the package's own
    ``_support_candidates``); a subset-minimum transform over a 2^m table
    then shares each support's candidate with every subset containing it.
    """
    from privlp.accuracy import _SUPPORT_CHUNK, _support_candidates
    m = A.shape[0]
    gram = A @ A.T
    f = np.full(1 << m, np.inf)
    f[1 << np.arange(m)] = np.sqrt(np.maximum(np.diag(gram), 0.0))
    for size in range(2, min(m, np.linalg.matrix_rank(A) + 1) + 1):
        supports = itertools.combinations(range(m), size)
        while chunk := list(itertools.islice(supports, _SUPPORT_CHUNK)):
            idx = np.array(chunk)
            f[(1 << idx).sum(axis=1)] = _support_candidates(gram, idx)
    for bit in range(m):
        pairs = f.reshape(-1, 2, 1 << bit)
        np.minimum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return f


def hoffman_table(A, admit_tol=1e-9) -> float:
    """Hoffman constant from :func:`subset_minima_table`: 1 / the least admitted entry."""
    f = subset_minima_table(np.atleast_2d(np.asarray(A, dtype=float)))[1:]
    admitted = f > admit_tol
    if not admitted.any():
        raise ValueError("no admissible subset")
    return float(1.0 / f[admitted].min())
