"""Start tableaus for the simplex: the slack basis, and a factored basis updated per block.

A warm start factors the baseline system's basis once, and hands the
simplex each system's tableau in that basis. Starts are built for a block
of systems that differ from the baseline only in ``A``, as one ``(k, m, n +
m + 1)`` stack of tableaus; a block of one is a single start. Every system
of a block is an update of the baseline tableau by the Woodbury identity
over the union of the rows that changed in any of them, however many
those are; a system whose updated basis is singular starts from the slack
basis. Each system's products and solves run as they would on that system
alone, so its tableau depends on the rest of its block only through which
rows changed.
"""
from __future__ import annotations

import functools

import numpy as np

from .problem import FEAS_TOL, ConstraintSystem

# Entries below this are zero to the simplex, and a start basis whose 1-norm
# condition number reaches its inverse is singular.
PIVOT_TOL = 1e-10


def _basis_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Columns ``basis[t]`` of ``[A[t] | I]`` for each matrix of the stack ``A``."""
    k, m, n = A.shape
    rows = n * np.arange(k * m).reshape(k, m, 1)  # where each row of A starts
    B = A.reshape(-1).take(rows + np.minimum(basis, n - 1)[:, None, :])
    t, j = np.nonzero(basis >= n)
    B[t, :, j] = 0.0
    B[t, basis[t, j] - n, j] = 1.0
    return B


def _slack_tableau(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A | I | b]``, the tableau of the slack basis; ``A`` may be a stack."""
    m, n = A.shape[-2:]
    T = np.zeros(A.shape[:-1] + (n + m + 1,))
    T[..., :n] = A
    T[..., np.arange(m), np.arange(n, n + m)] = 1.0
    T[..., -1] = b
    return T


def _checked(A: np.ndarray, basis: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Per system of the stack ``A``, whether ``T = B^-1 [A | I | b]`` is usable: ``B`` is not singular.

    ``B`` is the columns ``basis`` of ``[A | I]``. LU reports only an exactly
    zero pivot, so besides finiteness the 1-norm condition number
    ``||B||_1 ||B^-1||_1`` must stay under ``1 / PIVOT_TOL``. ``||B||_1`` is
    the largest absolute column sum of ``A`` at the basic x columns, or 1
    for a slack column; ``B^-1`` is the slack block of ``T``. Each column
    sum adds its rows one after another, as a sum down ``B`` does; a sum
    over the gathered columns may add them pairwise, in other bits.
    """
    m, n = A.shape[-2:]
    rows = np.abs(np.moveaxis(A, -2, 0)[..., basis[basis < n]])
    norm = functools.reduce(np.add, rows).max(axis=-1, initial=float((basis >= n).any()))
    condition = norm * np.abs(T[..., n:n + m]).sum(axis=-2).max(axis=-1)
    return np.isfinite(T).all(axis=(-2, -1)) & (condition < 1 / PIVOT_TOL)


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
    when the basis is singular for the baseline.
    """

    def __init__(self, system: ConstraintSystem, basic_columns):
        self.system = system
        self.A, self.b = np.asarray(system.A), np.asarray(system.b)
        self.basis = np.array(basic_columns, dtype=int)
        body = _slack_tableau(self.A, self.b)[None]
        T0 = _stacked_solve(body[..., :-1][..., self.basis], body)[0]
        self.T0 = T0 if _checked(self.A, self.basis, T0) else None

    def tableaus(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(T, basis, paths)`` for the stack ``A`` of shape ``(k, m, n)``, all new arrays.

        ``T[t]`` is the tableau in ``basis[t]``, and ``paths[t]`` names how
        it was built: ``"updated"`` for ``B[t]^-1 [A[t] | I | b]`` in the
        start's basis, with ``B[t]`` its basis columns of ``[A[t] | I]``,
        and ``"slack"`` for ``[A[t] | I | b]`` in the slack basis where
        ``B[t]`` is singular. In the start's basis, the basis columns are
        exactly the identity, and a value in ``[-FEAS_TOL, 0)`` is round-off
        and is set to 0.
        """
        if A.shape[1:] != self.A.shape:
            raise ValueError(f"start was built for a system of shape {self.A.shape}, "
                             f"not {A.shape[1:]}")
        k, m, n = A.shape
        basis = np.tile(np.arange(n, n + m), (k, 1))
        if self.T0 is None:
            return _slack_tableau(A, self.b), basis, np.full(k, "slack", dtype=object)
        T = self._updated(A, np.flatnonzero((A != self.A).any(axis=(0, 2))))
        usable = _checked(A, self.basis, T)
        T[:, :, self.basis] = np.eye(m)
        rhs = T[:, :, -1]
        rhs[(rhs < 0) & (rhs >= -FEAS_TOL)] = 0.0
        basis[usable] = self.basis
        if not usable.all():
            T[~usable] = _slack_tableau(A[~usable], self.b)
        return T, basis, np.where(usable, "updated", "slack").astype(object)

    def _updated(self, A: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``T0`` updated to each system of ``A`` by the Woodbury identity.

        With ``R`` the changed rows, ``D = A[R] - A0[R]``, ``D_B`` its basis
        columns (0 at slacks) and ``U = T0[:, n + R]`` (columns ``R`` of
        ``B0^-1``): ``T = T0 - U C^-1 (D_B T0 - [D | 0 | 0])``, with
        ``C = I + D_B U``. A system whose ``C`` is singular gets a NaN
        ``T``. ``np.matmul`` runs each system's products as ``np.dot`` runs
        them on one system, to the bit.
        """
        k, m, n = A.shape
        D = A[:, rows] - self.A[rows]
        x = np.flatnonzero(self.basis < n)
        D_B = np.zeros((k, rows.size, m))
        D_B[:, :, x] = D[:, :, self.basis[x]]
        U = self.T0[:, n + rows]
        W = np.matmul(D_B, self.T0)
        W[:, :, :n] -= D
        T = np.matmul(U, _stacked_solve(np.eye(rows.size) + np.matmul(D_B, U), W))
        return np.subtract(self.T0, T, out=T)
