"""Start tableaus for the simplex: the slack basis, a factored basis, and its update.

A warm start hands the simplex its tableau together with the basis matrix
``B``, the basis columns of ``[A | I]``, which the simplex reuses to refine
the returned vertex while no pivot has changed the basis. A factored start
gathers ``B`` to factor it; an updated start copies the baseline's ``B0``
and overwrites only the changed rows, which gives the same bits as a fresh
gather.
"""
from __future__ import annotations

import numpy as np

from .problem import ConstraintSystem

# Entries below this are zero to the simplex, and a start basis whose 1-norm
# condition number reaches its inverse is singular.
PIVOT_TOL = 1e-10


def _basis_matrix(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Columns ``basis`` of ``[A | I]``, gathered without building ``[A | I]``."""
    n = A.shape[1]
    B = A.take(np.minimum(basis, n - 1), axis=1)
    slack = np.flatnonzero(basis >= n)
    B[:, slack] = 0.0
    B[basis[slack] - n, slack] = 1.0
    return B


def _slack_tableau(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A | I | b]``, the tableau of the slack basis."""
    m, n = A.shape
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[np.arange(m), np.arange(n, n + m)] = 1.0
    T[:, -1] = b
    return T


def _checked(B: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(T, B)`` for ``T = B^-1 [A | I | b]``, or None when ``B`` is singular to working precision.

    LU reports only an exactly zero pivot, so besides finiteness the 1-norm
    condition number ``||B||_1 ||B^-1||_1`` must stay under
    ``1 / PIVOT_TOL``; ``B^-1`` is the slack block of ``T``.
    """
    m = B.shape[0]
    n = T.shape[1] - m - 1
    condition = np.abs(B).sum(axis=0).max() * np.abs(T[:, n:n + m]).sum(axis=0).max()
    return (T, B) if np.isfinite(T).all() and condition < 1 / PIVOT_TOL else None


def _factor_start(A: np.ndarray, b: np.ndarray,
                  basis: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(B^-1 [A | I | b], B)`` by a full factorization of ``B``, or None when it is singular."""
    body = _slack_tableau(A, b)
    B = body[:, :-1][:, basis]  # the columns of [A | I]
    try:
        T = np.linalg.solve(B, body)
    except np.linalg.LinAlgError:  # singular, or not m columns
        return None
    return _checked(B, T)


class WarmStart:
    """A basis factored once, to start solves of systems that differ in data.

    Holds the baseline ``A`` and ``b``, the basis (m column indices into
    ``[x | slacks]``, such as a solve's ``basic_columns``), the baseline
    basis matrix ``B0`` and tableau ``T0 = B0^-1 [A | I | b]``; both are
    None when the basis is singular for the baseline.
    """

    def __init__(self, system: ConstraintSystem, basic_columns):
        self.A, self.b = np.asarray(system.A), np.asarray(system.b)
        self.basis = np.array(basic_columns, dtype=int)
        self.T0, self.B0 = _factor_start(self.A, self.b, self.basis) or (None, None)

    def tableau(self, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, str] | None:
        """``(B^-1 [A | I | b], B, path)``: new arrays, and ``"updated"`` or ``"factored"``.

        ``B`` is the basis matrix, the basis columns of ``[A | I]``. None
        when ``B`` is singular for ``A``.
        """
        if A.shape != self.A.shape:
            raise ValueError(f"start was built for a system of shape {self.A.shape}, "
                             f"not {A.shape}")
        started = None if self.T0 is None else self._updated(A, b)
        if started is not None:
            return (*started, "updated")
        started = _factor_start(A, b, self.basis)
        return None if started is None else (*started, "factored")

    def _updated(self, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """``(T, B)`` from ``(T0, B0)`` updated to ``A`` by the Woodbury identity, or None.

        With ``R`` the changed rows, ``D = A[R] - A0[R]``, ``D_B`` its basis
        columns (0 at slacks) and ``U = T0[:, n + R]`` (columns ``R`` of
        ``B0^-1``): ``T = T0 - U C^-1 (D_B T0 - [D | 0 | 0])``, with
        ``C = I + D_B U``. ``B`` is ``B0`` with rows ``R`` of its basic x
        columns taken from ``A``. None, to re-factor, when ``b`` changed,
        when more than half of the rows changed (no cheaper than a
        factorization then), when ``C`` is singular, or when ``T`` fails the
        checks.
        """
        m, n = A.shape
        rows = np.flatnonzero((A != self.A).any(axis=1))
        if 2 * rows.size > m or (b is not self.b and not np.array_equal(b, self.b)):
            return None
        A_rows = A[rows]
        D = A_rows - self.A[rows]
        x = np.flatnonzero(self.basis < n)
        x_vars = self.basis[x]
        D_B = np.zeros((rows.size, m))
        D_B[:, x] = D[:, x_vars]
        U = self.T0[:, n + rows]
        W = np.dot(D_B, self.T0)  # np.dot: matmul is slow on these thin products
        W[:, :n] -= D
        try:
            Y = np.linalg.solve(np.eye(rows.size) + np.dot(D_B, U), W)
        except np.linalg.LinAlgError:
            return None
        T = np.dot(U, Y)
        np.subtract(self.T0, T, out=T)
        B = self.B0.copy()  # C order like _basis_matrix's, so _checked sums it in the same order
        B[rows[:, None], x] = A_rows[:, x_vars]
        return _checked(B, T)
