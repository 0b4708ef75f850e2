"""Start tableaus for the simplex: the slack basis, and a factored basis updated per block.

A warm start hands the simplex each system's tableau in a factored basis.
Starts are built for a block of systems that differ from the baseline only
in ``A``, as one ``(k, m, n + m + 1)`` stack of tableaus; a block of one is
a single start. Each system's basis matrix ``B``, the basis columns of
``[A | I]``, is stacked alongside for the checks. Per block, the union of
the rows that changed picks the method for every system in it: an update
of the baseline factorization by the Woodbury identity, or a factorization
of each ``B``, solved as one stack. An updated ``B`` is the baseline's
``B0`` with only the changed rows overwritten, which gives the same bits
as a fresh gather. Each system's products and solves run as they would
on that system alone, so its tableau depends on the rest of its block only
through which rows changed.
"""
from __future__ import annotations

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


def _checked(B: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Per system of the stack, whether ``T = B^-1 [A | I | b]`` is usable: ``B`` is not singular.

    LU reports only an exactly zero pivot, so besides finiteness the 1-norm
    condition number ``||B||_1 ||B^-1||_1`` must stay under
    ``1 / PIVOT_TOL``; ``B^-1`` is the slack block of ``T``.
    """
    m = B.shape[-1]
    n = T.shape[-1] - m - 1
    condition = (np.abs(B).sum(axis=-2).max(axis=-1)
                 * np.abs(T[..., n:n + m]).sum(axis=-2).max(axis=-1))
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


def _factored(A: np.ndarray, b: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(B^-1 [A | I | b], B)`` for a stack ``A``, by a full factorization of each ``B``."""
    body = _slack_tableau(A, b)
    B = body[..., :-1][..., basis]  # the columns of [A | I]
    return _stacked_solve(B, body), B


class WarmStart:
    """A basis factored once, to start solves of systems that differ in data.

    Holds the baseline ``system`` (its ``b`` and equality rows are every
    solve's), the basis (m column indices into ``[x | slacks]``, such as a
    solve's ``basic_columns``), the baseline basis matrix ``B0`` and tableau
    ``T0 = B0^-1 [A | I | b]``; both are None when the basis is singular for
    the baseline.
    """

    def __init__(self, system: ConstraintSystem, basic_columns):
        self.system = system
        self.A, self.b = np.asarray(system.A), np.asarray(system.b)
        self.basis = np.array(basic_columns, dtype=int)
        T0, B0 = _factored(self.A[None], self.b, self.basis)
        started = _checked(B0, T0)[0]
        self.T0, self.B0 = (T0[0], B0[0]) if started else (None, None)

    def tableaus(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(T, basis, paths)`` for the stack ``A`` of shape ``(k, m, n)``, all new arrays.

        ``T[t]`` is the tableau in ``basis[t]``, and ``paths[t]`` names how
        it was built: ``"updated"`` or ``"factored"`` for ``B[t]^-1 [A[t] |
        I | b]`` in the start's basis, with ``B[t]`` its basis columns of
        ``[A[t] | I]``, and ``"slack"`` for ``[A[t] | I | b]`` in the slack
        basis where ``B[t]`` is singular. In the start's basis, the basis
        columns are exactly the identity, and a value in ``[-FEAS_TOL, 0)``
        is round-off and is set to 0. With ``R`` the rows that changed in any
        system of the block, every system is updated when ``2 |R| <= m``,
        and factored otherwise; a system whose update fails the checks is
        factored after all.
        """
        if A.shape[1:] != self.A.shape:
            raise ValueError(f"start was built for a system of shape {self.A.shape}, "
                             f"not {A.shape[1:]}")
        k, m, n = A.shape
        paths = np.full(k, "slack", dtype=object)
        rows = np.flatnonzero((A != self.A).any(axis=(0, 2)))
        update = self.T0 is not None and 2 * rows.size <= m
        T, B = self._updated(A, rows) if update else _factored(A, self.b, self.basis)
        ok = _checked(B, T)
        paths[ok] = "updated" if update else "factored"
        if update and not ok.all():  # a singular update: factor those systems after all
            redo = np.flatnonzero(~ok)
            T[redo], B[redo] = _factored(A[redo], self.b, self.basis)
            paths[redo[_checked(B[redo], T[redo])]] = "factored"
        usable = paths != "slack"
        basis = np.tile(np.arange(n, n + m), (k, 1))
        if usable.any():  # then the basis has m columns
            T[:, :, self.basis] = np.eye(m)
            rhs = T[:, :, -1]
            rhs[(rhs < 0) & (rhs >= -FEAS_TOL)] = 0.0
            basis[usable] = self.basis
        if not usable.all():
            T[~usable] = _slack_tableau(A[~usable], self.b)
        return T, basis, paths

    def _updated(self, A: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(T, B)`` from ``(T0, B0)`` updated to each system of ``A`` by the Woodbury identity.

        With ``R`` the changed rows, ``D = A[R] - A0[R]``, ``D_B`` its basis
        columns (0 at slacks) and ``U = T0[:, n + R]`` (columns ``R`` of
        ``B0^-1``): ``T = T0 - U C^-1 (D_B T0 - [D | 0 | 0])``, with
        ``C = I + D_B U``. ``B`` is ``B0`` with rows ``R`` of its basic x
        columns taken from ``A``. A system whose ``C`` is singular gets a
        NaN ``T``. ``np.matmul`` runs each system's products as ``np.dot``
        runs them on one system, to the bit.
        """
        k, m, n = A.shape
        A_rows = A[:, rows]
        D = A_rows - self.A[rows]
        x = np.flatnonzero(self.basis < n)
        x_vars = self.basis[x]
        D_B = np.zeros((k, rows.size, m))
        D_B[:, :, x] = D[:, :, x_vars]
        U = self.T0[:, n + rows]
        W = np.matmul(D_B, self.T0)
        W[:, :, :n] -= D
        T = np.matmul(U, _stacked_solve(np.eye(rows.size) + np.matmul(D_B, U), W))
        np.subtract(self.T0, T, out=T)
        B = np.repeat(self.B0[None], k, axis=0)  # C order like _basis_matrix's
        B[:, rows[:, None], x] = A_rows[:, :, x_vars]
        return T, B
