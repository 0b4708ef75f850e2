import numpy as np
import pytest

from privlp import ConstraintSystem, LinearProgram, validate


def random_validated_lp(rng: np.random.Generator, m=None, n=None,
                        mask_prob=0.2, positive_costs=False) -> LinearProgram:
    """Random LP that satisfies the standing assumptions by construction.

    Row 0 is strictly positive (unmasked), which bounds {x >= 0 : A x <= b};
    b is set from a witness point inside the worst-case region, so the
    shared-feasibility assumption always holds.
    """
    m = int(m if m is not None else rng.integers(2, 7))
    n = int(n if n is not None else rng.integers(2, 7))
    A = rng.uniform(-1.0, 2.0, (m, n))
    mask = rng.random((m, n)) < mask_prob
    A[0] = rng.uniform(0.2, 1.5, n)
    mask[0] = False
    A[mask] = 0.0
    margin = rng.uniform(0.1, 2.0, (m, n))
    margin[mask] = 0.0
    witness = rng.uniform(0.0, 1.0, n)
    sup_A = A + margin
    b = sup_A @ witness + rng.uniform(0.05, 1.0, m)
    if positive_costs:
        c = np.abs(rng.normal(size=n)) + 0.1
    else:
        c = rng.normal(size=n)
    system = ConstraintSystem(A=A, b=b, zero_mask=mask, sup_A=sup_A)
    lp = LinearProgram(c=c, system=system)
    validate(lp)
    return lp


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_block_matches_single_solves(c, A_block, start) -> list:
    """``solve_block`` over ``A_block`` equals a block of one of each matrix, field for field.

    Each optimal point's objective and active set must also be those of the
    point checked on its own against its tightened rows.
    """
    from privlp.problem import FEAS_TOL
    from privlp.simplex import solve_block
    solved = solve_block(c, A_block, start)
    assert len(solved) == len(A_block)
    for A, sol in zip(A_block, solved):
        if sol.is_optimal:
            residual = start.system.tightened(A).residuals(sol.x)
            active = np.flatnonzero(np.abs(residual) <= FEAS_TOL).tolist()
            active += (len(residual) + np.flatnonzero(sol.x <= FEAS_TOL)).tolist()
            assert sol.basis == tuple(active)
            assert sol.objective == float(np.asarray(c, dtype=float) @ sol.x)
        (one,) = solve_block(c, A[None], start)
        assert (sol.status, sol.objective, sol.basis, sol.basic_columns) == (
            one.status, one.objective, one.basis, one.basic_columns)
        assert (sol.phase1_pivots, sol.phase2_pivots, sol.start_path) == (
            one.phase1_pivots, one.phase2_pivots, one.start_path)
        assert (sol.x is None and one.x is None) or sol.x.tobytes() == one.x.tobytes()
    return solved
