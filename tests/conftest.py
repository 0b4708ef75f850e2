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


def block_solutions(solved) -> list:
    """Each slot of a ``SolvedBlock`` as a ``Solution`` without its active set, for per-trial checks."""
    from privlp.simplex import OPTIMAL, Solution
    solutions = []
    for t, status in enumerate(solved.status.tolist()):
        point = {} if status != OPTIMAL else {
            "x": solved.x[t], "objective": float(solved.objective[t]),
            "basic_columns": tuple(solved.basic_columns[t].tolist())}
        phase1, phase2 = solved.pivots[t].tolist()
        solutions.append(Solution(status, phase1_pivots=phase1, phase2_pivots=phase2,
                                  start_path=str(solved.start_path[t]), **point))
    return solutions


def assert_block_matches_single_solves(c, A_block, start):
    """``solve_block`` over ``A_block`` equals a block of one of each matrix, every field bit for bit.

    Each optimal point must also satisfy its tightened rows at ``FEAS_TOL``
    and have objective ``c.x`` to the bit; a solve that is not optimal has
    NaN for its point and objective.
    """
    from privlp.problem import FEAS_TOL
    from privlp.simplex import OPTIMAL, solve_block
    c = np.asarray(c, dtype=float)
    solved = solve_block(c, A_block, start)
    assert all(len(field) == len(A_block) for field in solved)
    for t, A in enumerate(A_block):
        if solved.status[t] == OPTIMAL:
            assert start.system.tightened(A).residuals(solved.x[t]).max() <= FEAS_TOL
            assert solved.x[t].min() >= 0.0
            assert solved.objective[t] == float(c @ solved.x[t])
        else:
            assert np.isnan(solved.x[t]).all() and np.isnan(solved.objective[t])
        one = solve_block(c, A[None], start)
        for name, many, single in zip(solved._fields, solved, one):
            if many.dtype.kind in "fiu":  # bit for bit, NaN included
                assert many[t].tobytes() == single[0].tobytes(), name
            else:
                assert many[t] == single[0], name
    return solved
