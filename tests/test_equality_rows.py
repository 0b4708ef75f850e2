"""Public equality rows against their paired encoding and an independent solver.

A system with equality rows and its ``inequality_form()`` describe one
region. The simplex solves the first natively and the second as inequality
pairs; both must agree with each other and with HiGHS given the equalities
as ``A_eq``. The bound side reads the inequality form, so its values must
not depend on which form a problem was written in.
"""
import numpy as np
import pytest
from scipy.optimize import linprog

from privlp import (
    ConstraintSystem,
    GridConfig,
    LinearProgram,
    PrivacyParams,
    bound_geometry,
    build_gridworld,
    cost_bound,
    hoffman_constant,
    max_norm_point,
    occupancy_lp,
    privatize_matrix,
    validate,
    xi_term,
)
from privlp.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, WarmStart, enumerate_vertices,
                            solve_block, solve_lp)

from conftest import block_solutions
from oracles import hoffman_all_supports, vertex_scan

HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def _paired(system: ConstraintSystem) -> ConstraintSystem:
    """The inequality form written out by hand: each equality as its two rows."""
    eq = system.equality
    return ConstraintSystem(A=np.vstack([system.A, -system.A[eq]]),
                            b=np.concatenate([system.b, -system.b[eq]]),
                            zero_mask=np.vstack([system.zero_mask, system.zero_mask[eq]]),
                            sup_A=np.vstack([system.sup_A, -system.A[eq]]))


def _highs(c, system: ConstraintSystem):
    eq = system.equality
    result = linprog(-np.asarray(c), A_ub=system.A[~eq], b_ub=system.b[~eq],
                     A_eq=system.A[eq], b_eq=system.b[eq], bounds=(0, None), method="highs")
    return HIGHS_STATUS[result.status], (None if result.status else -result.fun)


def _assert_forms_agree(c, system: ConstraintSystem) -> str:
    form = system.inequality_form()
    assert form.equality is None and form.shape[0] == system.shape[0] + system.equality.sum()
    native, paired = solve_lp(c, system), solve_lp(c, form)
    status, objective = _highs(c, system)
    assert native.status == paired.status == status
    if status == OPTIMAL:
        assert native.objective == pytest.approx(paired.objective, abs=1e-9)
        assert native.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
        for sol in (native, paired):
            assert sol.x.min() >= 0.0
            assert system.residuals(sol.x).max() <= 1e-9
            assert form.residuals(sol.x).max() <= 1e-9
        eq_rows = np.flatnonzero(system.equality)
        assert set(eq_rows.tolist()) <= set(native.basis)  # an equality row is always active
    return status


def _random_grid(rng, size):
    cells = [(r, c) for r in range(size) for c in range(size)]
    order = rng.permutation(len(cells))
    hazards = tuple((cells[i], float(rng.uniform(0.1, 2.0)))
                    for i in order[2:2 + int(rng.integers(1, size))])
    return GridConfig(width=size, height=size, start=cells[order[0]], goal=cells[order[1]],
                      hazards=hazards, slip=float(rng.uniform(0.0, 0.6)),
                      gamma=float(rng.uniform(0.5, 0.95)), f0=float(rng.uniform(0.01, 3.0)),
                      goal_reward=float(rng.uniform(0.5, 2.0)), sup_a=3.0)


@pytest.mark.parametrize("size", [2, 3])
def test_random_cmdps_solve_alike_in_both_forms_and_in_highs(size):
    rng = np.random.default_rng([20240817, size])
    statuses = []
    for _ in range(40):
        mdp = build_gridworld(_random_grid(rng, size))
        lp = occupancy_lp(mdp)
        assert lp.system.equality.sum() == mdp.n_states
        statuses.append(_assert_forms_agree(lp.c, lp.system))
        c = rng.normal(size=lp.c.shape)  # rewards of either sign, no ties
        statuses.append(_assert_forms_agree(c, lp.system))
    assert statuses.count(OPTIMAL) > 40 and statuses.count(INFEASIBLE) > 0


def _lp_with_equalities(rng, m, n, k, redundant=False) -> LinearProgram:
    """A validated LP whose last ``k`` rows are public equalities through a worst-case point."""
    A = rng.uniform(-1.0, 2.0, (m, n))
    A[0] = rng.uniform(0.2, 1.5, n)
    mask = rng.random((m, n)) < 0.2
    mask[0] = False
    A[mask] = 0.0
    sup_A = A + np.where(mask, 0.0, rng.uniform(0.1, 2.0, (m, n)))
    witness = rng.uniform(0.0, 1.0, n)
    b = sup_A @ witness + rng.uniform(0.05, 1.0, m)
    E = rng.normal(size=(k, n)).round(3)
    if redundant:
        E[-1] = 2.0 * E[0]
    system = ConstraintSystem(A=np.vstack([A, E]), b=np.concatenate([b, E @ witness]),
                              zero_mask=np.vstack([mask, np.ones((k, n), bool)]),
                              sup_A=np.vstack([sup_A, E]), equality=np.arange(m + k) >= m)
    lp = LinearProgram(c=rng.normal(size=n), system=system)
    validate(lp)
    return lp


def test_random_validated_lps_with_equalities_solve_alike(rng):
    for trial in range(120):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        lp = _lp_with_equalities(rng, int(rng.integers(1, 6)), n, k,
                                 redundant=k > 1 and trial % 4 == 0)
        assert _assert_forms_agree(lp.c, lp.system) == OPTIMAL


def test_random_public_systems_solve_alike(rng):
    # unvalidated data: every status occurs, equalities with either sign of b
    statuses = []
    for _ in range(300):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.normal(size=(m, n)).round(3)
        equality = rng.random(m) < 0.5
        equality[0] = True
        system = ConstraintSystem(A=A, b=rng.normal(scale=2.0, size=m).round(3),
                                  zero_mask=np.ones((m, n), bool), sup_A=A, equality=equality)
        statuses.append(_assert_forms_agree(rng.normal(size=n).round(3), system))
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)


@pytest.mark.parametrize("k", [0.02, 1.0])
def test_warm_start_with_equality_rows_matches_the_slack_start(rng, k):
    # the last 10 systems repeat an equality row (doubled): phase 1 keeps that
    # row's artificial basic at 0, so the basis stays square and can be factored
    for trial in range(20):
        redundant = trial >= 10
        lp = _lp_with_equalities(rng, 3 if redundant else 5, 4, 2, redundant=redundant)
        base = solve_lp(lp.c, lp.system)
        assert len(base.basic_columns) == lp.system.shape[0]
        start = WarmStart(lp.system, base.basic_columns)
        for seed in range(5):
            priv = privatize_matrix(lp.system, PrivacyParams(1.0, 0.05, k), seed)
            tightened = lp.system.tightened(priv.A_tilde)
            warm = block_solutions(solve_block(lp.c, priv.A_tilde[None], start))[0]
            cold = solve_lp(lp.c, tightened)
            assert warm.start_path == "updated"
            assert warm.status == cold.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert lp.system.residuals(warm.x).max() <= 1e-9


def test_block_solves_with_equality_rows_match_single_solves(rng):
    from conftest import assert_block_matches_single_solves
    for trial in range(12):
        lp = _lp_with_equalities(rng, 4, 4, 2, redundant=trial % 3 == 0)
        start = WarmStart(lp.system, solve_lp(lp.c, lp.system).basic_columns)
        params = PrivacyParams(1.0, 0.05, (0.02, 0.3, 1.0)[trial % 3])
        block = np.array([privatize_matrix(lp.system, params, seed).A_tilde for seed in range(6)])
        assert_block_matches_single_solves(lp.c, block, start)


def test_bound_side_reads_both_forms_alike(rng):
    params = PrivacyParams(1.0, 0.05, 0.05)
    for _ in range(4):
        lp = _lp_with_equalities(rng, 3, 3, 2)
        paired = LinearProgram(c=lp.c, system=_paired(lp.system))
        form = lp.system.inequality_form()
        assert np.array_equal(form.A, paired.system.A) and np.array_equal(form.b, paired.system.b)
        H = hoffman_constant(form.A)
        assert H == hoffman_constant(paired.system.A)
        assert H == pytest.approx(hoffman_all_supports(paired.system.A), rel=1e-12)
        assert bound_geometry(lp) == bound_geometry(paired)
        assert cost_bound(lp, params) == cost_bound(paired, params)
        one, two = max_norm_point(form), max_norm_point(paired.system)
        assert one[1] == two[1] and one[0].tobytes() == two[0].tobytes()
        assert xi_term(form, params) == xi_term(paired.system, params)
        # both read a system with equality rows through its inequality_form()
        mixed = max_norm_point(lp.system)
        assert mixed[1] == one[1] and mixed[0].tobytes() == one[0].tobytes()
        assert xi_term(lp.system, params) == xi_term(form, params)
        vertices = enumerate_vertices(form.A, form.b)
        assert vertices.tobytes() == vertex_scan(paired.system.A, paired.system.b).tobytes()
        assert max(lp.system.residuals(v).max() for v in vertices) <= 1e-9
