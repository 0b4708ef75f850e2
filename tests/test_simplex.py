import itertools
import math

import numpy as np
import pytest

from privlp import ConstraintSystem
from privlp.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    enumerate_vertices,
    max_norm_point,
    phase1_feasible,
    solve_lp,
)

from oracles import lp_oracle, max_norm_grid, region_vertices


def _sys(A, b):
    A = np.asarray(A, dtype=float)
    return ConstraintSystem(A=A, b=b, zero_mask=np.zeros_like(A, dtype=bool),
                            sup_A=np.abs(A) + 1.0)


def _random_instance(rng, m, n):
    A = rng.normal(size=(m, n)).round(4)
    b = rng.normal(scale=2.0, size=m).round(4)
    c = rng.normal(size=n).round(4)
    return c, A, b


def test_unit_box():
    sol = solve_lp([1.0, 1.0], _sys(np.eye(2), [1.0, 1.0]))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 1.0])
    assert sol.objective == pytest.approx(2.0)


def test_unbounded_ray():
    sol = solve_lp([1.0], _sys([[-1.0]], [-2.0]))
    assert sol.status == UNBOUNDED
    assert sol.x is None and sol.objective is None


def test_infeasible_sign_conflict():
    sol = solve_lp([1.0], _sys([[1.0]], [-1.0]))
    assert sol.status == INFEASIBLE


def test_matches_vertex_oracle_on_random_instances(rng):
    agree = 0
    for _ in range(250):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        c, A, b = _random_instance(rng, m, n)
        sol = solve_lp(c, _sys(A, b))
        status, best = lp_oracle(c, A, b)
        assert sol.status == status
        if status == OPTIMAL:
            assert sol.objective == pytest.approx(best, abs=1e-9)
            agree += 1
    assert agree > 50  # sanity: plenty of optimal instances exercised


def test_optimal_points_reverify(rng):
    for _ in range(100):
        c, A, b = _random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        sol = solve_lp(c, _sys(A, b))
        if sol.status == OPTIMAL:
            assert np.max(A @ sol.x - b) <= 1e-9
            assert sol.x.min() >= -1e-9


def test_scaling_c_leaves_solution_unchanged(rng):
    for _ in range(50):
        c, A, b = _random_instance(rng, 4, 3)
        base = solve_lp(c, _sys(A, b))
        scaled = solve_lp(3.7 * np.asarray(c), _sys(A, b))
        assert base.status == scaled.status
        if base.status == OPTIMAL:
            assert np.array_equal(base.x, scaled.x)


def test_deterministic_repeat(rng):
    c, A, b = _random_instance(rng, 5, 4)
    one = solve_lp(c, _sys(A, b))
    two = solve_lp(c, _sys(A, b))
    assert one.status == two.status
    if one.status == OPTIMAL:
        assert np.array_equal(one.x, two.x)
        assert one.basis == two.basis


def test_equality_encoded_as_pair(rng):
    # x0 + x1 = 1 via <= and >=, maximize x0
    A = [[1.0, 1.0], [-1.0, -1.0]]
    sol = solve_lp([1.0, 0.0], _sys(A, [1.0, -1.0]))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-9)


def test_phase1_simple_cases():
    assert phase1_feasible(_sys([[1.0]], [1.0])) is not None
    assert phase1_feasible(_sys([[1.0]], [-1.0])) is None


def test_phase1_agrees_with_vertex_oracle(rng):
    for _ in range(120):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        _, A, b = _random_instance(rng, m, n)
        point = phase1_feasible(_sys(A, b))
        empty = region_vertices(A, b).shape[0] == 0
        if point is None:
            assert empty
        else:
            assert not empty
            assert np.max(A @ point - b) <= 1e-9
            assert point.min() >= -1e-9


def test_enumerate_vertices_unit_box():
    V = enumerate_vertices(np.eye(2), np.ones(2))
    expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(np.round(v, 9)) for v in V} == expected


def test_max_norm_unit_box():
    x_bar, norm = max_norm_point(_sys(np.eye(2), [1.0, 1.0]))
    assert x_bar == pytest.approx([1.0, 1.0])
    assert norm == pytest.approx(np.sqrt(2.0))


def test_max_norm_simplex_tie_breaks_lexicographically():
    x_bar, norm = max_norm_point(_sys([[1.0, 1.0]], [1.0]))
    assert norm == pytest.approx(1.0)
    assert x_bar == pytest.approx([0.0, 1.0])  # lexicographically smallest of (0,1),(1,0)


def test_max_norm_unbounded_region():
    assert max_norm_point(_sys([[-1.0, 0.0]], [1.0])) == UNBOUNDED


def _bounded_instance(rng, m, n):
    A = rng.normal(size=(m, n))
    A[0] = rng.uniform(0.3, 1.2, n)  # positive row keeps the region bounded
    x0 = rng.uniform(0.2, 1.0, n)
    b = A @ x0 + rng.uniform(0.3, 1.5, m)
    return A, b


def test_max_norm_matches_grid_oracle(rng):
    for _ in range(3):
        A, b = _bounded_instance(rng, 4, 3)
        result = max_norm_point(_sys(A, b))
        assert result != UNBOUNDED
        x_bar, norm = result
        box = (b[0] / A[0]) + 0.05  # row 0 is positive, so it caps each coordinate
        grid_best = max_norm_grid(A, b, box_hi=list(box), step=2e-3)
        assert grid_best <= norm + 1e-9          # grid points are feasible
        assert norm - grid_best <= 2e-2          # vertex is near some grid point


def test_max_norm_agrees_with_oracle_vertices(rng):
    for _ in range(25):
        A, b = _bounded_instance(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
        result = max_norm_point(_sys(A, b))
        assert result != UNBOUNDED
        _, norm = result
        oracle_norm = np.linalg.norm(region_vertices(A, b), axis=1).max()
        assert norm == pytest.approx(oracle_norm, abs=1e-8)


def test_enumerate_vertices_matches_oracle_across_chunks_with_singular_bases(rng):
    # integer rows with many structural zeros make a large share of the
    # C(14, 4) = 1001 candidate bases singular, and the bases span several
    # solve batches
    from privlp.simplex import _VERTEX_CHUNK
    m, n = 10, 4
    assert math.comb(m + n, n) > 3 * _VERTEX_CHUNK
    for _ in range(4):
        A = rng.integers(-1, 3, size=(m, n)).astype(float)
        A[rng.random((m, n)) < 0.5] = 0.0
        A[m - 1] = A[0]  # a repeated row adds degenerate vertices to deduplicate
        b = rng.integers(1, 4, size=m).astype(float)
        rows = np.vstack([A, -np.eye(n)])
        singular = sum(np.linalg.matrix_rank(rows[list(S)]) < n
                       for S in itertools.combinations(range(m + n), n))
        assert singular > 100
        V = enumerate_vertices(A, b)
        oracle = region_vertices(A, b)
        assert V.shape == oracle.shape
        assert {tuple(np.round(v, 9) + 0.0) for v in V} == \
            {tuple(np.round(v, 9) + 0.0) for v in oracle}
