import itertools
import warnings

import numpy as np
import pytest

from privlp import ConstraintSystem
from privlp.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    WarmStart,
    enumerate_vertices,
    max_norm_point,
    phase1_feasible,
    solve_block,
    solve_lp,
)

from oracles import lp_oracle, max_norm_grid, region_vertices


def _sys(A, b):
    A = np.asarray(A, dtype=float)
    return ConstraintSystem(A=A, b=b, zero_mask=np.zeros_like(A, dtype=bool),
                            sup_A=np.abs(A) + 1.0)


def _warm(c, system, start):
    """The solve of ``system`` from ``start``: a block of one."""
    from conftest import block_solutions
    return block_solutions(solve_block(c, np.asarray(system.A)[None], start))[0]


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


def test_enumerate_vertices_matches_oracle_across_chunks_with_singular_bases(rng, monkeypatch):
    # integer rows with many structural zeros make a large share of the
    # C(14, 4) = 1001 candidate bases singular; a small chunk makes the walk
    # expand its bases over many batches
    import privlp.simplex as simplex
    monkeypatch.setattr(simplex, "_VERTEX_CHUNK", 3)
    m, n = 10, 4
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
        if solve_lp(np.ones(n), _sys(A, b)).status == UNBOUNDED:
            assert V is None  # the walk stops at its first ray
            continue
        oracle = region_vertices(A, b)
        assert V.shape == oracle.shape
        assert {tuple(np.round(v, 9) + 0.0) for v in V} == \
            {tuple(np.round(v, 9) + 0.0) for v in oracle}


def _integer_system(rng, m, n):
    # structural zeros and a repeated row: singular bases and degenerate vertices
    A = rng.integers(-1, 3, size=(m, n)).astype(float)
    A[rng.random((m, n)) < 0.5] = 0.0
    A[m - 1] = A[0]
    return A, rng.integers(1, 4, size=m).astype(float)


def _zero_rhs_system(rng, m, n):
    # zero entries of b make the origin a vertex where more than n constraints meet
    A, b = _integer_system(rng, m, n)
    b[rng.random(m) < 0.5] = 0.0
    return A, b


def _unbounded_system(rng, m, n):
    A = rng.normal(size=(m, n))
    A[:, 0] = -np.abs(A[:, 0])  # x_0 grows without bound
    return A, np.abs(rng.normal(size=m))


def _empty_system(rng, m, n):
    A = np.abs(rng.normal(size=(m, n)))
    b = rng.normal(size=m)
    b[0] = -1.0  # a nonnegative row with a negative bound admits no x >= 0
    return A, b


def _validated_system(rng, m, n):
    from conftest import random_validated_lp
    system = random_validated_lp(rng, m, n).system
    return system.A, system.b


@pytest.mark.parametrize("build, m, n", [
    (_validated_system, 12, 6),
    (_validated_system, 8, 4),
    (_validated_system, 5, 3),
    (_integer_system, 10, 4),
    (_integer_system, 8, 3),
    (_zero_rhs_system, 8, 4),
    (_unbounded_system, 6, 3),
    (_empty_system, 5, 3),
    (_integer_system, 5, 1),
    (_unbounded_system, 4, 1),
], ids=["valid12x6", "valid8x4", "valid5x3", "integer10x4", "integer8x3", "zero_rhs8x4",
        "unbounded6x3", "empty5x3", "integer5x1", "unbounded4x1"])
def test_enumerate_vertices_bytes_match_the_full_scan(build, m, n, monkeypatch):
    # on a bounded region the walk must meet every basis the scan accepts, so
    # the rows, their order and every bit (signed zeros included) are the
    # scan's, whatever the batches the walk expands its bases in; on an
    # unbounded one it returns None
    import privlp.simplex as simplex
    from oracles import vertex_scan
    rng = np.random.default_rng([20240817, m, n])
    for _ in range(3 if m * n > 40 else 8):
        A, b = build(rng, m, n)
        unbounded = solve_lp(np.ones(n), _sys(A, b)).status == UNBOUNDED
        expected = vertex_scan(A, b)
        for chunk in (simplex._VERTEX_CHUNK, 3):
            monkeypatch.setattr(simplex, "_VERTEX_CHUNK", chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the ratio test divides only where a slack falls
                V = enumerate_vertices(A, b)
            if unbounded:
                assert V is None and expected.shape[0] > 0
            else:
                assert V.shape == expected.shape
                assert V.tobytes() == expected.tobytes()
        monkeypatch.undo()


def _random_system(rng, m, n):
    return _random_instance(rng, m, n)[1:]


@pytest.mark.parametrize("build, m, n", [
    (_validated_system, 8, 4),
    (_validated_system, 5, 3),
    (_integer_system, 8, 3),
    (_zero_rhs_system, 8, 4),
    (_unbounded_system, 6, 3),
    (_unbounded_system, 4, 1),
    (_empty_system, 5, 3),
    (_bounded_instance, 5, 3),
    (_random_system, 4, 3),
    (_random_system, 6, 2),
], ids=["valid8x4", "valid5x3", "integer8x3", "zero_rhs8x4", "unbounded6x3", "unbounded4x1",
        "empty5x3", "bounded5x3", "random4x3", "random6x2"])
def test_max_norm_recession_check_agrees_with_solve_lp(build, m, n):
    # the walk's first ray stands in for an unbounded solve of max 1.x
    rng = np.random.default_rng([20240817, m, n, 1])
    for _ in range(12):
        system = _sys(*build(rng, m, n))
        status = solve_lp(np.ones(n), system).status
        if status == INFEASIBLE:
            with pytest.raises(ValueError, match="region is empty"):
                max_norm_point(system)
        else:
            assert (max_norm_point(system) == UNBOUNDED) == (status == UNBOUNDED)


def test_enumerate_vertices_degenerate_vertex_with_a_redundant_tight_row():
    # x + 2y <= 1 holds on the triangle 2x + 2y <= 1, y >= 2x and is tight
    # only at its vertex (0, 0.5); no ratio test enters it, yet the scan's
    # first basis of that vertex is (0, 1), which lists it first
    from oracles import vertex_scan
    A = np.array([[2.0, 2.0], [1.0, 2.0], [2.0, -1.0]])
    b = np.array([1.0, 1.0, 0.0])
    V = enumerate_vertices(A, b)
    assert V.tobytes() == vertex_scan(A, b).tobytes()
    assert V.shape == (3, 2) and V[0].tolist() == [0.0, 0.5]


def test_enumerate_vertices_caps_the_bases_it_visits(monkeypatch):
    import privlp.simplex as simplex
    A, b = _bounded_instance(np.random.default_rng(3), 6, 3)
    assert enumerate_vertices(A, b).shape[0] > 4
    monkeypatch.setattr(simplex, "_MAX_VERTEX_BASES", 4)
    with pytest.raises(ValueError, match="too large"):
        enumerate_vertices(A, b)


def test_enumerate_vertices_caps_the_bases_of_a_degenerate_vertex(monkeypatch):
    # A x <= 0 with A <= 0 holds on all of x >= 0, so the origin is tight for
    # all 20 constraints and has C(20, 10) = 184756 bases; the cap must stop
    # the walk before it builds them (about 25 MB as tuples). A last row,
    # sum(x) <= 1, bounds the region, so no ray stops the walk first
    import tracemalloc
    import privlp.simplex as simplex
    m = n = 10
    A = np.vstack([-np.abs(np.random.default_rng(5).normal(size=(m, n))), np.ones(n)])
    b = np.append(np.zeros(m), 1.0)
    monkeypatch.setattr(simplex, "_MAX_VERTEX_BASES", 50)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            enumerate_vertices(A, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _privatized(lp, eps, k, seed):
    import dataclasses
    from privlp import PrivacyParams, privatize_matrix
    priv = privatize_matrix(lp.system, PrivacyParams(eps, 0.05, k), seed)
    return dataclasses.replace(lp.system, A=priv.A_tilde)


@pytest.mark.parametrize("k", [0.02, 1.0])
def test_warm_start_from_baseline_matches_slack_start(rng, k):
    from conftest import random_validated_lp
    artificial = 0
    for trial in range(60):
        m, n = (12, 6) if trial % 3 == 0 else (int(rng.integers(2, 8)), int(rng.integers(2, 7)))
        lp = random_validated_lp(rng, m=m, n=n, positive_costs=trial % 2 == 0)
        base = solve_lp(lp.c, lp.system)
        assert base.status == OPTIMAL and len(base.basic_columns) == m
        for eps in (0.5, 5.0):
            tightened = _privatized(lp, eps, k, seed=trial)
            cold = solve_lp(lp.c, tightened)
            warm = _warm(lp.c, tightened, WarmStart(lp.system, base.basic_columns))
            assert warm.status == cold.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            assert np.max(tightened.A @ warm.x - tightened.b) <= 1e-9
            assert warm.x.min() >= -1e-9
            artificial += warm.phase1_pivots > 0
    assert artificial > 0  # some starts were infeasible and went through phase 1


def test_warm_start_with_negative_rows_runs_phase1():
    # x0 + x1 <= 2, x0 - x1 <= 0; the start {x0, slack 1} sets x0 = 2 and
    # slack 1 = -2, so row 1 is flipped and repaired by phase 1
    system = _sys([[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0])
    c = [1.0, 2.0]
    cold = solve_lp(c, system)
    warm = _warm(c, system, WarmStart(system, (0, 3)))
    assert warm.phase1_pivots >= 1
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    assert warm.x == pytest.approx([0.0, 2.0], abs=1e-12)


def test_singular_start_falls_back_to_slack_basis(rng):
    c, A, b = _random_instance(rng, 5, 4)
    cold = solve_lp(c, _sys(A, b))
    for start in [(0, 0, 4, 5, 6), (0, 1, 2)]:  # repeated column; too few columns
        warm = _warm(c, _sys(A, b), WarmStart(_sys(A, b), start))
        assert warm.start_path == "slack"
        assert warm.status == cold.status
        assert (warm.phase1_pivots, warm.phase2_pivots) == (cold.phase1_pivots, cold.phase2_pivots)
        if cold.status == OPTIMAL:
            assert np.array_equal(warm.x, cold.x)
            assert warm.basic_columns == cold.basic_columns


def test_optimal_start_takes_no_pivots(rng):
    solved = 0
    for _ in range(30):
        c, A, b = _random_instance(rng, 4, 3)
        cold = solve_lp(c, _sys(A, b))
        if cold.status != OPTIMAL:
            continue
        warm = _warm(c, _sys(A, b), WarmStart(_sys(A, b), cold.basic_columns))
        assert (warm.phase1_pivots, warm.phase2_pivots) == (0, 0)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)
        solved += 1
    assert solved > 5


def test_warm_start_on_degenerate_lp_matches_vertex_oracle(rng):
    # two public rows repeated verbatim stay duplicates after privatization,
    # so every trial's vertices are degenerate
    from privlp import ConstraintSystem, LinearProgram
    for trial in range(12):
        m, n = 4, 3
        A = rng.uniform(0.2, 1.5, (m, n))
        A = np.vstack([A, A[1:3]])
        b = A @ rng.uniform(0.2, 1.0, n) + rng.uniform(0.5, 1.5, m + 2)
        b[m:] = b[1:3]
        public = np.zeros((m + 2, n), dtype=bool)
        public[[1, 2, m, m + 1]] = True
        sup_A = np.where(public, A, A + 0.5)
        lp = LinearProgram(c=np.abs(rng.normal(size=n)) + 0.1,
                           system=ConstraintSystem(A=A, b=b, zero_mask=public, sup_A=sup_A))
        base = solve_lp(lp.c, lp.system)
        tightened = _privatized(lp, 1.0, 0.3, seed=trial)
        warm = _warm(lp.c, tightened, WarmStart(lp.system, base.basic_columns))
        status, best = lp_oracle(lp.c, tightened.A, tightened.b)
        assert warm.status == status == OPTIMAL
        assert warm.objective == pytest.approx(best, abs=1e-9)



def _changed_rows(rng, lp, count):
    """``A`` with ``count`` random rows moved up inside the bound set."""
    A, sup_A = np.asarray(lp.system.A), np.asarray(lp.system.sup_A)
    movable = np.flatnonzero((sup_A > A).any(axis=1))
    rows = rng.choice(movable, count, replace=False)
    moved = A.copy()
    moved[rows] += rng.uniform(0.0, 1.0, (count, 1)) * (sup_A - A)[rows]
    return moved


def _factored_tableau(A, b, basis):
    """``B^-1 [A | I | b]`` by a full factorization of ``B``, the columns ``basis`` of ``[A | I]``."""
    m, n = A.shape
    body = np.hstack([A, np.eye(m), np.asarray(b, dtype=float)[:, None]])
    return np.linalg.solve(body[:, basis], body)


def _solve_pair(monkeypatch, c, system, start):
    """The solve from ``start`` and the same solve started from a full factorization of its basis."""
    warm = _warm(c, system, start)
    with monkeypatch.context() as patched:
        patched.setattr(start, "_updated", lambda A, rows: (_factored_tableau(
            A[0], start.system.b, start.basis)[None], np.zeros(1, dtype=bool)))
        factored = _warm(c, system, start)
    return warm, factored


def _assert_same_solve(one, two):
    # the active set is a function of the point, so equal bits of x give equal active sets
    assert one.status == two.status
    assert one.x.tobytes() == two.x.tobytes()
    assert one.basic_columns == two.basic_columns
    assert (one.phase1_pivots, one.phase2_pivots) == (two.phase1_pivots, two.phase2_pivots)


def test_low_rank_update_matches_the_full_factorization(rng, monkeypatch):
    # every count of changed rows, up to all of them, is updated from the
    # baseline tableau, and agrees with factoring the new basis outright
    import dataclasses
    from conftest import random_validated_lp
    updates = every_row = 0
    for trial in range(40):
        m = int(rng.integers(2, 13))
        lp = random_validated_lp(rng, m=m, n=int(rng.integers(2, 8)),
                                 positive_costs=trial % 2 == 0)
        base = solve_lp(lp.c, lp.system)
        start = WarmStart(lp.system, base.basic_columns)
        movable = np.count_nonzero((lp.system.sup_A > lp.system.A).any(axis=1))
        every_row += movable == m
        for count in range(1, movable + 1):
            A = _changed_rows(rng, lp, count)
            T, _, paths = start.tableaus(A[None])
            assert paths.tolist() == ["updated"]
            assert np.max(np.abs(T[0] - _factored_tableau(A, lp.system.b, start.basis))) <= 1e-10
            warm, factored = _solve_pair(monkeypatch, lp.c,
                                         dataclasses.replace(lp.system, A=A), start)
            assert warm.start_path == "updated" and warm.is_optimal
            _assert_same_solve(warm, factored)
            updates += 1
    assert updates > 200 and every_row > 30


def _singular_case(rng):
    """A start, and a system whose updated basis is singular to working precision."""
    from conftest import random_validated_lp
    lp = random_validated_lp(rng, m=8, n=5, positive_costs=True)
    base = solve_lp(lp.c, lp.system)
    start = WarmStart(lp.system, base.basic_columns)
    # a row r moved so that C = 1 + d_B . u is about 1e-13: the new basis is
    # singular to working precision, though its LU pivots are not exactly 0
    A = np.array(lp.system.A)
    m, n = A.shape
    x = np.flatnonzero(start.basis < n)
    r = next(r for r in range(m) if np.any(start.T0[x, n + r] != 0.0))
    u = start.T0[x, n + r]
    d = np.zeros(n)
    d[start.basis[x]] = -(1.0 - 1e-13) * u / (u @ u)
    A[r] += d
    C = 1.0 + d[start.basis[x]] @ u
    assert 0 < abs(C) < 1e-12
    return lp, start, ConstraintSystem(A=A, b=lp.system.b, zero_mask=np.zeros_like(A, dtype=bool),
                                       sup_A=np.maximum(lp.system.sup_A, A))


def test_singular_update_takes_the_slack_start(rng):
    from privlp.simplex import _checked
    for _ in range(5):
        lp, start, system = _singular_case(rng)
        A, b = np.asarray(system.A), np.asarray(system.b)
        full = _factored_tableau(A, b, start.basis)
        assert not _checked(A, start.basis, full)  # a factorization fails the same check
        T, basis, paths = start.tableaus(A[None])
        m, n = A.shape
        assert paths.tolist() == ["slack"]
        assert basis.tolist() == [list(range(n, n + m))]
        assert np.array_equal(T[0], np.hstack([A, np.eye(m), b[:, None]]))
        warm, cold = _warm(lp.c, system, start), solve_lp(lp.c, system)
        assert warm.start_path == "slack" and warm.status == cold.status
        assert (warm.phase1_pivots, warm.phase2_pivots) == (cold.phase1_pivots, cold.phase2_pivots)
        if warm.is_optimal:
            _assert_same_solve(warm, cold)


def _spied_checks(monkeypatch):
    """The stack sizes ``simplex._checked`` is called with; a single system counts as 1."""
    from privlp import simplex
    checked, sizes = simplex._checked, []
    monkeypatch.setattr(simplex, "_checked",
                        lambda A, basis, T: sizes.append(len(A) if A.ndim == 3 else 1)
                        or checked(A, basis, T))
    return sizes


def _assert_certified_decision(start, A):
    """The start's decision per system of ``A`` equals ``_checked`` on every updated tableau,
    and a certified system is one that ``_checked`` accepts; returns the certified count."""
    from privlp.simplex import _checked
    rows = np.flatnonzero((A != start.A).any(axis=(0, 2)))
    T, certified = start._updated(A, rows)
    exact = _checked(A, start.basis, T)
    assert exact[certified].all()
    paths = start.tableaus(A)[2]
    assert paths.tolist() == np.where(exact, "updated", "slack").tolist()
    return int(certified.sum())


def _condition(start, A):
    """The 1-norm condition number of the updated start of ``A``, as ``_checked`` reads it."""
    from privlp.simplex import _basis_matrix
    m, n = A.shape
    T, _ = start._updated(A[None], np.flatnonzero((A != start.A).any(axis=1)))
    norm = np.abs(_basis_matrix(A[None], start.basis[None])).sum(axis=-2).max()
    return norm * np.abs(T[0, :, n:n + m]).sum(axis=0).max()


def test_certified_starts_decide_as_the_exact_check(rng):
    # the norm bounds of the update send a start to the exact check unless
    # they prove it usable: over every count of changed rows, a singular
    # update, and updates whose condition number sits within 1e-6 of
    # 1 / PIVOT_TOL on either side, the decision is the exact check's
    from conftest import random_validated_lp
    from privlp.simplex import PIVOT_TOL
    certified = systems = 0
    for trial in range(30):
        m = int(rng.integers(2, 13))
        lp = random_validated_lp(rng, m=m, n=int(rng.integers(2, 8)),
                                 positive_costs=trial % 2 == 0)
        start = WarmStart(lp.system, solve_lp(lp.c, lp.system).basic_columns)
        movable = np.count_nonzero((lp.system.sup_A > lp.system.A).any(axis=1))
        for count in range(1, movable + 1):
            A = np.stack([_changed_rows(rng, lp, count) for _ in range(3)])
            certified += _assert_certified_decision(start, A)
            systems += 3
    assert certified > 0.9 * systems
    for _ in range(5):
        lp, start, singular = _singular_case(rng)
        A0, A1 = np.asarray(lp.system.A), np.asarray(singular.A)
        assert _assert_certified_decision(start, A1[None]) == 0
        # the condition number grows without bound along A0 + t (A1 - A0) as
        # t -> 1: bisect for the t where it crosses 1 / PIVOT_TOL
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = (lo + hi) / 2
            if _condition(start, A0 + mid * (A1 - A0)) < 1 / PIVOT_TOL:
                lo = mid
            else:
                hi = mid
        sides = []
        for t in (lo, hi):
            A = A0 + t * (A1 - A0)
            assert abs(_condition(start, A) * PIVOT_TOL - 1) <= 1e-6
            _assert_certified_decision(start, A[None])
            sides.append(start.tableaus(A[None])[2][0])
        assert sides == ["updated", "slack"]


def test_a_start_just_past_the_threshold_is_left_to_the_exact_check():
    # a 2x2 basis [[1, 1], [1, 1 + d]], condition number about 4 / d, with d
    # bisected so the baseline sits just under 1 / PIVOT_TOL; moving its
    # corner down by 1 to 7 ulps takes the start 5e-7 to 4e-6 past it, where
    # the bounds are close to the exact condition number: a bound that
    # dropped a term or most of its margin would accept a start _checked refuses
    from privlp.simplex import PIVOT_TOL, _checked

    def start(d):
        return WarmStart(_sys([[1.0, 1.0], [1.0, 1.0 + d]], [1.0, 1.0]), (0, 1))

    lo, hi = 1e-12, 1e-8  # start(lo) is refused, start(hi) accepted
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if start(mid).T0 is not None else (mid, hi)
    baseline = start(hi)
    corner = 1.0 + hi
    decided = set()
    for ulps in range(8):
        A = np.array([[[1.0, 1.0], [1.0, corner]]])
        rows = np.flatnonzero((A != baseline.A).any(axis=(0, 2)))
        T, certified = baseline._updated(A, rows)
        exact = _checked(A, baseline.basis, T)
        assert not (certified & ~exact).any()
        decided.add(baseline.tableaus(A)[2][0])
        corner = np.nextafter(corner, 0.0)
    assert decided == {"updated", "slack"}


def test_warm_starts_of_the_grid_pin_are_all_certified(monkeypatch):
    # every block start of the seed-0 grid pin is proven usable by the
    # update's norms, so the exact check runs only on the baseline basis
    from privlp import default_grid
    from privlp.experiment import ExperimentConfig, sweep_gridworld
    sizes = _spied_checks(monkeypatch)
    config = ExperimentConfig(eps_grid=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0), trials=25, base_seed=0,
                              delta=0.05, k=0.25)
    sweep_gridworld(default_grid(), config)
    assert sizes == [1]  # WarmStart.__init__'s check of the baseline tableau


def test_a_singular_update_takes_the_exact_check(rng, monkeypatch):
    lp, start, system = _singular_case(rng)
    sizes = _spied_checks(monkeypatch)
    assert start.tableaus(np.asarray(system.A)[None])[2].tolist() == ["slack"]
    assert sizes == [1]


def test_start_check_reads_the_basis_norm_from_the_columns_of_a(rng):
    # ||B||_1 is summed from the basic x columns of A; with the condition
    # number set near 1 / PIVOT_TOL through a sum down B itself, the check
    # decides as B does, also with one x column, where a plain sum over the
    # gathered column would add its rows pairwise
    from privlp.simplex import PIVOT_TOL, _basis_matrix, _checked
    for trial in range(300):
        k, m, n = int(rng.integers(1, 5)), int(rng.integers(8, 30)), int(rng.integers(1, 30))
        A = rng.normal(size=(k, m, n)) * 10.0 ** rng.integers(-5, 5, size=(k, m, n))
        nx = 1 if trial % 3 == 0 else int(rng.integers(0, min(m, n) + 1))
        basis = rng.permutation(np.concatenate([rng.choice(n, nx, replace=False),
                                                n + rng.choice(m, m - nx, replace=False)]))
        norm = np.abs(_basis_matrix(A, np.tile(basis, (k, 1)))).sum(axis=-2).max(axis=-1)
        T = rng.normal(size=(k, m, n + m + 1))
        inverse_norm = lambda T: np.abs(T[..., n:n + m]).sum(axis=-2).max(axis=-1)
        T *= (1 / PIVOT_TOL / (norm * inverse_norm(T)))[:, None, None]
        usable = norm * inverse_norm(T) < 1 / PIVOT_TOL
        assert _checked(A, basis, T).tolist() == usable.tolist()
        assert _checked(A[0], basis, T[0]) == usable[0]


def test_start_must_match_the_system_shape(rng):
    c, A, b = _random_instance(rng, 4, 3)
    start = WarmStart(_sys(A, b), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="shape"):
        solve_block(c, A[None, :, :2], start)


def test_refine_solves_with_the_basis_matrix_of_the_final_basis(rng, monkeypatch):
    # every solve refines through basis matrices gathered from its final
    # basis; whatever the start and however many pivots, the matrix must be
    # the final basis columns of [A | I], bit for bit
    import dataclasses
    from privlp import simplex
    from privlp.simplex import _basis_matrix
    from conftest import random_validated_lp
    seen = {}
    used = []
    refined = simplex._refined

    def recording(B, b, rhs):
        used.append(B.copy())
        return refined(B, b, rhs)

    def checked_solve(c, system, start=None):
        used.clear()
        sol = solve_lp(c, system) if start is None else _warm(c, system, start)
        assert sol.is_optimal and len(used) == 1 and used[0].shape[0] == 1
        final = _basis_matrix(np.asarray(system.A)[None], np.array(sol.basic_columns)[None])[0]
        assert used[0][0].tobytes() == final.tobytes()
        key = (sol.start_path, sol.phase1_pivots + sol.phase2_pivots > 0)
        seen[key] = seen.get(key, 0) + 1
        return sol

    monkeypatch.setattr(simplex, "_refined", recording)
    for trial in range(30):
        lp = random_validated_lp(rng, m=int(rng.integers(4, 13)), n=int(rng.integers(2, 7)),
                                 positive_costs=True)
        base = checked_solve(lp.c, lp.system)
        checked_solve(-lp.c, lp.system)  # costs <= 0: the slack start is optimal when b >= 0
        start = WarmStart(lp.system, base.basic_columns)
        # one changed row, and every row changed: both are updates of the baseline
        for moved in (_changed_rows(rng, lp, 1), _privatized(lp, 1.0, 1.0, trial).A):
            for c in (lp.c, rng.uniform(0.1, 2.0, lp.system.shape[1])):
                checked_solve(c, dataclasses.replace(lp.system, A=moved), start=start)
    assert {key for key, count in seen.items() if count >= 3} == {
        (path, pivoted) for path in ("slack", "updated") for pivoted in (False, True)}


def _privatized_block(lp, eps, k, seeds):
    from privlp import PrivacyParams, privatize_matrix
    params = PrivacyParams(eps, 0.05, k)
    return np.array([privatize_matrix(lp.system, params, seed).A_tilde for seed in seeds])


@pytest.mark.parametrize("k", [0.02, 1.0])
def test_block_solves_match_single_solves_on_random_lps(rng, k):
    from conftest import assert_block_matches_single_solves, random_validated_lp
    paths = set()
    for trial in range(24):
        m, n = (12, 6) if trial % 3 == 0 else (int(rng.integers(2, 8)), int(rng.integers(2, 7)))
        lp = random_validated_lp(rng, m=m, n=n, positive_costs=trial % 2 == 0)
        start = WarmStart(lp.system, solve_lp(lp.c, lp.system).basic_columns)
        for eps in (0.5, 5.0):
            block = _privatized_block(lp, eps, k, range(8 * trial, 8 * trial + 8))
            solved = assert_block_matches_single_solves(lp.c, block, start)
            paths |= set(solved.start_path.tolist())
        # the same rows moved in every system of the block: one low-rank update each
        rows = rng.choice(m, max(1, m // 2), replace=False)
        block = np.repeat(np.asarray(lp.system.A)[None], 6, axis=0)
        block[:, rows] += rng.uniform(0.0, 1.0, (6, rows.size, 1)) * (
            np.asarray(lp.system.sup_A) - np.asarray(lp.system.A))[rows]
        paths |= set(assert_block_matches_single_solves(lp.c, block, start).start_path.tolist())
    assert paths == {"updated"}


def test_block_mixes_every_kind_of_trial(rng):
    # only row r moves, by a multiple of d or at random: d is the move that
    # makes the updated basis singular, so the block holds trials that
    # finish in the stack, trials that pivot, trials whose start needs
    # artificials, and a trial whose start is singular
    from conftest import assert_block_matches_single_solves, block_solutions
    lp, start, singular = _singular_case(rng)
    A = np.asarray(lp.system.A)
    r = int(np.flatnonzero((np.asarray(singular.A) != A).any(axis=1))[0])
    d = np.asarray(singular.A)[r] - A[r]
    moves = np.vstack([np.multiply.outer([1.0, 0.0, 0.3, -0.6, 0.9, 3.0, -5.0], d),
                       rng.normal(scale=0.5, size=(24, A.shape[1]))])
    block = np.repeat(A[None], len(moves), axis=0)
    block[:, r] += moves
    solved = assert_block_matches_single_solves(lp.c, block, start)
    kinds = set()
    for sol in block_solutions(solved):
        if sol.start_path == "slack":
            kinds.add("singular start")
        elif sol.phase1_pivots:
            kinds.add("artificials")
        elif sol.phase2_pivots:
            kinds.add("pivots")
        else:
            kinds.add("finished in the stack")
    assert kinds == {"singular start", "artificials", "pivots", "finished in the stack"}


def test_block_solves_match_single_solves_on_the_grid():
    from conftest import assert_block_matches_single_solves
    from privlp import build_gridworld, default_grid, occupancy_lp
    lp = occupancy_lp(build_gridworld(default_grid()))
    start = WarmStart(lp.system, solve_lp(lp.c, lp.system).basic_columns)
    for eps in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        solved = assert_block_matches_single_solves(
            lp.c, _privatized_block(lp, eps, 0.25, range(25)), start)
        assert set(solved.start_path.tolist()) == {"updated"}


def test_entry_appends_an_artificial_per_negative_row_in_row_order():
    # system 0 flips rows 1 and 3, system 1 row 2 and a zero column pads it
    from privlp.simplex import _entered
    n, m = 2, 4
    T = np.zeros((2, m, n + m + 1))
    T[:, :, n:n + m] = np.eye(m)
    T[:, :, -1] = [[1.0, -2.0, 3.0, -4.0], [1.0, 2.0, -3.0, 4.0]]
    basis = np.tile(np.arange(n, n + m), (2, 1))
    equality = np.array([True, False, False, False])
    T, artificial, appended = _entered(T, basis, n, equality)
    assert appended.tolist() == [2, 1]
    assert artificial.tolist() == [False, False, True, False, False, False, True, True]
    assert basis.tolist() == [[2, 6, 4, 7], [2, 3, 6, 5]]
    assert T[:, :, -1].tolist() == [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]
    assert T[0, :, 6:8].tolist() == [[0, 0], [1, 0], [0, 0], [0, 1]]
    assert T[1, :, 6:8].tolist() == [[0, 0], [0, 0], [1, 0], [0, 0]]
    assert T[0, 1, n + 1] == -1.0 and T[1, 2, n + 2] == -1.0  # flipped rows, slack included


def _family(family):
    """The occupancy LP of the default grid or the pinned 12x6 LP, its k, and a baseline start."""
    from pathlib import Path
    from privlp import build_gridworld, default_grid, load_problem, occupancy_lp
    if family == "grid":
        lp, k = occupancy_lp(build_gridworld(default_grid())), 0.25
    else:
        pinned = Path(__file__).parent / "data" / "lp12x6_seed20240817.json"
        lp, k = load_problem(pinned.read_text()), 0.02
    return lp, k, WarmStart(lp.system, solve_lp(lp.c, lp.system).basic_columns)


def _recorded_ratio_ties(monkeypatch):
    """A list recording, per leaving-row choice outside Bland's rule, whether the ratios tied."""
    from privlp import simplex
    from privlp.simplex import PIVOT_TOL
    ties, leaving = [], simplex._Tableau._leaving_row

    def recording(tab, col, bland):
        pos = tab.T[:, col] > PIVOT_TOL
        if pos.any() and not bland:
            ratios = tab.T[pos, -1] / tab.T[pos, col]
            ties.append(bool(np.count_nonzero(ratios <= ratios.min() + PIVOT_TOL) > 1))
        return leaving(tab, col, bland)

    monkeypatch.setattr(simplex._Tableau, "_leaving_row", recording)
    return ties


@pytest.mark.parametrize("family", ["grid", "12x6"])
def test_one_block_finishes_every_kind_of_trial(monkeypatch, family):
    # each trial changes more than half of the rows, and is updated from the
    # baseline as on its own; edits of privatized matrices add a singular
    # start basis (two equal basic columns), an unbounded trial (a column of
    # zeros with a positive cost), a ratio-test tie (a row made a multiple of
    # another, right-hand sides included) and a start that needs phase 1
    from conftest import assert_block_matches_single_solves, block_solutions
    lp, k, start = _family(family)
    A, b = np.asarray(lp.system.A), np.asarray(lp.system.b)
    n = A.shape[1]
    block = _privatized_block(lp, 5.0, k, range(8))
    basic = start.basis[start.basis < n]
    block[4][:, basic[0]] = block[4][:, basic[1]]
    j = next(j for j in range(n) if j not in start.basis and lp.c[j] > 0)
    block[5][:, j] = 0.0
    if family == "grid":
        block[:, b == 0] *= 2.0  # the same flow rows: 24 of the 26 rows change
        block[0] = np.where((b == 0)[:, None], 2.0 * A, A)  # the baseline's region
        r = int(np.argmax(b))
        block[6, 0] = block[6, r] * b[0] / b[r]
        block[7, 0] *= 20.0
    else:
        block[6, 10] = block[6, 0] * b[10] / b[0]
        block[7, 3] *= 3.0
    ties = _recorded_ratio_ties(monkeypatch)
    solved = block_solutions(solve_block(lp.c, block, start))
    kinds = {"ratio tie"} if any(ties) else set()
    for sol in solved:
        kinds.add(sol.status)
        kinds.add(sol.start_path)
        if sol.phase1_pivots:
            kinds.add("phase 1")
        if sol.phase2_pivots:
            kinds.add("phase 2")
        if sol.is_optimal and sol.phase1_pivots + sol.phase2_pivots == 0:
            kinds.add("no pivot")
    assert kinds >= {"ratio tie", OPTIMAL, UNBOUNDED, "updated", "slack", "phase 1", "phase 2",
                     "no pivot"}
    assert max(sol.phase1_pivots + sol.phase2_pivots for sol in solved) >= 2
    assert_block_matches_single_solves(lp.c, block, start)


def test_block_recheck_refuses_a_point_off_its_rows(monkeypatch):
    # one system's refined point is moved off its flow equalities: the
    # stacked re-check must refuse it at FEAS_TOL, whatever the rest of the
    # block; a move well inside FEAS_TOL passes
    from privlp import simplex
    lp, k, start = _family("grid")
    block = _privatized_block(lp, 1.0, k, range(8))
    refined = simplex._refined
    for move, refused in ((1e-6, True), (1e-13, False)):
        def planted(B, b, rhs, move=move):
            out = refined(B, b, rhs)
            out[3] += move
            return out

        monkeypatch.setattr(simplex, "_refined", planted)
        if refused:
            with pytest.raises(RuntimeError, match="simplex returned an infeasible point"):
                solve_block(lp.c, block, start)
        else:
            assert (solve_block(lp.c, block, start).status == OPTIMAL).all()
