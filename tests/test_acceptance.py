"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. Heavy Monte Carlo lives here, not in the unit tests.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from privlp import (
    ConstraintSystem,
    HoffmanSizeError,
    PrivacyParams,
    cost_bound,
    default_grid,
    hoffman_constant,
    privatize_matrix,
    sample_trunc_laplace,
    support_width,
)
from privlp import simplex
from privlp.cmdp import (
    build_gridworld,
    cost_of_privacy,
    occupancy_lp,
    synthesize_policy,
    value_function,
)
from privlp.experiment import ExperimentConfig, records_to_csv, sweep_gridworld
from privlp.seeds import derive_seed

from conftest import random_validated_lp
from oracles import hoffman_bruteforce, lp_oracle

PP = PrivacyParams(epsilon=1.0, delta=0.05, k=1.0)
SWEEP_PRIVACY = dict(delta=0.05, k=0.25)
SWEEP_EPS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)


def _report(number: int, name: str, passed: bool = True):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({name}): {verdict}")
    assert passed


@pytest.fixture(scope="module")
def lp_suite():
    rng = np.random.default_rng(7_031_920)
    return [random_validated_lp(rng) for _ in range(20)]


@pytest.fixture(scope="module")
def grid_setup():
    cfg = default_grid()
    mdp = build_gridworld(cfg)
    grid_lp = occupancy_lp(mdp)
    _, policy_star, obj_star = synthesize_policy(mdp, grid_lp.system)
    v_star = float(mdp.mu @ value_function(mdp, policy_star))
    return cfg, mdp, grid_lp, obj_star, v_star


def test_criterion_01_feasibility_guarantee(lp_suite, grid_setup):
    """Every privatized problem is feasible and its solution satisfies the
    original constraints, over 1000+ seeded rounds, in under 2 minutes."""
    start = time.time()
    rounds = 0
    for idx, lp in enumerate(lp_suite):
        sys_ = lp.system
        for trial in range(48):
            priv = privatize_matrix(sys_, PP, seed=derive_seed(100 + idx, trial))
            sol = simplex.solve_lp(lp.c, dataclasses.replace(sys_, A=priv.A_tilde))
            assert sol.status == simplex.OPTIMAL, f"instance {idx} trial {trial}: {sol.status}"
            assert float(np.max(sys_.A @ sol.x - sys_.b)) <= 1e-9
            assert sol.x.min() >= -1e-9
            rounds += 1
    cfg, mdp, grid_lp, _, _ = grid_setup
    grid_sys = grid_lp.system
    for trial in range(60):
        priv = privatize_matrix(grid_sys, PP, seed=derive_seed(999, trial))
        occupancy, _, _ = synthesize_policy(mdp, dataclasses.replace(grid_sys, A=priv.A_tilde))
        assert float(np.max(grid_sys.A @ occupancy.reshape(-1) - grid_sys.b)) <= 1e-9
        rounds += 1
    elapsed = time.time() - start
    assert rounds >= 1000
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(1, f"feasibility guarantee, {rounds} rounds in {elapsed:.1f}s")


def test_criterion_02_mechanism_distribution():
    """KS distance between 1e5 samples (sigma=1, s=2) and the CDF < 0.01."""
    sigma, s = 1.0, 2.0
    rng = np.random.default_rng(52_001)
    z = np.sort(sample_trunc_laplace(sigma, s, rng, size=100_000))
    # reference CDF by dense trapezoid integration of the density
    grid = np.linspace(-s, s, 200_001)
    density = np.exp(-np.abs(grid) / sigma)
    cdf_grid = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)])
    cdf_grid /= cdf_grid[-1]
    reference = np.interp(z, grid, cdf_grid)
    n = z.size
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(empirical_hi - reference).max(), np.abs(empirical_lo - reference).max())
    assert ks < 0.01, f"KS distance {ks:.5f}"
    _report(2, f"mechanism distribution, KS={ks:.5f}")


def test_criterion_03_empirical_dp_ratio():
    """Histogram DP check on adjacent single-entry inputs at eps=1."""
    n_draws = 1_000_000
    a, a_adj, sup = 0.5, 1.5, 1e9
    s = support_width(PP.k, PP.epsilon, PP.delta, 1)

    def mechanism_outputs(value, seed):
        z = sample_trunc_laplace(PP.sigma, s, np.random.default_rng(seed), size=n_draws)
        return np.minimum(value + (s + z), sup)

    out_a = mechanism_outputs(a, 9_001)
    out_b = mechanism_outputs(a_adj, 9_002)
    edges = np.linspace(a, a_adj + 2 * s, 51)
    count_a, _ = np.histogram(out_a, bins=edges)
    count_b, _ = np.histogram(out_b, bins=edges)
    budget = math.exp(PP.epsilon)
    slack = PP.delta * n_draws
    for x, y in ((count_a, count_b), (count_b, count_a)):
        bound = budget * y + slack + 4.0 * np.sqrt(x)
        assert (x <= bound).all(), f"worst excess {(x - bound).max()}"
    _report(3, "empirical dp ratio, 50 bins x 2 directions")


def test_criterion_04_tightening_invariants():
    """A <= A~ <= sup_A and zero-pattern preservation, exactly, 1e4 matrices."""
    rng = np.random.default_rng(41_404)
    checked = 0
    for i in range(10_000):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        mask = rng.random((m, n)) < 0.3
        A[mask] = 0.0
        sup = A + rng.uniform(0.0, 3.0, (m, n))
        sup[mask] = 0.0
        sys_ = ConstraintSystem(A=A, b=rng.uniform(0.5, 2.0, m), zero_mask=mask, sup_A=sup)
        priv = privatize_matrix(sys_, PP, seed=i)
        assert np.all(priv.A_tilde >= sys_.A)
        assert np.all(priv.A_tilde <= sys_.sup_A)
        assert np.all(priv.A_tilde[mask] == 0.0)
        checked += 1
    _report(4, f"tightening invariants, {checked} matrices, zero violations")


def test_criterion_05_hoffman_oracle_equivalence():
    """Exact enumeration matches definition-level brute force within 1%."""
    rng = np.random.default_rng(55_001)
    worst = 0.0
    for trial in range(50):
        A = rng.normal(size=(3, 2))
        fast = hoffman_constant(A)
        brute = hoffman_bruteforce(A, n_dirs=1_000_000, seed=trial)
        worst = max(worst, abs(fast - brute) / brute)
        assert fast == pytest.approx(brute, rel=1e-2)
    for n in range(1, 6):
        assert hoffman_constant(np.eye(n)) == 1.0
    for trial in range(10):
        A = rng.normal(size=(3, 2))
        alpha = float(rng.uniform(0.1, 10.0))
        assert hoffman_constant(alpha * A) == pytest.approx(hoffman_constant(A) / alpha,
                                                            rel=1e-9)
    _report(5, f"hoffman oracle equivalence, worst rel err {worst:.4f}")


def test_criterion_06_expected_loss_bound(lp_suite, grid_setup):
    """Monte Carlo mean |g(x*) - g(x~*)| over 500 draws within the bound."""
    finite_bounds = 0
    for idx, lp in enumerate(lp_suite):
        report = cost_bound(lp, PP)
        base = simplex.solve_lp(lp.c, lp.system)
        assert base.status == simplex.OPTIMAL
        gaps = np.empty(500)
        for trial in range(500):
            priv = privatize_matrix(lp.system, PP, seed=derive_seed(600 + idx, trial))
            sol = simplex.solve_lp(lp.c, dataclasses.replace(lp.system, A=priv.A_tilde))
            gaps[trial] = abs(base.objective - sol.objective)
        assert gaps.mean() <= report.bound, \
            f"instance {idx}: mean gap {gaps.mean():.4f} > bound {report.bound:.4f}"
        if math.isfinite(report.bound):
            finite_bounds += 1
    cfg, mdp, grid_lp, obj_star, _ = grid_setup
    grid_sys = grid_lp.system
    with pytest.raises(HoffmanSizeError):
        cost_bound(grid_lp, PP)
    # the sweep's rule: beyond the exact-Hoffman support budget the bound is inf
    grid_bound = sweep_gridworld(cfg, ExperimentConfig(
        eps_grid=(PP.epsilon,), trials=1, delta=PP.delta, k=PP.k))[0].predicted_bound
    gaps = []
    for trial in range(500):
        priv = privatize_matrix(grid_sys, PP, seed=derive_seed(606, trial))
        _, _, obj = synthesize_policy(mdp, dataclasses.replace(grid_sys, A=priv.A_tilde))
        gaps.append(abs(obj_star - obj))
    assert np.mean(gaps) <= grid_bound
    _report(6, f"expected-loss bound, {finite_bounds}/20 finite LP bounds all satisfied")


def test_criterion_07_lp_solver_oracle_equivalence():
    """Simplex matches vertex enumeration on 200 instances, m + n <= 10."""
    rng = np.random.default_rng(77_001)
    optimal = infeasible = unbounded = 0
    for case in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, min(6, 11 - m)))
        A = rng.normal(size=(m, n)).round(4)
        if case % 2 == 0:
            b = rng.normal(scale=2.0, size=m).round(4)
        else:
            A[0] = rng.uniform(0.3, 1.2, n).round(4)  # bounded and feasible
            b = (A @ rng.uniform(0.0, 1.0, n) + rng.uniform(0.1, 1.0, m)).round(4)
        c = rng.normal(size=n).round(4)
        sys_ = ConstraintSystem(A=A, b=b, zero_mask=np.zeros((m, n), bool),
                                sup_A=np.abs(A) + 1.0)
        sol = simplex.solve_lp(c, sys_)
        status, best = lp_oracle(c, A, b)
        assert sol.status == status
        if status == simplex.OPTIMAL:
            assert sol.objective == pytest.approx(best, abs=1e-9)
            optimal += 1
        elif status == simplex.INFEASIBLE:
            infeasible += 1
        else:
            unbounded += 1
    # constructed verdicts
    def _sys(A, b):
        A = np.asarray(A, dtype=float)
        return ConstraintSystem(A=A, b=b, zero_mask=np.zeros_like(A, dtype=bool),
                                sup_A=np.abs(A) + 1.0)
    assert simplex.solve_lp([1.0], _sys([[1.0]], [-1.0])).status == simplex.INFEASIBLE
    assert simplex.solve_lp([1.0, 1.0],
                            _sys([[1.0, 0.0], [-1.0, 0.0]], [1.0, -2.0])).status == simplex.INFEASIBLE
    assert simplex.solve_lp([1.0], _sys([[-1.0]], [-2.0])).status == simplex.UNBOUNDED
    assert simplex.solve_lp([0.0, 1.0], _sys([[1.0, -1.0]], [1.0])).status == simplex.UNBOUNDED
    _report(7, f"lp solver oracle equivalence ({optimal} optimal, "
               f"{infeasible} infeasible, {unbounded} unbounded)")


def test_criterion_08_cmdp_identities(grid_setup):
    """Occupancy mass, value-objective duality, and policy stochasticity."""
    cfg, mdp, grid_lp, obj_star, v_star = grid_setup
    occupancy, policy, objective = synthesize_policy(mdp, grid_lp.system)
    assert occupancy.sum() == pytest.approx(1.0 / (1.0 - mdp.gamma), abs=1e-8)
    assert float(mdp.mu @ value_function(mdp, policy)) == pytest.approx(objective, abs=1e-6)
    row_sums = policy.pi.sum(axis=1)
    assert np.abs(row_sums - 1.0).max() <= 1e-9
    assert (policy.pi >= 0).all()
    _report(8, "cmdp identities")


def test_criterion_09_privacy_sweep_properties(grid_setup):
    """Default-grid epsilon sweep: nonnegative, weakly decreasing, strict drop."""
    start = time.time()
    cfg, mdp, grid_lp, obj_star, v_star = grid_setup
    grid_sys = grid_lp.system
    trials = 100
    base_seed = 424_242
    per_eps = []
    for ei, eps in enumerate(SWEEP_EPS):
        params = PrivacyParams(epsilon=eps, **SWEEP_PRIVACY)
        cops = np.empty(trials)
        for trial in range(trials):
            seed = derive_seed(base_seed, ei, trial)
            priv = privatize_matrix(grid_sys, params, seed)
            _, policy, _ = synthesize_policy(mdp, dataclasses.replace(grid_sys, A=priv.A_tilde))
            cops[trial] = cost_of_privacy(v_star, float(mdp.mu @ value_function(mdp, policy)))
        assert (cops >= -1e-9).all(), f"negative cost of privacy at eps={eps}"  # (a)
        per_eps.append((eps, cops.mean(), cops.std(ddof=1) / math.sqrt(trials)))
    for (e1, m1, s1), (e2, m2, s2) in zip(per_eps, per_eps[1:]):  # (b)
        assert m2 <= m1 + 2.0 * math.hypot(s1, s2), \
            f"mean rose from {m1:.3f}% (eps={e1}) to {m2:.3f}% (eps={e2})"
    assert per_eps[-1][1] < per_eps[0][1]  # (c)
    # (d) recorded, not asserted: sanity band 0-30%
    recorded = {eps: round(float(mean), 3) for eps, mean, _ in per_eps if eps >= 3.0}
    library_records = sweep_gridworld(cfg, ExperimentConfig(
        eps_grid=SWEEP_EPS, trials=trials, base_seed=base_seed, **SWEEP_PRIVACY))
    for record, (eps, mean, _) in zip(library_records, per_eps):
        assert record.mean_cost_of_privacy_percent == pytest.approx(mean, abs=1e-9)
        assert record.n_infeasible == 0
    elapsed = time.time() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(9, f"privacy sweep, means at eps>=3 recorded {recorded} (%), {elapsed:.1f}s")


def test_criterion_10_sweep_determinism():
    """Identical config and seed produce byte-identical CSV."""
    config = ExperimentConfig(eps_grid=(0.5, 3.0), trials=5, base_seed=77,
                              **SWEEP_PRIVACY)
    one = records_to_csv(sweep_gridworld(default_grid(), config))
    two = records_to_csv(sweep_gridworld(default_grid(), config))
    assert one.encode() == two.encode()
    _report(10, "sweep determinism, byte-identical csv")
