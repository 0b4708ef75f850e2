"""Predict the cost of privacy before running the mechanism.

The expected-loss bound multiplies four computable quantities: the
objective's Lipschitz constant, the largest feasible norm, the Hoffman
constant of the constraint matrix, and a closed-form bound on the expected
matrix perturbation. The script prints each piece, then validates the
prediction against a Monte Carlo estimate of the realized loss.
"""

import numpy as np

from privlp import (
    ConstraintSystem,
    LinearProgram,
    PrivacyParams,
    cost_bound,
    privatize_matrix,
    solve_lp,
    validate,
)

rng = np.random.default_rng(7)
A = np.array([
    [0.8, 0.6],
    [0.3, 1.1],
    [1.0, 0.2],
])
system = ConstraintSystem(A=A, b=[2.0, 2.2, 1.8], zero_mask=np.zeros((3, 2), bool),
                          sup_A=A + 8.0)
problem = LinearProgram(c=[1.0, 1.0], system=system)
validate(problem)

params = PrivacyParams(epsilon=2.0, delta=0.05, k=0.5)
report = cost_bound(problem, params)
print("bound ingredients:")
print(f"  objective Lipschitz constant L = {report.L:.6f}")
print(f"  largest feasible norm          = {report.x_bar_norm:.6f}")
print(f"  Hoffman constant               = {report.hoffman:.6f}")
print(f"  expected-perturbation term     = {report.xi:.6f}  ({report.xi_case} case)")
print(f"  assembled bound                = {report.bound:.6f}")

baseline = solve_lp(problem.c, system)
gaps = []
for seed in range(2000):
    priv = privatize_matrix(system, params, seed=seed)
    sol = solve_lp(problem.c, system.tightened(priv.A_tilde))
    gaps.append(abs(baseline.objective - sol.objective))
print(f"\nMonte Carlo over {len(gaps)} draws:")
print(f"  mean realized loss = {np.mean(gaps):.6f}")
print(f"  within the bound:    {bool(np.mean(gaps) <= report.bound)}")
print("(the bound is one-sided and typically loose; slack is expected)")
