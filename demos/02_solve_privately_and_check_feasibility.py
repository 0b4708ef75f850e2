"""Solve a problem privately and confirm the original constraints still hold.

Because the mechanism only tightens constraints, the privately computed
optimum is always feasible for the true, non-private problem, and its
objective can only be lower. This script hammers that guarantee across
many seeds and reports the observed objective spread.
"""

import numpy as np

from privlp import (
    ConstraintSystem,
    LinearProgram,
    PrivacyParams,
    privatize_matrix,
    solve_lp,
    validate,
)

A = np.array([
    [1.0, 1.0],
    [0.5, 1.5],
])
system = ConstraintSystem(A=A, b=[2.0, 2.5], zero_mask=np.zeros((2, 2), bool),
                          sup_A=A + 2.0)
problem = LinearProgram(c=[3.0, 2.0], system=system)
validate(problem)

baseline = solve_lp(problem.c, system)
print(f"non-private optimum: x = {baseline.x}, objective = {baseline.objective:.6f}")

params = PrivacyParams(epsilon=1.5, delta=0.05, k=0.5)
objectives = []
violations = 0
for seed in range(400):
    priv = privatize_matrix(system, params, seed=seed)
    sol = solve_lp(problem.c, system.tightened(priv.A_tilde))
    assert sol.is_optimal
    worst = float(np.max(A @ sol.x - system.b))
    if worst > 1e-9:
        violations += 1
    objectives.append(sol.objective)

objectives = np.array(objectives)
print(f"\n400 private solves: original-constraint violations = {violations}")
print(f"private objective: mean {objectives.mean():.6f}, "
      f"min {objectives.min():.6f}, max {objectives.max():.6f}")
print(f"never exceeds the non-private optimum: "
      f"{bool((objectives <= baseline.objective + 1e-12).all())}")
