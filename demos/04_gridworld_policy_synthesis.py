"""Synthesize gridworld policies with a private hazard constraint.

A 5x5 gridworld has a wall of hazardous cells between the start and the
goal. The policy is the solution of an occupancy-measure linear program
whose single hazard-budget row is sensitive: it encodes how dangerous each
hazardous state is. The flow-conservation rows are public (fully masked),
so privatizing the system perturbs only that row. The noise tightens the
budget, so the private policy is more cautious, and its value at the start
state measures what the privacy costs.
"""

import numpy as np

from privlp import (
    PrivacyParams,
    build_gridworld,
    cost_of_privacy,
    default_grid,
    occupancy_lp,
    privatize_matrix,
    synthesize_policy,
    value_function,
)

cfg = default_grid()
mdp = build_gridworld(cfg)
system = occupancy_lp(mdp).system  # row 0 is the hazard budget
print(f"grid {cfg.height}x{cfg.width}, start {cfg.start}, goal {cfg.goal}, "
      f"hazards {[cell for cell, _ in cfg.hazards]}")
print(f"hazard budget f0 = {cfg.f0}, per-coefficient public bound = {cfg.sup_a}")

occupancy, policy, objective = synthesize_policy(mdp, system)
values = value_function(mdp, policy)
v_star = float(mdp.mu @ values)
usage = float(system.A[0] @ occupancy.reshape(-1))
print(f"\nnon-private policy: value at start = {v_star:.4f}, "
      f"hazard usage = {usage:.4f} (budget {cfg.f0} is active)")

params = PrivacyParams(epsilon=2.0, delta=0.05, k=0.25)
priv = privatize_matrix(system, params, seed=99)
occ_p, policy_p, _ = synthesize_policy(mdp, system.tightened(priv.A_tilde))
v_priv = float(mdp.mu @ value_function(mdp, policy_p))
usage_p = float(system.A[0] @ occ_p.reshape(-1))
print(f"private policy (eps={params.epsilon}): value at start = {v_priv:.4f}, "
      f"true hazard usage = {usage_p:.4f} <= {cfg.f0}")
print(f"cost of privacy = {cost_of_privacy(v_star, v_priv):.2f}%")


def preferred_moves(pi):
    letters = np.array(["U", "D", "L", "R"])
    grid = letters[np.argmax(pi, axis=1)].reshape(cfg.height, cfg.width)
    grid[cfg.goal] = "G"
    for cell, _ in cfg.hazards:
        grid[cell] = grid[cell].lower()  # lowercase marks a hazardous cell
    return "\n".join(" ".join(row) for row in grid)


print("\nnon-private preferred moves:   private preferred moves:")
for left, right in zip(preferred_moves(policy.pi).splitlines(),
                       preferred_moves(policy_p.pi).splitlines()):
    print(f"{left}     {right}")
print("(G goal; lowercase marks hazardous cells)")

wall = sorted(mdp.hazard_states)
occ_wall = occupancy.sum(axis=1)[wall]
occ_wall_p = occ_p.sum(axis=1)[wall]
print(f"\ndiscounted occupancy of the wall cells: "
      f"non-private {occ_wall.sum():.4f}, private {occ_wall_p.sum():.4f}")
print("the private policy routes more probability around the wall, which is")
print("exactly where the lost value goes")
