"""Constrained-MDP policy synthesis with a private hazard constraint.

A finite MDP is solved through its occupancy-measure LP: maximize expected
discounted reward over visitation frequencies x(s, a) subject to x >= 0,
one hazard-budget row that caps discounted exposure to hazardous states,
and flow conservation. :func:`occupancy_lp` builds all of it as one
constraint system. Only the hazard row carries sensitive data (the
per-state hazard weights); the flow-conservation rows encode public
dynamics, so they are fully masked equality rows of the same system and
are never privatized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import (ConstraintSystem, DimensionError, LinearProgram, _document, _field, _integer,
                      _real)
from . import simplex

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}


@dataclass(frozen=True)
class Cmdp:
    """Finite MDP with per-state hazard weights and a discounted hazard budget."""

    rewards: np.ndarray        # (p, q)
    transitions: np.ndarray    # (p, q, p); transitions[s, a, y] = P(y | s, a)
    gamma: float
    mu: np.ndarray             # initial state distribution, length p
    hazard_states: frozenset[int]
    beta: np.ndarray           # per-state hazard weights, length p
    f0: float
    hazard_sup: float = 3.0

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=float)
        T = np.asarray(self.transitions, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        p, q = r.shape
        if T.shape != (p, q, p):
            raise DimensionError(f"transitions must have shape ({p}, {q}, {p}), got {T.shape}")
        if mu.shape != (p,) or beta.shape != (p,):
            raise DimensionError("mu and beta must have length equal to the state count")
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if np.any(T < 0) or np.any(np.abs(T.sum(axis=2) - 1.0) > 1e-12):
            raise ValueError("every transitions[s, a, :] must be a probability distribution")
        if np.any(mu < 0) or abs(mu.sum() - 1.0) > 1e-12:
            raise ValueError("mu must be a probability distribution")
        if np.any(beta < 0):
            raise ValueError("hazard weights must be nonnegative")
        if not all(0 <= s < p for s in self.hazard_states):
            raise ValueError("hazard_states must be valid state indices")
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "transitions", T)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "hazard_states", frozenset(int(s) for s in self.hazard_states))

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]


@dataclass(frozen=True)
class Policy:
    """Stochastic policy; pi[s, a] = probability of action a in state s; pi[t, s, a] in a stack."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if np.any(pi < 0) or np.any(np.abs(pi.sum(axis=-1) - 1.0) > 1e-9):
            raise ValueError("every policy row must be a probability distribution")
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class GridConfig:
    """Gridworld layout and experiment knobs; everything lives in config."""

    width: int
    height: int
    start: tuple[int, int]
    goal: tuple[int, int]
    hazards: tuple[tuple[tuple[int, int], float], ...]  # ((row, col), beta)
    slip: float = 0.1
    gamma: float = 0.9
    f0: float = 0.3
    goal_reward: float = 1.0
    sup_a: float = 3.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        cells = [self.start, self.goal] + [cell for cell, _ in self.hazards]
        for r, c in cells:
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ValueError(f"cell ({r}, {c}) lies outside the {self.height}x{self.width} grid")
        if self.goal in {cell for cell, _ in self.hazards}:
            raise ValueError("the goal cell cannot be hazardous")
        if not (0 <= self.slip < 1):
            raise ValueError(f"slip must lie in [0, 1), got {self.slip}")
        if not (0 < self.gamma < 1):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    def cell_index(self, cell: tuple[int, int]) -> int:
        return cell[0] * self.width + cell[1]


def _cell(value) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError("must be a [row, column] pair of integers")
    return _integer(value[0]), _integer(value[1])


def _hazards(value) -> tuple[tuple[tuple[int, int], float], ...]:
    if not (isinstance(value, list)
            and all(isinstance(h, dict) and "cell" in h and "beta" in h for h in value)):
        raise ValueError('must be an array of {"cell": [row, column], "beta": weight} objects')
    return tuple((_cell(h["cell"]), _real(h["beta"], "beta ")) for h in value)


def load_grid_config(text: str) -> GridConfig:
    """Parse the GridConfig JSON schema; raises :class:`SchemaError` naming a bad field.

    Sizes and cells are JSON integers, and the other numbers finite.
    """
    doc = _document(text)
    return GridConfig(width=_field(doc, "width", _integer), height=_field(doc, "height", _integer),
                      start=_field(doc, "start", _cell), goal=_field(doc, "goal", _cell),
                      hazards=_field(doc, "hazards", _hazards, ()),
                      slip=_field(doc, "slip", _real, 0.1), gamma=_field(doc, "gamma", _real, 0.9),
                      f0=_field(doc, "f0", _real, 0.3),
                      goal_reward=_field(doc, "goal_reward", _real, 1.0),
                      sup_a=_field(doc, "sup_a", _real, 3.0))


def default_grid() -> GridConfig:
    """5x5 grid: mid-left start, mid-right goal, hazard wall with end gaps.

    The wall occupies column 2, rows 1-3, so the shortest route crosses a
    hazard and the detour through a gap costs extra steps. The budget is
    tuned so the hazard constraint binds for the optimal non-private policy
    (a slack budget would make privatization free and the experiment
    vacuous) while leaving the worst-case tightened problem comfortably
    feasible.
    """
    hazards = tuple(((r, 2), 1.0) for r in (1, 2, 3))
    return GridConfig(width=5, height=5, start=(2, 0), goal=(2, 4),
                      hazards=hazards, slip=0.1, gamma=0.9, f0=0.35,
                      goal_reward=1.0, sup_a=3.0)


def build_gridworld(cfg: GridConfig) -> Cmdp:
    """Slippery gridworld: intended move with probability 1 - slip, the rest
    split evenly over the other three directions; moving off-grid stays in
    place; the goal state is absorbing and pays its reward on occupancy."""
    p = cfg.width * cfg.height
    q = 4
    goal = cfg.cell_index(cfg.goal)
    states = np.arange(p)
    moves = np.array(list(_MOVES.values()))  # (direction, (dr, dc)), in action order
    rr = states[:, None] // cfg.width + moves[:, 0]
    cc = states[:, None] % cfg.width + moves[:, 1]
    inside = (0 <= rr) & (rr < cfg.height) & (0 <= cc) & (cc < cfg.width)
    dest = np.where(inside, rr * cfg.width + cc, states[:, None])  # (state, direction)
    prob = np.where(np.eye(q, dtype=bool), 1.0 - cfg.slip, cfg.slip / 3.0)  # (action, direction)
    T = np.zeros((p, q, p))
    # one pass over (state, action, direction) in that order, so moves onto one cell add in turn
    np.add.at(T, (states[:, None, None], np.arange(q)[:, None], dest[:, None, :]), prob)
    T[goal] = 0.0
    T[goal, :, goal] = 1.0
    rewards = np.zeros((p, q))
    rewards[goal, :] = cfg.goal_reward
    mu = np.zeros(p)
    mu[cfg.cell_index(cfg.start)] = 1.0
    beta = np.zeros(p)
    hazard_states = set()
    for cell, weight in cfg.hazards:
        idx = cfg.cell_index(cell)
        beta[idx] = weight
        hazard_states.add(idx)
    return Cmdp(rewards=rewards, transitions=T, gamma=cfg.gamma, mu=mu,
                hazard_states=frozenset(hazard_states), beta=beta, f0=cfg.f0,
                hazard_sup=cfg.sup_a)


def occupancy_lp(m: Cmdp) -> LinearProgram:
    """The occupancy-measure LP over flattened variables x(s, a).

    Row 0 is the hazard budget: hazardous (s, a) coordinates carry
    ``beta_s * gamma`` and the public bound ``hazard_sup``; its other
    coefficients are masked structural zeros. Flow conservation follows as
    fully masked (public) equality rows, ``flow x = mu``, one per state.
    The hazard row comes first so that its noise stream is keyed by row 0.
    """
    p, q = m.n_states, m.n_actions
    hazardous = np.zeros(p, dtype=bool)
    hazardous[list(m.hazard_states)] = True
    private = np.repeat(hazardous, q)
    hazard = np.where(private, np.repeat(m.beta * m.gamma, q), 0.0)
    flow = np.repeat(np.eye(p), q, axis=1) - m.gamma * m.transitions.reshape(p * q, p).T
    A = np.vstack([hazard, flow])
    mask = np.ones_like(A, dtype=bool)
    mask[0] = ~private
    sup_A = A.copy()
    sup_A[0, private] = m.hazard_sup
    system = ConstraintSystem(A=A, b=np.concatenate([[m.f0], m.mu]), zero_mask=mask,
                              sup_A=sup_A, equality=np.arange(1 + p) > 0)
    return LinearProgram(c=m.rewards.reshape(p * q), system=system)


class InfeasibleBudgetError(RuntimeError):
    """The hazard budget cuts the occupancy polytope to nothing."""


def policy_from_occupancy(m: Cmdp, x: np.ndarray) -> Policy:
    """The policy pi(a | s) proportional to the occupancy x(s, a).

    ``x`` is one flattened occupancy, or a stack of them along a leading
    axis, which gives a stack of policies. States with zero occupancy
    (unreachable under the optimum) get the uniform action distribution.
    Skips the checks of construction: the rows are nonnegative and
    normalized just above.
    """
    q = m.n_actions
    occupancy = np.maximum(np.reshape(x, (*np.shape(x)[:-1], m.n_states, q)), 0.0)
    totals = occupancy.sum(axis=-1, keepdims=True)
    pi = np.where(totals > 1e-12, occupancy / np.where(totals > 0, totals, 1.0), 1.0 / q)
    pi /= pi.sum(axis=-1, keepdims=True)
    policy = object.__new__(Policy)
    object.__setattr__(policy, "pi", pi)
    return policy


def synthesize_policy(m: Cmdp, system: ConstraintSystem):
    """Solve the occupancy LP over ``system`` and extract the policy.

    ``system`` is ``occupancy_lp(m).system`` or a privatized tightening of
    it. Returns ``(occupancy, Policy, objective)`` where ``occupancy`` has
    shape (states, actions). Raises :class:`InfeasibleBudgetError` when the
    budget admits no policy.
    """
    sol = simplex.solve_lp(m.rewards.reshape(-1), system)
    if sol.status == simplex.INFEASIBLE:
        raise InfeasibleBudgetError(f"hazard budget f0={float(system.b[0])} admits no policy")
    if sol.status == simplex.UNBOUNDED:
        raise RuntimeError("occupancy LP cannot be unbounded for gamma < 1; model is malformed")
    occupancy = np.maximum(sol.x.reshape(m.n_states, m.n_actions), 0.0)
    return occupancy, policy_from_occupancy(m, sol.x), float(sol.objective)


def value_function(m: Cmdp, policy: Policy) -> np.ndarray:
    """State values of a fixed policy, or of a stack of them: solve (I - gamma P_pi) v = r_pi."""
    P_pi = np.einsum("...sa,say->...sy", policy.pi, m.transitions)
    r_pi = (policy.pi * m.rewards).sum(axis=-1)
    return np.linalg.solve(np.eye(m.n_states) - m.gamma * P_pi, r_pi[..., None])[..., 0]


def require_positive_baseline(v_star: float) -> None:
    """The cost of privacy is a percentage of the baseline, so it must be positive and finite."""
    if not 0 < v_star < np.inf:
        raise ValueError(f"cost of privacy is undefined for non-finite or non-positive "
                         f"baseline {v_star}")


def cost_of_privacy(v_star: float, v_tilde: float) -> float:
    """Percent decrease of the initial-state value due to privacy."""
    require_positive_baseline(v_star)
    return (v_star - v_tilde) / v_star * 100.0
