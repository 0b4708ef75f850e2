import dataclasses
import json
import math

import numpy as np
import pytest

from privlp import (
    Cmdp,
    DimensionError,
    GridConfig,
    InfeasibleBudgetError,
    PrivacyParams,
    build_gridworld,
    cost_of_privacy,
    default_grid,
    load_grid_config,
    occupancy_lp,
    privatize_matrix,
    synthesize_policy,
    validate,
    value_function,
)
from privlp.cmdp import DOWN, LEFT, RIGHT, UP
from privlp.seeds import derive_seed


def _single_state_mdp(gamma=0.9, reward=1.0):
    return Cmdp(rewards=[[reward]], transitions=[[[1.0]]], gamma=gamma,
                mu=[1.0], hazard_states=frozenset(), beta=[0.0], f0=1.0)


def _grid2(slip):
    return GridConfig(width=2, height=2, start=(0, 0), goal=(1, 1),
                      hazards=(((0, 1), 1.0),), slip=slip, gamma=0.9, f0=0.5)


# --- gridworld construction --------------------------------------------------

def test_transitions_are_stochastic():
    mdp = build_gridworld(default_grid())
    assert np.allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
    assert (mdp.transitions >= 0).all()


def test_deterministic_move_right():
    mdp = build_gridworld(_grid2(slip=0.0))
    s = 0  # cell (0, 0)
    dist = mdp.transitions[s, RIGHT]
    assert dist[1] == 1.0 and dist.sum() == 1.0


def test_slip_transition_table_hand_enumerated():
    # from (0,0) with action right at slip 0.3: intended (0,1) gets 0.7,
    # down reaches (1,0) with 0.1, up and left bounce off the wall back
    # into (0,0), accumulating 0.2
    mdp = build_gridworld(_grid2(slip=0.3))
    dist = mdp.transitions[0, RIGHT]
    assert dist[1] == pytest.approx(0.7)
    assert dist[2] == pytest.approx(0.1)
    assert dist[0] == pytest.approx(0.2)
    assert dist[3] == 0.0


def test_goal_is_absorbing_and_rewarded():
    cfg = _grid2(slip=0.2)
    mdp = build_gridworld(cfg)
    goal = cfg.cell_index(cfg.goal)
    for action in (UP, DOWN, LEFT, RIGHT):
        assert mdp.transitions[goal, action, goal] == 1.0
    assert (mdp.rewards[goal] == cfg.goal_reward).all()
    off_goal = [s for s in range(4) if s != goal]
    assert (mdp.rewards[off_goal] == 0.0).all()


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        GridConfig(width=2, height=2, start=(0, 0), goal=(5, 5), hazards=())
    with pytest.raises(ValueError):
        GridConfig(width=2, height=2, start=(0, 0), goal=(1, 1),
                   hazards=(((1, 1), 1.0),))  # goal cannot be hazardous
    with pytest.raises(ValueError):
        GridConfig(width=2, height=2, start=(0, 0), goal=(1, 1), hazards=(), slip=1.0)


_TWO_STATES = {"rewards": [[1.0], [0.0]], "transitions": [[[0.5, 0.5]], [[0.0, 1.0]]],
               "gamma": 0.9, "mu": [1.0, 0.0], "hazard_states": frozenset({1}),
               "beta": [0.0, 1.0], "f0": 1.0}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Cmdp(**{**_TWO_STATES, "transitions": [[[1.0]], [[1.0]]]}), DimensionError,
     "transitions must have shape (2, 1, 2), got (2, 1, 1)"),
    (lambda: Cmdp(**{**_TWO_STATES, "beta": [0.0]}), DimensionError,
     "mu and beta must have length equal to the state count"),
    (lambda: Cmdp(**{**_TWO_STATES, "gamma": 1.0}), ValueError, "gamma must lie in (0, 1), got 1.0"),
    (lambda: Cmdp(**{**_TWO_STATES, "transitions": [[[0.5, 0.6]], [[0.0, 1.0]]]}), ValueError,
     "every transitions[s, a, :] must be a probability distribution"),
    (lambda: Cmdp(**{**_TWO_STATES, "mu": [1.5, -0.5]}), ValueError,
     "mu must be a probability distribution"),
    (lambda: Cmdp(**{**_TWO_STATES, "beta": [0.0, -1.0]}), ValueError,
     "hazard weights must be nonnegative"),
    (lambda: Cmdp(**{**_TWO_STATES, "hazard_states": frozenset({2})}), ValueError,
     "hazard_states must be valid state indices"),
    (lambda: GridConfig(width=0, height=2, start=(0, 0), goal=(1, 1), hazards=()), ValueError,
     "grid dimensions must be positive"),
], ids=["transition_shape", "beta_length", "gamma", "transition_rows", "mu", "beta_sign",
        "hazard_index", "grid_size"])
def test_named_refusals(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert raised.type is error and str(raised.value).startswith(message)


def test_grid_config_json_round_trip():
    doc = {"width": 5, "height": 5, "start": [2, 0], "goal": [2, 4],
           "hazards": [{"cell": [1, 2], "beta": 1.0}, {"cell": [2, 2], "beta": 0.5}],
           "slip": 0.1, "gamma": 0.9, "f0": 0.35, "goal_reward": 1.0, "sup_a": 3.0}
    cfg = load_grid_config(json.dumps(doc))
    assert cfg == GridConfig(width=5, height=5, start=(2, 0), goal=(2, 4),
                             hazards=(((1, 2), 1.0), ((2, 2), 0.5)),
                             slip=0.1, gamma=0.9, f0=0.35, goal_reward=1.0, sup_a=3.0)


# --- hazard constraint -------------------------------------------------------

def test_no_hazards_gives_fully_masked_row():
    mdp = build_gridworld(GridConfig(width=2, height=2, start=(0, 0), goal=(1, 1),
                                     hazards=(), f0=1.0))
    sys_ = occupancy_lp(mdp).system
    assert (sys_.A[0] == 0).all()
    assert sys_.zero_mask.all()
    assert (sys_.sup_A[0] == 0).all()


def test_hazard_coefficients_are_beta_gamma():
    mdp = build_gridworld(default_grid())
    sys_ = occupancy_lp(mdp).system
    hazardous = sorted(mdp.hazard_states)
    for s in hazardous:
        for a in range(4):
            assert sys_.A[0, s * 4 + a] == pytest.approx(0.9)  # beta=1, gamma=0.9
            assert sys_.sup_A[0, s * 4 + a] == 3.0
            assert not sys_.zero_mask[0, s * 4 + a]
    free = (~sys_.zero_mask).sum()
    assert free == 4 * len(hazardous)


def test_flow_rows_are_public_equality_rows():
    mdp = build_gridworld(default_grid())
    sys_ = occupancy_lp(mdp).system
    p = mdp.n_states
    assert sys_.shape == (1 + p, 4 * p)
    assert np.linalg.matrix_rank(sys_.A) == 1 + p
    assert sys_.equality.tolist() == [False] + [True] * p
    assert sys_.zero_mask[1:].all()
    assert np.array_equal(sys_.sup_A[1:], sys_.A[1:])
    assert np.array_equal(sys_.b, np.concatenate([[mdp.f0], mdp.mu]))


def test_occupancy_inequality_form_is_the_paired_encoding():
    # the bound reads the flow rows as the pairs flow x <= mu, -flow x <= -mu,
    # written out here from the dynamics, array for array
    mdp = build_gridworld(default_grid())
    sys_ = occupancy_lp(mdp).system
    p, q = mdp.n_states, mdp.n_actions
    flow = np.repeat(np.eye(p), q, axis=1) - mdp.gamma * mdp.transitions.reshape(p * q, p).T
    form = sys_.inequality_form()
    assert form.shape == (1 + 2 * p, q * p) and form.equality is None
    assert np.array_equal(form.A, np.vstack([sys_.A[0], flow, -flow]))
    assert np.array_equal(form.b, np.concatenate([[mdp.f0], mdp.mu, -mdp.mu]))
    assert np.array_equal(form.zero_mask, np.vstack([sys_.zero_mask, np.ones((p, q * p), bool)]))
    assert np.array_equal(form.sup_A, np.vstack([sys_.sup_A, -flow]))


# --- policy synthesis --------------------------------------------------------

def test_single_state_closed_form():
    mdp = _single_state_mdp()
    occupancy, policy, objective = synthesize_policy(mdp, occupancy_lp(mdp).system)
    assert occupancy[0, 0] == pytest.approx(10.0, abs=1e-8)
    assert objective == pytest.approx(10.0, abs=1e-8)
    assert policy.pi[0, 0] == 1.0


def test_occupancy_mass_identity():
    mdp = build_gridworld(default_grid())
    occupancy, _, _ = synthesize_policy(mdp, occupancy_lp(mdp).system)
    assert occupancy.sum() == pytest.approx(1.0 / (1.0 - mdp.gamma), abs=1e-8)


def test_slack_budget_matches_unconstrained():
    cfg = dataclasses.replace(default_grid(), f0=1e6)
    mdp = build_gridworld(cfg)
    _, _, obj_slack = synthesize_policy(mdp, occupancy_lp(mdp).system)
    no_hazard = dataclasses.replace(cfg, hazards=(), f0=1e6)
    mdp2 = build_gridworld(no_hazard)
    _, _, obj_free = synthesize_policy(mdp2, occupancy_lp(mdp2).system)
    assert obj_slack == pytest.approx(obj_free, abs=1e-6)


def test_policy_rows_are_distributions():
    mdp = build_gridworld(default_grid())
    _, policy, _ = synthesize_policy(mdp, occupancy_lp(mdp).system)
    assert np.allclose(policy.pi.sum(axis=1), 1.0, atol=1e-9)
    assert (policy.pi >= 0).all()


def test_policy_from_occupancy_equals_the_checked_construction():
    # the unchecked construction must give what Policy(pi=...) gives, and
    # Policy's checks must pass on its rows
    from privlp.cmdp import Policy, policy_from_occupancy
    mdp = build_gridworld(default_grid())
    occupancy, _, _ = synthesize_policy(mdp, occupancy_lp(mdp).system)
    unreached = occupancy.copy()
    unreached[[0, 3]] = 0.0  # states with zero occupancy get the uniform row
    for x in (occupancy, unreached):
        totals = x.sum(axis=1, keepdims=True)
        pi = np.where(totals > 1e-12, x / np.where(totals > 0, totals, 1.0), 1.0 / mdp.n_actions)
        pi /= pi.sum(axis=1, keepdims=True)
        checked = Policy(pi=pi)
        policy = policy_from_occupancy(mdp, x.reshape(-1))
        assert type(policy) is Policy
        assert policy.pi.dtype == checked.pi.dtype and policy.pi.shape == checked.pi.shape
        assert policy.pi.tobytes() == checked.pi.tobytes()
    assert (policy.pi[[0, 3]] == 1.0 / mdp.n_actions).all()


@pytest.mark.parametrize("rows", [[[0.5, 0.6]], [[1.5, -0.5]], [[0.2, 0.2]],
                                  [[[1.0, 0.0]], [[0.5, 0.6]]]])  # a stack, checked per row
def test_policy_rejects_rows_that_are_not_distributions(rows):
    from privlp.cmdp import Policy
    with pytest.raises(ValueError, match="probability distribution"):
        Policy(pi=np.array(rows))


def test_infeasible_budget_raises():
    mdp = build_gridworld(default_grid())
    sys_ = occupancy_lp(mdp).system
    b = sys_.b.copy()
    b[0] = -1.0  # the hazard budget row
    with pytest.raises(InfeasibleBudgetError):
        synthesize_policy(mdp, dataclasses.replace(sys_, b=b))


# --- value function ----------------------------------------------------------

def test_value_single_state_geometric_series():
    mdp = _single_state_mdp()
    _, policy, _ = synthesize_policy(mdp, occupancy_lp(mdp).system)
    assert value_function(mdp, policy)[0] == pytest.approx(10.0, abs=1e-9)


def test_value_zero_rewards():
    mdp = _single_state_mdp(reward=0.0)
    _, policy, _ = synthesize_policy(mdp, occupancy_lp(mdp).system)
    assert value_function(mdp, policy)[0] == 0.0


def test_value_of_synthesized_policy_matches_objective():
    mdp = build_gridworld(default_grid())
    _, policy, objective = synthesize_policy(mdp, occupancy_lp(mdp).system)
    weighted = float(mdp.mu @ value_function(mdp, policy))
    assert weighted == pytest.approx(objective, abs=1e-6)


def test_stacked_policy_and_value_equal_the_per_point_ones_bitwise(rng):
    from privlp.cmdp import Policy, policy_from_occupancy
    mdp = build_gridworld(default_grid())
    occupancy, _, _ = synthesize_policy(mdp, occupancy_lp(mdp).system)
    X = np.vstack([occupancy.reshape(-1), rng.uniform(0.0, 1.0, (6, occupancy.size))])
    X[2, :8] = 0.0  # two unreached states
    stacked = policy_from_occupancy(mdp, X)
    Policy(pi=stacked.pi)  # a stack passes the checks of construction
    values = value_function(mdp, stacked)
    assert values.shape == (7, mdp.n_states)
    for x, pi, v in zip(X, stacked.pi, values):
        one = policy_from_occupancy(mdp, x)
        assert one.pi.tobytes() == pi.tobytes()
        assert value_function(mdp, one).tobytes() == v.tobytes()
        # the one-policy formula
        P_pi = np.einsum("sa,say->sy", pi, mdp.transitions)
        reference = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * P_pi,
                                    (pi * mdp.rewards).sum(axis=1))
        assert v.tobytes() == reference.tobytes()


# --- cost of privacy ---------------------------------------------------------

def test_cost_of_privacy_arithmetic():
    assert cost_of_privacy(10.0, 9.0) == pytest.approx(10.0)
    assert cost_of_privacy(5.0, 5.0) == 0.0


def test_cost_of_privacy_rejects_nonpositive_baseline():
    # and one that is not finite, as a goal reward of 1.7e308 gives: every cost would be NaN
    for v_star in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            cost_of_privacy(v_star, 1.0)


# --- private synthesis safety ------------------------------------------------

def test_private_policies_respect_original_budget():
    mdp = build_gridworld(default_grid())
    lp = occupancy_lp(mdp)
    sys_ = lp.system
    validate(lp)
    _, policy_star, _ = synthesize_policy(mdp, sys_)
    v_star = float(mdp.mu @ value_function(mdp, policy_star))
    params = PrivacyParams(epsilon=2.0, delta=0.05, k=0.25)
    for trial in range(30):
        priv = privatize_matrix(sys_, params, seed=derive_seed(5, trial))
        occupancy, policy, _ = synthesize_policy(mdp, dataclasses.replace(sys_, A=priv.A_tilde))
        assert float(np.max(sys_.A @ occupancy.reshape(-1) - sys_.b)) <= 1e-9
        cop = cost_of_privacy(v_star, float(mdp.mu @ value_function(mdp, policy)))
        assert cop >= -1e-9  # tightening can only shrink a maximization
