"""Privacy-performance sweep harness.

Runs repeated privatize-and-solve rounds over a grid of epsilon values and
aggregates the cost of privacy, the realized objective gap, and the
predicted performance-loss bound into one record per epsilon. A plain LP
and the gridworld CMDP go through one trial loop: both are a
:class:`LinearProgram` (the CMDP's public flow rows are fully masked
equality rows), and they differ only in how solved points are scored.
Per-trial seeds are hashed from (base seed, epsilon index, trial index),
so enlarging the grid or the trial count never changes existing trials'
draws, and a repeated run with the same config is byte-identical.

A sweep is one stream of (epsilon, trial) cells in epsilon-major order,
carried as arrays from seed to record: every cell's seed comes from one
:func:`seeds.derive_seeds` pass, and the cells are privatized in passes of
whole blocks of ``_TRIAL_BLOCK`` cells, each under its own epsilon
(:func:`mechanism.privatize_block`, which draws only free entries). There
are as few passes as would hold at most ``_PASS_BYTES`` of noise each, so a
pass holds less than one block's noise more than that: the pinned grid
sweep's 150 cells are one pass of 14.4 KB. A pass runs at its first block,
after the baseline's basis is factored. Each trial's simplex starts from
that basis: a trial changes only the private rows, so it usually stays
feasible and is often still optimal. A block's free entries are copied
into a reused buffer that holds every other entry of ``A``;
:func:`simplex.solve_block` returns the block as arrays, which are
re-checked against the original rows in one product and scored together,
and the cost of privacy, the gaps and each epsilon's aggregates are
computed over the arrays of every cell. A block of 32 grid cells holds
about 2 MB while it runs. The bound's geometry depends on neither epsilon
nor the draws, so it is computed once and each epsilon's bound completed
from it before the first block. Only the sweep warm-starts, as a
non-private evaluation against the true baseline; a released private
solution (``privlp solve --private``) starts from the slack basis, so that
it is a function of the privatized matrix alone.
"""
from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import cmdp as cmdp_mod
from .accuracy import HoffmanSizeError, bound_geometry
# perfbench/test_perfbench.py::test_tracer_wraps_every_binding_and_restores_them reads privatize_matrix
from .mechanism import privatize_block, privatize_matrix  # noqa: F401
from .problem import FEAS_TOL, LinearProgram, PrivacyParams, validate
from .seeds import derive_seeds
from . import simplex

CSV_HEADER = "epsilon,mean_cop_percent,std_cop,mean_abs_gap,bound,trials,infeasible"
_TRIAL_BLOCK = 32  # cells solved as one block; a grid cell holds about 60 KB, a block about 2 MB
_PASS_BYTES = 1 << 15  # noise drawn per privatization pass; 150 grid cells draw 14.4 KB


class SweepAbort(RuntimeError):
    """A trial produced an infeasible privatized problem.

    Tightened constraints of a validated problem are guaranteed feasible,
    so reaching this state indicates a mechanism or solver bug, and the
    sweep refuses to aggregate past it.
    """


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters; ``privacy``, one :class:`PrivacyParams` per epsilon, is derived."""

    eps_grid: tuple[float, ...]
    trials: int = 100
    base_seed: int = 0
    delta: float = 0.05
    k: float = 1.0
    privacy: tuple[PrivacyParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        privacy = tuple(PrivacyParams(eps, self.delta, self.k) for eps in self.eps_grid)
        if not privacy:
            raise ValueError("eps_grid must be a non-empty list of positive reals")
        for name in ("trials", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "eps_grid", tuple(float(p.epsilon) for p in privacy))
        object.__setattr__(self, "privacy", privacy)


@dataclass(frozen=True)
class ExperimentRecord:
    """Aggregates of one epsilon's trials; ``n_infeasible`` is always 0."""

    epsilon: float
    mean_cost_of_privacy_percent: float
    std_dev: float
    mean_abs_objective_gap: float
    predicted_bound: float
    n_trials: int
    n_infeasible: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _aggregate(epsilon, cops: np.ndarray, gaps: np.ndarray, bound) -> ExperimentRecord:
    std = float(cops.std(ddof=1)) if cops.size > 1 else 0.0
    return ExperimentRecord(float(epsilon), float(cops.mean()), std, float(gaps.mean()), bound,
                            int(cops.size))


def _sweep(lp: LinearProgram, config: ExperimentConfig, score) -> list[ExperimentRecord]:
    """Validate, solve the baseline, then privatize and re-solve block by block of cells.

    ``score`` maps a block of solved points, shape ``(k, n)``, to the k
    values whose percent loss is the cost of privacy. The worst case is
    validated and the baseline checked first. The bound's geometry (``L``,
    ``||x_bar||``, ``H(A)``) and each epsilon's bound follow, so an error
    from either is raised before any block runs; beyond the exact-Hoffman
    support budget the bound is ``inf``, still a valid bound. A failed or
    infeasible cell raises :class:`SweepAbort`, naming the first in order.
    """
    sys_ = validate(lp).system
    base = simplex.solve_lp(lp.c, sys_)
    if not base.is_optimal:
        raise ValueError(f"baseline problem is {base.status}; the sweep needs a finite optimum")
    base_score = float(score(base.x[None])[0])
    cmdp_mod.require_positive_baseline(base_score)
    try:
        geometry = bound_geometry(lp)
    except HoffmanSizeError:
        geometry = None
    bounds = [math.inf if geometry is None else geometry.report(sys_, p).bound
              for p in config.privacy]
    cells = len(bounds) * config.trials  # epsilon-major: cell i is trial i % trials of epsilon i // trials
    eps_index, trial = np.divmod(np.arange(cells), config.trials)
    seeds = derive_seeds(config.base_seed, eps_index, trial)
    params = [config.privacy[ei] for ei in eps_index.tolist()]
    free = ~sys_.zero_mask
    n_passes = max(1, -(-8 * int(free.sum()) * cells // _PASS_BYTES))  # of _PASS_BYTES each
    per_pass = _TRIAL_BLOCK * -(-cells // (_TRIAL_BLOCK * n_passes))  # whole blocks, evenly
    start = simplex.WarmStart(sys_, base.basic_columns)
    A_block = np.empty((min(_TRIAL_BLOCK, cells), *sys_.shape))
    A_block[...] = sys_.A  # every entry that no cell changes
    values, objective = np.empty(cells), np.empty(cells)
    for first in range(0, cells, _TRIAL_BLOCK):
        if not first % per_pass:  # the pass's privatized free entries, one row per cell
            private = privatize_block(sys_, params[first:first + per_pass],
                                      seeds[first:first + per_pass])[0]
        block = A_block[:cells - first]
        block[:, free] = private[first % per_pass:][:len(block)]
        solved = simplex.solve_block(lp.c, block, start)
        worst = sys_.residuals(solved.x).max(axis=1)  # NaN where a solve failed
        failed = solved.status != simplex.OPTIMAL
        bad = np.flatnonzero(failed | (worst > FEAS_TOL))
        if bad.size:  # the first cell, in order, that failed or violates a row
            t, cell = bad[0], first + bad[0]
            what = (f"came back {solved.status[t]}; a tightened validated problem must stay "
                    "solvable" if failed[t] else
                    f"violates the original constraints by {worst[t]:.3e}")
            raise SweepAbort(f"trial {trial[cell]} at epsilon={config.eps_grid[eps_index[cell]]} "
                             f"(seed {seeds[cell]}) {what}")
        values[first:first + len(block)] = score(solved.x)
        objective[first:first + len(block)] = solved.objective
    cops = cmdp_mod.cost_of_privacy(base_score, values).reshape(-1, config.trials)
    gaps = np.abs(base.objective - objective).reshape(-1, config.trials)
    return [_aggregate(*record) for record in zip(config.eps_grid, cops, gaps, bounds)]


def sweep_linear_program(lp: LinearProgram, config: ExperimentConfig) -> list[ExperimentRecord]:
    """Epsilon sweep over a plain LP: privatize A, re-solve, compare objectives."""
    return _sweep(lp, config, lambda X: np.vecdot(X, lp.c))


def sweep_gridworld(grid: cmdp_mod.GridConfig, config: ExperimentConfig) -> list[ExperimentRecord]:
    """Epsilon sweep over the CMDP application.

    Privatizes the occupancy LP, whose only private row is the hazard
    budget; the cost of privacy compares the initial-state value of the
    privately synthesized policy with the non-private optimum.
    """
    mdp = cmdp_mod.build_gridworld(grid)

    def initial_values(X):
        values = cmdp_mod.value_function(mdp, cmdp_mod.policy_from_occupancy(mdp, X))
        return np.vecdot(values, mdp.mu)

    return _sweep(cmdp_mod.occupancy_lp(mdp), config, initial_values)


def run_sweep(problem, config: ExperimentConfig) -> list[ExperimentRecord]:
    """Dispatch a sweep for either a LinearProgram or a GridConfig."""
    if isinstance(problem, LinearProgram):
        return sweep_linear_program(problem, config)
    if isinstance(problem, cmdp_mod.GridConfig):
        return sweep_gridworld(problem, config)
    raise TypeError(f"cannot sweep over {type(problem).__name__}")


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Fixed-column CSV with floats at 9 significant digits."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r.epsilon), _fmt(r.mean_cost_of_privacy_percent), _fmt(r.std_dev),
            _fmt(r.mean_abs_objective_gap), _fmt(r.predicted_bound),
            str(r.n_trials), str(r.n_infeasible),
        ]))
    return "\n".join(lines) + "\n"


def records_to_json(records: list[ExperimentRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2) + "\n"
