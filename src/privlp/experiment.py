"""Privacy-performance sweep harness.

Runs repeated privatize-and-solve rounds over a grid of epsilon values and
aggregates the cost of privacy, the realized objective gap, and the
predicted performance-loss bound into one record per epsilon. A plain LP
and the gridworld CMDP go through one trial loop: both are a
:class:`LinearProgram` (the CMDP's public flow rows are fully masked
equality rows), and they differ only in how solved points are scored. Per-trial seeds are
hashed from (base seed, epsilon index, trial index), so enlarging the grid
or the trial count never changes existing trials' draws, and a repeated
run with the same config is byte-identical.

Each trial's simplex starts from the baseline solve's final basis, factored
once per sweep: a trial changes only the private rows, so that basis usually
stays feasible and is often still optimal. Epsilon changes only the noise,
never the solve, so a sweep is one stream of (epsilon, trial) cells in
epsilon-major order, cut into blocks of ``_TRIAL_BLOCK`` consecutive cells;
a block may hold trials of several epsilons. The cells are privatized in
passes, each cell under its own epsilon (:func:`mechanism.privatize_block`),
and only their free entries are kept. There are as few passes as would hold
at most ``_PASS_BYTES`` of noise each, and each is a whole number of blocks,
spread evenly, so a pass holds less than one block's noise more than that:
the pinned grid sweep's 150 cells are one pass of 14.4 KB. The first pass
runs before the baseline is factored, while little else is held, and any
other at its first block. The block is the unit of the solve: its cells'
free entries are copied from their pass into a reused buffer that holds
every other entry of ``A`` from the start, finished by the simplex in one
pass (:func:`simplex.solve_block`: only the trials not yet optimal pivot),
re-checked against the original rows in one product and scored in one pass,
and each cell's results go to its own epsilon's record, in trial order. A
block of 32 grid cells holds about 2 MB while it runs. The bound's
geometry depends on neither epsilon nor the draws, so it is computed once,
and each epsilon's bound is completed from it before the first block; an
error from either ends the sweep before any trial runs. Only the sweep
warm-starts, as a non-private evaluation against the true baseline; a
released private solution (``privlp solve --private``) starts from the
slack basis, so that it is a function of the privatized matrix alone and
post-processing covers it.
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
from .mechanism import privatize_block
# perfbench/test_perfbench.py::test_tracer_wraps_every_binding_and_restores_them reads this name
from .mechanism import privatize_matrix  # noqa: F401
from .problem import FEAS_TOL, LinearProgram, PrivacyParams, validate
from .seeds import derive_seed
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


def _aggregate(epsilon, cops, gaps, bound) -> ExperimentRecord:
    cops = np.asarray(cops)
    std = float(cops.std(ddof=1)) if cops.size > 1 else 0.0
    return ExperimentRecord(
        epsilon=float(epsilon),
        mean_cost_of_privacy_percent=float(cops.mean()),
        std_dev=std,
        mean_abs_objective_gap=float(np.mean(gaps)),
        predicted_bound=bound,
        n_trials=int(cops.size),
    )


def _sweep(lp: LinearProgram, config: ExperimentConfig, score) -> list[ExperimentRecord]:
    """Validate, solve the baseline, then privatize and re-solve block by block of cells.

    ``score`` maps a block of solved points, shape ``(k, n)``, to the k
    values whose percent loss is the cost of privacy. The worst case is
    validated and the baseline checked before any geometry or trial work.
    The bound's geometry (``L``, ``||x_bar||`` and ``H(A)``) is then
    computed once and each epsilon's bound completed from it, so an error
    from the geometry or from an epsilon's ``xi`` is raised before any
    block runs. Beyond the exact-Hoffman support budget the bound is
    recorded as ``inf``, which is still a valid bound. The cells' free
    entries are then privatized in passes of whole blocks, of about
    ``_PASS_BYTES`` of noise each, the first one here. The baseline's basis
    is factored once and every trial starts the simplex from it. Each block
    of cells takes its entries from its pass, and is solved, re-checked
    against all original rows and scored together.
    """
    vp = validate(lp)
    sys_ = vp.system
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
    cells = [(ei, trial) for ei in range(len(bounds)) for trial in range(config.trials)]
    seeds = [derive_seed(config.base_seed, ei, trial) for ei, trial in cells]
    params = [config.privacy[ei] for ei, _ in cells]
    rows, free = sys_.private_rows[1:3]
    entry_rows, entry_cols = np.nonzero(free)
    entry_rows = rows[entry_rows]  # where each free entry sits in A
    n_passes = max(1, -(-8 * len(entry_rows) * len(cells) // _PASS_BYTES))  # of _PASS_BYTES each
    per_pass = _TRIAL_BLOCK * -(-len(cells) // (_TRIAL_BLOCK * n_passes))  # whole blocks, evenly
    passes = (privatize_block(sys_, params[f:f + per_pass], seeds[f:f + per_pass])[0][:, free]
              for f in range(0, len(cells), per_pass))  # each cell's privatized free entries
    private = next(passes)  # the first pass runs before the baseline is factored
    start = simplex.WarmStart(sys_, base.basic_columns)
    A_block = np.empty((min(_TRIAL_BLOCK, len(cells)), *sys_.shape))
    A_block[...] = sys_.A  # every entry that no cell changes
    cops, gaps = [[] for _ in bounds], [[] for _ in bounds]
    for first in range(0, len(cells), _TRIAL_BLOCK):
        if first and not first % per_pass:
            private = next(passes)
        block_cells = cells[first:first + _TRIAL_BLOCK]
        block = A_block[:len(block_cells)]
        block[:, entry_rows, entry_cols] = private[first % per_pass:][:len(block)]
        solved = simplex.solve_block(lp.c, block, start)
        # cells are checked in order: those before the first failed solve have a point
        ok = next((t for t, sol in enumerate(solved) if not sol.is_optimal), len(solved))
        X = np.array([sol.x for sol in solved[:ok]]).reshape(ok, sys_.shape[1])
        worst = sys_.residuals(X).max(axis=1)
        violated = np.flatnonzero(worst > FEAS_TOL)
        if violated.size or ok < len(solved):
            t = violated[0] if violated.size else ok
            ei, trial = block_cells[t]
            what = (f"violates the original constraints by {worst[t]:.3e}" if violated.size
                    else f"came back {solved[t].status}; "
                         "a tightened validated problem must stay solvable")
            raise SweepAbort(f"trial {trial} at epsilon={config.eps_grid[ei]} "
                             f"(seed {seeds[first + t]}) {what}")
        for (ei, _), value, sol in zip(block_cells, score(X), solved):
            cops[ei].append(cmdp_mod.cost_of_privacy(base_score, float(value)))
            gaps[ei].append(abs(base.objective - sol.objective))
    return [_aggregate(*record) for record in zip(config.eps_grid, cops, gaps, bounds)]


def sweep_linear_program(lp: LinearProgram, config: ExperimentConfig) -> list[ExperimentRecord]:
    """Epsilon sweep over a plain LP: privatize A, re-solve, compare objectives."""
    return _sweep(lp, config, lambda X: [lp.c @ x for x in X])


def sweep_gridworld(grid: cmdp_mod.GridConfig, config: ExperimentConfig) -> list[ExperimentRecord]:
    """Epsilon sweep over the CMDP application.

    Privatizes the occupancy LP, whose only private row is the hazard
    budget; the cost of privacy compares the initial-state value of the
    privately synthesized policy with the non-private optimum.
    """
    mdp = cmdp_mod.build_gridworld(grid)

    def initial_values(X):
        values = cmdp_mod.value_function(mdp, cmdp_mod.policy_from_occupancy(mdp, X))
        return [mdp.mu @ v for v in values]

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
