import math

import pytest

from privlp import (FeasibilityAssumptionError, GridConfig, PrivacyParams, default_grid,
                    support_width)
from privlp.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    records_to_csv,
    records_to_json,
    run_sweep,
    sweep_gridworld,
    sweep_linear_program,
)

from conftest import block_solutions, random_validated_lp


def _grid_config(**kw):
    defaults = dict(eps_grid=(0.5, 2.0), trials=8, base_seed=42, delta=0.05, k=0.25)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(eps_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(eps_grid=(1.0, -2.0))
    with pytest.raises(ValueError):
        ExperimentConfig(eps_grid=(1.0,), trials=0)


@pytest.mark.parametrize("kw, message", [
    ({"eps_grid": (1.0, math.nan)}, "epsilon must be a positive finite real, got nan"),
    ({"eps_grid": (math.inf,)}, "epsilon must be a positive finite real, got inf"),
    ({"delta": 0.7}, "delta must lie in the open interval"),
    ({"k": -1.0}, "k must be a positive finite real, got -1.0"),
])
def test_config_refuses_bad_privacy_values_at_construction(kw, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{"eps_grid": (1.0,), **kw})


def test_config_builds_one_privacy_setting_per_epsilon():
    config = ExperimentConfig(eps_grid=(0.5, 2), delta=0.1, k=0.25)
    assert config.privacy == (PrivacyParams(0.5, 0.1, 0.25), PrivacyParams(2.0, 0.1, 0.25))
    assert config == ExperimentConfig(eps_grid=(0.5, 2.0), delta=0.1, k=0.25)
    with pytest.raises(TypeError):
        ExperimentConfig(eps_grid=(1.0,), privacy=())


@pytest.mark.parametrize("kw, field", [
    ({"eps_grid": (True, "2")}, "epsilon"), ({"eps_grid": (1.0, "2")}, "epsilon"),
    ({"delta": True}, "delta"), ({"k": "0.5"}, "k"),
])
def test_config_refuses_strings_and_booleans_by_name(kw, field):
    with pytest.raises(TypeError, match=f"^{field} must be a real number"):
        ExperimentConfig(**{"eps_grid": (1.0,), **kw})


@pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", True), ("trials", "3"),
                                          ("base_seed", 1.5), ("base_seed", False)])
def test_config_rejects_non_integer_counts_before_any_work(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        ExperimentConfig(eps_grid=(1.0,), **{field: value})


def test_config_takes_numpy_integers_as_ints():
    import numpy as np
    config = ExperimentConfig(eps_grid=(1.0,), trials=np.int64(3), base_seed=np.uint8(7))
    assert (config.trials, config.base_seed) == (3, 7)
    assert type(config.trials) is int and type(config.base_seed) is int


def test_record_count_matches_grid():
    records = sweep_gridworld(default_grid(), _grid_config())
    assert len(records) == 2
    assert all(r.n_trials == 8 and r.n_infeasible == 0 for r in records)


def test_appending_grid_points_preserves_existing_records():
    short = sweep_gridworld(default_grid(), _grid_config(eps_grid=(0.5, 2.0)))
    longer = sweep_gridworld(default_grid(), _grid_config(eps_grid=(0.5, 2.0, 5.0)))
    assert records_to_csv(short).splitlines()[1:3] == records_to_csv(longer).splitlines()[1:3]


def test_csv_deterministic_and_well_formed():
    a = records_to_csv(sweep_gridworld(default_grid(), _grid_config()))
    b = records_to_csv(sweep_gridworld(default_grid(), _grid_config()))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert all(line.endswith(",8,0") for line in lines[1:])


def test_json_records_round_trip():
    import json
    records = sweep_gridworld(default_grid(), _grid_config(eps_grid=(1.0,), trials=3))
    payload = json.loads(records_to_json(records))
    assert payload[0]["epsilon"] == 1.0
    assert payload[0]["n_trials"] == 3
    assert payload[0]["n_infeasible"] == 0


def test_lp_sweep_gap_within_bound(rng):
    lp = random_validated_lp(rng, m=3, n=3, positive_costs=True)
    records = sweep_linear_program(lp, ExperimentConfig(eps_grid=(0.5, 1.0), trials=40,
                                                        base_seed=7, delta=0.05, k=1.0))
    for r in records:
        assert r.mean_abs_objective_gap <= r.predicted_bound
        assert r.mean_cost_of_privacy_percent >= -1e-9
        assert r.n_infeasible == 0


def test_run_sweep_dispatches(rng):
    lp = random_validated_lp(rng, m=2, n=2, positive_costs=True)
    assert len(run_sweep(lp, _grid_config(eps_grid=(1.0,), trials=2, k=1.0))) == 1
    assert len(run_sweep(default_grid(), _grid_config(eps_grid=(1.0,), trials=2))) == 1
    with pytest.raises(TypeError):
        run_sweep(object(), _grid_config())


def test_support_width_limit_is_k_not_zero():
    # as epsilon grows, the support half-width decreases toward k: the
    # mechanism converges to a deterministic +k shift, never back to A
    assert support_width(1.0, 1e6, 0.05, 1) == pytest.approx(1.0, abs=1e-4)
    assert support_width(0.01, 1e6, 0.05, 4) == pytest.approx(0.01, abs=1e-6)


def test_huge_epsilon_with_small_k_costs_nearly_nothing():
    records = sweep_gridworld(default_grid(),
                              ExperimentConfig(eps_grid=(1e6,), trials=5, base_seed=3,
                                               delta=0.05, k=0.01))
    assert records[0].mean_cost_of_privacy_percent < 1.0


def test_lp_sweep_bound_equals_cost_bound_per_epsilon(rng):
    # the sweep computes the bound's geometry once; each record must still
    # carry exactly what a standalone cost_bound call reports
    from privlp import PrivacyParams, cost_bound
    from privlp.accuracy import XI_CLIPPED, XI_INTERIOR
    lp = random_validated_lp(rng, m=4, n=3, positive_costs=True)
    config = ExperimentConfig(eps_grid=(0.5, 1.0, 2.0, 5.0), trials=2, base_seed=5,
                              delta=0.05, k=0.1)
    records = sweep_linear_program(lp, config)
    assert len(records) == 4
    cases = set()
    for r in records:
        report = cost_bound(lp, PrivacyParams(r.epsilon, config.delta, config.k))
        assert r.predicted_bound == report.bound
        cases.add(report.xi_case)
    assert cases == {XI_CLIPPED, XI_INTERIOR}


def _fail_if_called(*args, **kwargs):
    raise AssertionError("sweep work started before the baseline check")


def test_lp_sweep_rejects_nonpositive_baseline_before_any_work(monkeypatch):
    import privlp.experiment as experiment
    from privlp import ConstraintSystem, LinearProgram
    monkeypatch.setattr(experiment, "bound_geometry", _fail_if_called)
    monkeypatch.setattr(experiment, "privatize_matrix", _fail_if_called)
    monkeypatch.setattr(experiment, "privatize_block", _fail_if_called)
    system = ConstraintSystem(A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0],
                              zero_mask=[[False, True], [True, False]],
                              sup_A=[[3.0, 0.0], [0.0, 3.0]])
    lp = LinearProgram(c=[-1.0, -1.0], system=system)
    with pytest.raises(ValueError, match="non-positive baseline"):
        sweep_linear_program(lp, _grid_config(eps_grid=(1.0,), trials=3))


def test_grid_sweep_rejects_nonpositive_baseline_before_any_work(monkeypatch):
    import dataclasses
    import privlp.experiment as experiment
    monkeypatch.setattr(experiment, "bound_geometry", _fail_if_called)
    monkeypatch.setattr(experiment, "privatize_matrix", _fail_if_called)
    monkeypatch.setattr(experiment, "privatize_block", _fail_if_called)
    grid = dataclasses.replace(default_grid(), goal_reward=0.0)
    with pytest.raises(ValueError, match="non-positive baseline"):
        sweep_gridworld(grid, _grid_config(eps_grid=(1.0,), trials=3))


def test_lp_sweep_beyond_hoffman_cap_records_inf_bound(rng):
    # 16x8: 26,332 supports of at most 8 rows counted, past the 16,383 budget
    from privlp import HoffmanSizeError, PrivacyParams, cost_bound
    lp = random_validated_lp(rng, m=16, n=8, positive_costs=True)
    config = ExperimentConfig(eps_grid=(0.5, 2.0), trials=3, base_seed=1, delta=0.05, k=0.1)
    records = sweep_linear_program(lp, config)
    assert [r.predicted_bound for r in records] == [math.inf, math.inf]
    assert all(r.n_trials == 3 and r.n_infeasible == 0 for r in records)
    with pytest.raises(HoffmanSizeError):
        cost_bound(lp, PrivacyParams(0.5, 0.05, 0.1))


def test_lp_sweep_of_a_tall_few_column_lp_records_the_finite_bound(rng):
    # 16x3: 696 supports of at most 3 rows, within the Hoffman budget
    from privlp import cost_bound
    lp = random_validated_lp(rng, m=16, n=3, positive_costs=True)
    config = ExperimentConfig(eps_grid=(0.5, 2.0), trials=20, base_seed=1, delta=0.05, k=0.1)
    records = sweep_linear_program(lp, config)
    for r, p in zip(records, config.privacy):
        assert r.predicted_bound == cost_bound(lp, p).bound
        assert math.isfinite(r.predicted_bound)
        assert r.mean_abs_objective_gap <= r.predicted_bound


# A hazard on the start cell whose public bound alone exceeds the budget: the
# true budget admits policies, the worst case over the bound set does not.
HAZARDOUS_START = GridConfig(width=5, height=5, start=(2, 0), goal=(2, 4),
                             hazards=(((2, 0), 1.0),), f0=1.0, sup_a=3.0)


def test_grid_sweep_rejects_empty_worst_case_before_any_trial(monkeypatch):
    import privlp.experiment as experiment
    monkeypatch.setattr(experiment, "bound_geometry", _fail_if_called)
    monkeypatch.setattr(experiment, "privatize_matrix", _fail_if_called)
    monkeypatch.setattr(experiment, "privatize_block", _fail_if_called)
    with pytest.raises(FeasibilityAssumptionError, match="worst-case region"):
        sweep_gridworld(HAZARDOUS_START, _grid_config(eps_grid=(0.5, 1.0), trials=5, k=1.0))


def _record_solves(monkeypatch):
    """Record the slack-start solves, the block trials as Solutions, and the tableaus built."""
    import privlp.simplex as simplex
    solve, solve_block = simplex.solve_lp, simplex.solve_block
    record = {"slack start": [], "trial": [], "tableaus": 0, "trial tableaus": 0}

    def recording(c, sys_):
        sol = solve(c, sys_)
        record["slack start"].append(sol)
        return sol

    def recording_block(*args):
        before = record["tableaus"]
        solved = solve_block(*args)
        record["trial"] += block_solutions(solved)
        record["trial tableaus"] += record["tableaus"] - before
        return solved

    class Counting(simplex._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            record["tableaus"] += 1

    monkeypatch.setattr(simplex, "solve_lp", recording)
    monkeypatch.setattr(simplex, "solve_block", recording_block)
    monkeypatch.setattr(simplex, "_Tableau", Counting)
    return record


def test_grid_sweep_trials_start_from_the_baseline_basis(monkeypatch):
    record = _record_solves(monkeypatch)
    config = ExperimentConfig(eps_grid=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0), trials=25, base_seed=0,
                              delta=0.05, k=0.25)
    sweep_gridworld(default_grid(), config)
    (baseline,) = record["slack start"]
    trials = [sol.phase1_pivots + sol.phase2_pivots for sol in record["trial"]]
    assert len(trials) == 150
    assert baseline.phase1_pivots + baseline.phase2_pivots > 25  # 32 on the 26-row occupancy LP
    assert sum(trials) / len(trials) < 2
    # a trial whose start is already optimal finishes in the stack, with no
    # pivot and no tableau of its own; one that pivots builds exactly one
    assert trials.count(0) >= 80
    assert record["trial tableaus"] == 150 - trials.count(0)


def test_sweep_trials_report_their_start_path(monkeypatch, rng):
    # one private row of 26 is a rank-one update of the baseline tableau;
    # a 12x6 LP whose rows are all private is a rank-12 update in every trial
    record = _record_solves(monkeypatch)
    sweep_gridworld(default_grid(), ExperimentConfig(
        eps_grid=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0), trials=25, base_seed=0, delta=0.05, k=0.25))
    assert [sol.start_path for sol in record["slack start"]] == ["slack"]
    assert [sol.start_path for sol in record["trial"]] == ["updated"] * 150
    record["slack start"].clear()
    record["trial"].clear()
    lp = random_validated_lp(rng, m=12, n=6, positive_costs=True)
    assert (lp.system.row_nonzero_counts() > 0).all()
    sweep_linear_program(lp, ExperimentConfig(eps_grid=(0.5, 1.0, 5.0), trials=10, k=0.02))
    assert {sol.start_path for sol in record["slack start"]} == {"slack"}
    assert [sol.start_path for sol in record["trial"]] == ["updated"] * 30


def _plant(monkeypatch, faults):
    """Make the sweep's block solves return faulty solutions at the given cells.

    ``faults`` maps a cell's index in the sweep's epsilon-major stream (the
    trial index, for one epsilon) to ``"violate"`` (the point moved off the
    original constraints) or ``"fail"`` (an infeasible status). Returns the
    planted points, by cell.
    """
    import numpy as np
    from privlp import simplex
    planted, done = {}, [0]
    solve_block = simplex.solve_block

    def faulty(c, A_block, start):
        solved = solve_block(c, A_block, start)
        status, x, objective = solved.status.copy(), solved.x.copy(), solved.objective.copy()
        for t in range(len(status)):
            fault = faults.get(done[0] + t)
            if fault == "violate":
                x[t] += 1.0
                planted[done[0] + t] = x[t].copy()
            elif fault == "fail":
                status[t], x[t], objective[t] = simplex.INFEASIBLE, np.nan, np.nan
        done[0] += len(status)
        return solved._replace(status=status, x=x, objective=objective)

    monkeypatch.setattr(simplex, "solve_block", faulty)
    return planted


def _lp12x6():
    from pathlib import Path
    from privlp import load_problem
    return load_problem((Path(__file__).parent / "data" / "lp12x6_seed20240817.json").read_text())


@pytest.mark.parametrize("faults, first", [
    ({9: "violate"}, 9),                 # one planted trial in the second block
    ({2: "violate", 5: "fail"}, 2),      # the earlier trial is reported, as trial by trial
    ({3: "fail", 6: "violate"}, 3),
    ({8: "fail"}, 8),                    # the first trial of a block: no point to re-check
])
def test_planted_faulty_trial_aborts_with_the_trial_by_trial_message(monkeypatch, faults, first):
    import numpy as np
    from privlp import experiment
    from privlp.experiment import SweepAbort
    from privlp.seeds import derive_seed
    monkeypatch.setattr(experiment, "_TRIAL_BLOCK", 8)  # the block layout the cases name
    lp = _lp12x6()
    planted = _plant(monkeypatch, faults)
    config = ExperimentConfig(eps_grid=(1.0,), trials=13, base_seed=4, k=0.02)
    with pytest.raises(SweepAbort) as raised:
        sweep_linear_program(lp, config)
    cell = f"trial {first} at epsilon=1.0 (seed {derive_seed(4, 0, first)})"
    if faults[first] == "violate":
        worst = float(np.max(lp.system.residuals(planted[first])))
        assert worst > 1e-9
        message = f"{cell} violates the original constraints by {worst:.3e}"
    else:
        message = f"{cell} came back Infeasible; a tightened validated problem must stay solvable"
    assert str(raised.value) == message


@pytest.mark.parametrize("fault", ["violate", "fail"])
def test_planted_fault_in_a_block_that_spans_epsilons_names_its_cell(monkeypatch, fault):
    # 3 epsilons x 13 trials: the first block of 32 cells holds all of
    # epsilon 0.5, all of epsilon 1 and trials 0-5 of epsilon 2; cell 20 is
    # trial 7 of epsilon 1, and the later fault at cell 28 is not reported
    import numpy as np
    from privlp import experiment
    from privlp.experiment import SweepAbort
    from privlp.seeds import derive_seed
    assert experiment._TRIAL_BLOCK == 32
    lp = _lp12x6()
    planted = _plant(monkeypatch, {20: fault, 28: "fail"})
    config = ExperimentConfig(eps_grid=(0.5, 1.0, 2.0), trials=13, base_seed=4, k=0.02)
    with pytest.raises(SweepAbort) as raised:
        sweep_linear_program(lp, config)
    cell = f"trial 7 at epsilon=1.0 (seed {derive_seed(4, 1, 7)})"
    if fault == "violate":
        worst = float(np.max(lp.system.residuals(planted[20])))
        assert worst > 1e-9
        assert str(raised.value) == f"{cell} violates the original constraints by {worst:.3e}"
    else:
        assert str(raised.value) == (f"{cell} came back Infeasible; "
                                     "a tightened validated problem must stay solvable")


@pytest.mark.parametrize("source, pinned", [
    (["--grid-config", "demos/grid5.json", "--eps-grid", "0.5,1,2,3,4,5", "--k", "0.25",
      "--delta", "0.05"], "grid5_sweep_seed1_trials13"),
    (["tests/data/lp12x6_seed20240817.json", "--k", "0.02"], "lp12x6_sweep_k0.02_seed1_trials13"),
    (["tests/data/lp12x6_seed20240817.json", "--k", "1", "--eps-grid", "0.1,0.5,1,5,50"],
     "lp12x6_sweep_k1_seed1_trials13"),
])
def test_block_size_does_not_change_the_sweep_bytes(monkeypatch, tmp_path, source, pinned):
    # 6 (or 5) epsilons x 13 trials make a stream of 78 (65) cells; blocks
    # of 5 and of 32 straddle epsilon boundaries, blocks of 1 hold one cell
    # each; at k = 1 every block changes all 12 rows of the LP, by large noise
    from pathlib import Path
    from privlp import experiment
    from privlp.cli import main
    root = Path(__file__).resolve().parent.parent
    argv = ["sweep", *[str(root / tok) if "/" in tok else tok for tok in source],
            "--trials", "13", "--seed", "1"]
    outputs = set()
    for size in (1, 5, 32):
        monkeypatch.setattr(experiment, "_TRIAL_BLOCK", size)
        out = tmp_path / f"block{size}"
        assert main([*argv, "--out", str(out)]) == 0
        outputs.add((out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()))
    ((csv_bytes, json_bytes),) = outputs
    data = root / "tests" / "data"
    assert json_bytes == (data / f"{pinned}.json").read_bytes()
    if (data / f"{pinned}.csv").exists():
        assert csv_bytes == (data / f"{pinned}.csv").read_bytes()


@pytest.mark.parametrize("source, pinned, passes", [
    # 78 cells of 12 free entries: 7.5 KB of noise, one pass; at 5000 bytes, two
    (["--grid-config", "demos/grid5.json", "--eps-grid", "0.5,1,2,3,4,5", "--k", "0.25",
      "--delta", "0.05"], "grid5_sweep_seed1_trials13",
     {(None, 32): [78], (None, 5): [78], (5000, 32): [64, 14], (5000, 5): [40, 38]}),
    # 78 cells of 62 free entries: 38.7 KB, two passes; at 5000 bytes, eight, but
    # never more than one per block
    (["tests/data/lp12x6_seed20240817.json", "--k", "0.02"], "lp12x6_sweep_k0.02_seed1_trials13",
     {(None, 32): [64, 14], (None, 5): [40, 38], (5000, 32): [32, 32, 14],
      (5000, 5): [10] * 7 + [8]}),
])
def test_privatization_passes_keep_the_sweep_bytes(monkeypatch, tmp_path, source, pinned,
                                                    passes):
    # the cells are privatized in as few passes as _PASS_BYTES of noise
    # allows, each a whole number of blocks, spread evenly; at 1 byte every
    # block is its own pass, and passes of 64, 40, 10 or 5 cells cut epsilons
    from pathlib import Path
    from privlp import experiment
    from privlp.cli import main
    root = Path(__file__).resolve().parent.parent
    argv = ["sweep", *[str(root / tok) if "/" in tok else tok for tok in source],
            "--trials", "13", "--seed", "1"]
    made, noise_bytes = [], []  # cells per call, and the noise each call draws
    privatize_block = experiment.privatize_block
    monkeypatch.setattr(experiment, "privatize_block",
                        lambda sys_, params, seeds: made.append(len(seeds))
                        or noise_bytes.append(8 * len(seeds) * sys_.private_rows[2].sum())
                        or privatize_block(sys_, params, seeds))
    passes = {**passes, (1, 32): [32, 32, 14], (1, 5): [5] * 15 + [3]}
    outputs = set()
    for (ceiling, block), sizes in passes.items():
        ceiling = experiment._PASS_BYTES if ceiling is None else ceiling
        monkeypatch.setattr(experiment, "_PASS_BYTES", ceiling)
        monkeypatch.setattr(experiment, "_TRIAL_BLOCK", block)
        made.clear()
        noise_bytes.clear()
        out = tmp_path / f"pass{ceiling}_{block}"
        assert main([*argv, "--out", str(out)]) == 0
        outputs.add((out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()))
        assert made == sizes
        assert all(size % block == 0 for size in made[:-1])
        assert len(made) <= -(-sum(noise_bytes) // ceiling)
    ((csv_bytes, json_bytes),) = outputs
    data = root / "tests" / "data"
    assert json_bytes == (data / f"{pinned}.json").read_bytes()
    if (data / f"{pinned}.csv").exists():
        assert csv_bytes == (data / f"{pinned}.csv").read_bytes()


class _XiRaises:
    """A geometry whose bound completion fails, as an overflowing ``xi`` does."""

    def report(self, system, p):
        raise ValueError("xi is planted to fail")


def _geometry_raising(lp):
    from privlp import DegenerateSystemError
    raise DegenerateSystemError("planted: no admissible row subset")


@pytest.mark.parametrize("geometry, error, message", [
    (_geometry_raising, "DegenerateSystemError", "planted: no admissible row subset"),
    (lambda lp: _XiRaises(), "ValueError", "xi is planted to fail"),
])
@pytest.mark.parametrize("fault", ["violate", "fail"])
def test_a_bound_error_wins_over_a_trial_fault_in_the_first_block(monkeypatch, geometry,
                                                                   error, message, fault):
    # the geometry and every epsilon's xi are computed before the first
    # block, so their error is raised and the block's planted fault is never met
    from privlp import experiment
    monkeypatch.setattr(experiment, "bound_geometry", geometry)
    _plant(monkeypatch, {0: fault})
    blocks = []
    solve_block = experiment.simplex.solve_block
    monkeypatch.setattr(experiment.simplex, "solve_block",
                        lambda *args: blocks.append(args) or solve_block(*args))
    with pytest.raises(ValueError) as raised:
        sweep_linear_program(_lp12x6(), ExperimentConfig(eps_grid=(1.0,), trials=3, k=0.02))
    assert type(raised.value).__name__ == error and str(raised.value) == message
    assert blocks == []  # no block ran


def test_no_thread_outlives_a_sweep_on_any_way_out(monkeypatch):
    # a sweep runs on the caller's thread alone: it starts no thread, on
    # success or on any error, so none can outlive it
    import threading
    from privlp import DegenerateSystemError, experiment, simplex
    lp = _lp12x6()
    config = ExperimentConfig(eps_grid=(0.5, 2.0), trials=4, k=0.02)

    def interrupted(*args):
        raise KeyboardInterrupt

    def no_thread(self):
        raise AssertionError(f"a sweep started the thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    before = threading.active_count()
    sweep_linear_program(lp, config)
    sweep_gridworld(default_grid(), _grid_config(trials=2))  # geometry stops at the budget
    for patch, error in [(lambda p: _plant(p, {1: "fail"}), experiment.SweepAbort),
                         (lambda p: p.setattr(experiment, "bound_geometry", _geometry_raising),
                          DegenerateSystemError),
                         (lambda p: p.setattr(simplex, "solve_block", interrupted),
                          KeyboardInterrupt)]:
        with monkeypatch.context() as patched:
            patch(patched)
            with pytest.raises(error):
                sweep_linear_program(lp, config)
    assert threading.active_count() == before


def test_the_geometry_runs_on_the_callers_thread_under_the_callers_errstate(monkeypatch):
    # np.errstate is a context variable: the geometry must see the caller's
    # setting, on the caller's own thread
    import threading
    import numpy as np
    from privlp import experiment
    from privlp.accuracy import bound_geometry
    seen = []

    def recording(lp):
        seen.append((np.geterr()["over"], threading.get_ident()))
        return bound_geometry(lp)

    lp = _lp12x6()
    config = ExperimentConfig(eps_grid=(0.5, 2.0), trials=3, k=0.02)
    expected = sweep_linear_program(lp, config)
    monkeypatch.setattr(experiment, "bound_geometry", recording)
    with np.errstate(over="raise"):
        assert sweep_linear_program(lp, config) == expected
    ((over, ident),) = seen
    assert over == "raise" and ident == threading.get_ident()
