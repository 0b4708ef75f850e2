import json

import numpy as np
import pytest

from privlp.cli import main

BASIC = {
    "c": [1.0, 1.0],
    "A": [[1.0, 0.0], [0.0, 1.0]],
    "b": [1.0, 1.0],
    "sup_A": [[3.0, 0.0], [0.0, 3.0]],
    "privacy": {"epsilon": 1.0, "delta": 0.05, "k": 1.0},
}

GRID = {"width": 5, "height": 5, "start": [2, 0], "goal": [2, 4],
        "hazards": [{"cell": [1, 2], "beta": 1.0}, {"cell": [2, 2], "beta": 1.0},
                    {"cell": [3, 2], "beta": 1.0}],
        "slip": 0.1, "gamma": 0.9, "f0": 0.35}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(BASIC))
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID))
    return str(path)


def test_privatize_deterministic_bytes(problem_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["privatize", problem_file, "--seed", "9", "--out", out1]) == 0
    assert main(["privatize", problem_file, "--seed", "9", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    doc = json.loads(open(out1).read())
    assert "seed" not in doc["mechanism"]  # the mechanism's secret is never released
    assert doc["mechanism"]["sigma"] == 1.0
    A = np.array(doc["A"])
    assert (A >= np.array(BASIC["A"])).all()
    assert (A <= np.array(BASIC["sup_A"])).all()


def test_unseeded_runs_draw_fresh_noise_and_release_no_seed(tmp_path):
    # without --seed the seed comes from the OS: two runs differ, and neither
    # output holds a seed from which the noise could be regenerated
    from pathlib import Path
    data = Path(__file__).resolve().parent / "data"
    problem = str(data / "lp12x6_seed20240817.json")
    flags = ["--epsilon", "1", "--k", "0.02", "--delta", "0.05"]
    for command in (["privatize"], ["solve", "--private"]):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main([command[0], problem, *command[1:], *flags, "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] != outputs[1]
        assert all('"seed"' not in text for text in outputs)
    assert "seed" not in json.loads(
        (data / "lp12x6_privatize_eps1_k0.02_seed7.json").read_text())["mechanism"]


def _replayed_A(doc, seed):
    """Rebuild the private entries of ``A`` from a privatize document and a guessed seed.

    Each row's noise is regenerated from ``row_stream(seed, i)`` and
    ``_inverse_cdf``, and ``A_tilde - (s_i + z)`` is ``A`` on every unclipped
    entry when the seed is right. NaN at masked entries.
    """
    from privlp.mechanism import _inverse_cdf
    from privlp.seeds import row_stream
    A_tilde, free = np.array(doc["A"]), ~np.array(doc["zero_mask"])
    sigma = doc["mechanism"]["sigma"]
    rebuilt = np.full(A_tilde.shape, np.nan)
    for i, s_i in enumerate(doc["mechanism"]["row_supports"]):
        if s_i > 0:
            z = _inverse_cdf(row_stream(seed, i).random(free[i].sum()), np.asarray(s_i), sigma)
            rebuilt[i, free[i]] = A_tilde[i, free[i]] - (s_i + z)
    return rebuilt


def test_unseeded_privatize_document_does_not_give_back_A(tmp_path):
    # the attack works on a document whose seed is known (the seed-7 pin) and
    # recovers nothing from an unseeded one, even with the old default seed 0
    from pathlib import Path
    from privlp import load_problem
    data = Path(__file__).resolve().parent / "data"
    problem = data / "lp12x6_seed20240817.json"
    system = load_problem(problem.read_text()).system
    free = ~system.zero_mask
    pin_text = (data / "lp12x6_privatize_eps1_k0.02_seed7.json").read_text()
    pinned = json.loads(pin_text)
    unclipped = free & (np.array(pinned["A"]) < np.array(pinned["sup_A"]))
    assert unclipped.sum() == 62  # every private entry: a clipped one gives a lower bound only
    assert np.abs(_replayed_A(pinned, 7) - system.A)[unclipped].max() <= 1e-9
    out = tmp_path / "unseeded.json"
    assert main(["privatize", str(problem), "--epsilon", "1", "--k", "0.02", "--delta", "0.05",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert not (np.abs(_replayed_A(json.loads(text), 0) - system.A)[free] <= 1e-9).any()
    assert '"seed"' not in text and '"seed"' not in pin_text


def test_privatize_fully_masked_passes_through(tmp_path, capsys):
    doc = {"c": [1.0], "A": [[0.0]], "b": [1.0], "sup_A": [[0.0]],
           "privacy": {"epsilon": 1.0, "delta": 0.05, "k": 1.0}}
    path = tmp_path / "masked.json"
    path.write_text(json.dumps(doc))
    assert main(["privatize", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["A"] == [[0.0]]
    assert out["mechanism"]["row_supports"] == [0.0]


def test_privatize_row_supports_match_closed_form(problem_file, capsys):
    from privlp import support_width
    assert main(["privatize", problem_file, "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = support_width(1.0, 1.0, 0.05, 1)  # one free entry per row
    assert doc["mechanism"]["row_supports"] == pytest.approx([expected, expected])


def test_solve_unit_box(problem_file, capsys):
    assert main(["solve", problem_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Optimal"
    assert payload["objective"] == pytest.approx(2.0)


def test_private_solve_reports_original_feasibility(problem_file, capsys):
    assert main(["solve", problem_file, "--private", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Optimal"
    assert payload["original_feasible"] is True
    assert payload["objective"] <= 2.0 + 1e-12


def test_private_objective_never_beats_nonprivate_across_seeds(problem_file, capsys):
    for seed in range(100):
        assert main(["solve", problem_file, "--private", "--seed", str(seed)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["original_feasible"] is True
        assert payload["objective"] <= 2.0 + 1e-12


def test_privacy_flags_override_file(problem_file, capsys):
    assert main(["privatize", problem_file, "--epsilon", "2.0", "--k", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mechanism"]["sigma"] == 0.25  # k / epsilon


def test_bound_zero_objective(tmp_path, capsys):
    doc = dict(BASIC, c=[0.0, 0.0])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["L"] == 0.0
    assert payload["bound"] == 0.0


def test_bound_clipped_zero_when_matrix_at_supremum(tmp_path, capsys):
    doc = {"c": [1.0], "A": [[3.0]], "b": [1.0], "sup_A": [[3.0]],
           "privacy": {"epsilon": 1.0, "delta": 0.05, "k": 1.0}}
    path = tmp_path / "atsup.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi_case"] == "clipped"
    assert payload["xi"] == 0.0
    assert payload["bound"] == 0.0


def test_bound_names_a_gram_overflow(tmp_path, capsys):
    # entries above about 1.3e154 overflow A @ A.T; the Hoffman constant must
    # not be computed from the overflowed Gram matrix
    doc = dict(BASIC, A=[[1e200, 1.0], [0.0, 1.0]], sup_A=[[2e200, 3.0], [0.0, 3.0]])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: A @ A.T overflows; entries of A are too large\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, message", [
    ("bound_xi_overflows.json", "the norm of A - sup_A overflows; entries of A - sup_A are too large"),
    ("bound_lipschitz_overflows.json", "the norm of c overflows; entries of c are too large"),
    ("bound_xi_interior_overflows.json",
     "the interior xi overflows; k/epsilon and the support widths are too large"),
    ("bound_vertex_overflows.json",
     "vertex enumeration overflows; the region's vertex coordinates are too large"),
])
def test_bound_names_an_overflowing_norm(tmp_path, capsys, name, message):
    # the first two printed Infinity for xi or L, and so for the bound, and
    # exited 0; the interior xi ended in a bare OverflowError's traceback;
    # the vertex case, a bounded square, printed Infinity for x_bar_norm
    from pathlib import Path
    out = tmp_path / "bound.json"
    problem = Path(__file__).parent / "data" / name
    assert main(["bound", str(problem), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("privatize", ["--epsilon", "1e-320", "--k", "1"]),       # k/epsilon overflows
    ("privatize", ["--epsilon", "1e-300", "--k", "1e300"]),
    ("solve", ["--private", "--epsilon", "1", "--k", "1e308"]),  # k/epsilon is finite, s_i is not
    ("solve", ["--private", "--epsilon", "1e-320", "--k", "1"]),
])
def test_private_runs_name_a_noise_scale_that_is_not_finite(problem_file, tmp_path, capsys,
                                                            command, flags):
    out = tmp_path / "out.json"
    assert main([command, problem_file, *flags, "--seed", "7", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the noise scale k/epsilon and every support width must be finite")
    assert captured.out == "" and not out.exists()


def test_sweep_writes_csv_and_json(grid_file, tmp_path):
    prefix = str(tmp_path / "sweep")
    args = ["sweep", "--grid-config", grid_file, "--eps-grid", "0.5,2",
            "--trials", "5", "--seed", "11", "--k", "0.25", "--out", prefix]
    assert main(args) == 0
    csv_text = open(prefix + ".csv").read()
    lines = csv_text.splitlines()
    assert lines[0] == "epsilon,mean_cop_percent,std_cop,mean_abs_gap,bound,trials,infeasible"
    assert len(lines) == 3
    records = json.loads(open(prefix + ".json").read())
    assert [r["epsilon"] for r in records] == [0.5, 2.0]
    assert all(r["n_infeasible"] == 0 for r in records)


def test_sweep_byte_identical_on_repeat(grid_file, tmp_path):
    args = lambda p: ["sweep", "--grid-config", grid_file, "--eps-grid", "1,3",
                      "--trials", "4", "--seed", "21", "--k", "0.25", "--out", p]
    assert main(args(str(tmp_path / "one"))) == 0
    assert main(args(str(tmp_path / "two"))) == 0
    assert open(tmp_path / "one.csv", "rb").read() == open(tmp_path / "two.csv", "rb").read()
    assert open(tmp_path / "one.json", "rb").read() == open(tmp_path / "two.json", "rb").read()


def test_sweep_on_lp_problem(problem_file, capsys):
    assert main(["sweep", problem_file, "--eps-grid", "1,2", "--trials", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) <= float(fields[4])  # mean gap within bound


def test_sweep_requires_exactly_one_source(problem_file, grid_file, capsys):
    assert main(["sweep"]) == 1
    assert main(["sweep", problem_file, "--grid-config", grid_file]) == 1


def test_validation_failure_exits_nonzero(tmp_path, capsys):
    bad = {"c": [1.0], "A": [[1.0]], "b": [-1.0], "sup_A": [[2.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["solve", str(path)]) == 1
    assert "worst-case region" in capsys.readouterr().err


def test_missing_epsilon_reported(tmp_path, capsys):
    doc = {"c": [1.0], "A": [[1.0]], "b": [1.0], "sup_A": [[2.0]]}
    path = tmp_path / "noeps.json"
    path.write_text(json.dumps(doc))
    assert main(["privatize", str(path)]) == 1
    assert "epsilon" in capsys.readouterr().err


def test_unreadable_file_reported(capsys):
    assert main(["solve", "/nonexistent/problem.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command, written", [
    (["bound", "--epsilon", "1"], ""),
    (["sweep", "--eps-grid", "1", "--trials", "2"], ".csv"),
])
def test_unwritable_out_reported(problem_file, tmp_path, capsys, command, written):
    out = tmp_path / "missing" / "out"
    argv = [command[0], problem_file, *command[1:], "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}{written}: ")
    assert captured.out == "" and not out.parent.exists()


def test_bad_eps_grid_token_names_the_flag(problem_file, capsys):
    assert main(["sweep", problem_file, "--eps-grid", "1,x", "--trials", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: --eps-grid: could not convert string to float: 'x'\n")


@pytest.mark.parametrize("field, doc", [
    ("width", {"height": 5, "start": [2, 0], "goal": [2, 4]}),
    ("height", dict(GRID, height=None)),
    ("start", dict(GRID, start="a1")),
    ("hazards", dict(GRID, hazards=[{"cell": [1, 2]}])),
    ("slip", dict(GRID, slip=[0.1])),
])
def test_sweep_bad_grid_config_names_the_field(tmp_path, capsys, field, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--grid-config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:")


def _hazard_beta(value):
    return dict(GRID, hazards=[dict(GRID["hazards"][0], beta=value)] + GRID["hazards"][1:])


@pytest.mark.parametrize("field, doc", [
    ("hazards", _hazard_beta(float("nan"))),
    ("hazards", _hazard_beta(float("inf"))),
    ("f0", dict(GRID, f0=float("nan"))),
    ("f0", dict(GRID, f0=float("inf"))),
    ("goal_reward", dict(GRID, goal_reward=float("nan"))),
    ("goal_reward", dict(GRID, goal_reward=float("-inf"))),
    ("width", dict(GRID, width=2.7)),
    ("width", dict(GRID, width="5")),
    ("height", dict(GRID, height=True)),
    ("slip", dict(GRID, slip="0.1")),
], ids=["beta-nan", "beta-inf", "f0-nan", "f0-inf", "reward-nan", "reward-inf",
        "width-float", "width-string", "height-bool", "slip-string"])
def test_sweep_non_finite_or_non_integer_grid_field_is_named(tmp_path, capsys, field, doc):
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", "--grid-config", str(path), "--eps-grid", "1", "--trials", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}:")
    assert captured.out == ""
    if field == "hazards":
        assert "beta must be a finite number" in captured.err


def test_sweep_nonpositive_baseline_reported(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(BASIC, c=[-1.0, -1.0])))
    assert main(["sweep", str(path), "--eps-grid", "1", "--trials", "3"]) == 1
    assert "non-positive baseline" in capsys.readouterr().err


def test_sweep_empty_grid_worst_case_reported(tmp_path, capsys):
    # hazard on the start cell with beta=1, f0=1 and sup_a=3: feasible as
    # given, empty in the worst case, so the sweep must stop before any trial
    doc = dict(GRID, hazards=[{"cell": [2, 0], "beta": 1.0}], f0=1.0, sup_a=3.0)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", "--grid-config", str(path), "--eps-grid", "0.5,1", "--k", "1",
            "--trials", "5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "worst-case region" in captured.err
    assert captured.out == ""


def test_lp_sweep_validates_the_problem_once(problem_file, monkeypatch):
    import privlp.cli as cli
    import privlp.experiment as experiment
    from privlp import validate
    calls = []

    def counting(lp):
        calls.append(lp)
        return validate(lp)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(experiment, "validate", counting)
    assert main(["sweep", problem_file, "--eps-grid", "1", "--trials", "2"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("source", ["problem", "grid"])
@pytest.mark.parametrize("flags", [["--eps-grid", "1,nan"], ["--eps-grid", "inf"],
                                   ["--delta", "0.7"], ["--k", "-1"]])
def test_sweep_refuses_bad_privacy_values_before_validating(problem_file, grid_file, monkeypatch,
                                                            capsys, source, flags):
    import privlp.cli as cli
    import privlp.experiment as experiment
    calls = []
    monkeypatch.setattr(cli, "validate", calls.append)
    monkeypatch.setattr(experiment, "validate", calls.append)
    where = [problem_file] if source == "problem" else ["--grid-config", grid_file]
    assert main(["sweep", *where, "--trials", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must" in captured.err
    assert calls == [] and captured.out == ""


@pytest.mark.parametrize("doc", [
    {"c": [1.0], "A": [[1.0]], "b": [-1.0], "sup_A": [[2.0]]},  # empty worst case
    {"c": [1.0], "A": [[3.0]], "b": [1.0], "sup_A": [[2.0]]},   # A above sup_A
])
def test_lp_sweep_reports_a_bad_problem_as_validate_does(tmp_path, capsys, doc):
    from privlp import load_problem, validate
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as raised:
        validate(load_problem(json.dumps(doc)))
    assert main(["sweep", str(path), "--eps-grid", "1", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {raised.value}\n"
    assert captured.out == ""


def test_grid_sweep_bytes_match_the_pinned_csv(capsys):
    # the README experiment at 25 trials; warm-started trials must reproduce
    # the output of the slack-start solver byte for byte
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    argv = ["sweep", "--grid-config", str(root / "demos" / "grid5.json"),
            "--eps-grid", "0.5,1,2,3,4,5", "--k", "0.25", "--delta", "0.05",
            "--seed", "0", "--trials", "25"]
    assert main(argv) == 0
    expected = (root / "tests" / "data" / "grid5_sweep_seed0_trials25.csv").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("source, pinned", [
    (["--grid-config", "demos/grid5.json", "--eps-grid", "0.5,1,2,3,4,5", "--k", "0.25",
      "--delta", "0.05", "--trials", "25", "--seed", "0"], "grid5_sweep_seed0_trials25"),
    (["tests/data/lp12x6_seed20240817.json", "--k", "0.02", "--trials", "20", "--seed", "0"],
     "lp12x6_sweep_k0.02_seed0_trials20"),
    # held-out seed, 13 trials: 78 cells in blocks of 32 that straddle epsilons, the last partial
    (["--grid-config", "demos/grid5.json", "--eps-grid", "0.5,1,2,3,4,5", "--k", "0.25",
      "--delta", "0.05", "--trials", "13", "--seed", "1"], "grid5_sweep_seed1_trials13"),
    (["tests/data/lp12x6_seed20240817.json", "--k", "0.02", "--trials", "13", "--seed", "1"],
     "lp12x6_sweep_k0.02_seed1_trials13"),
])
def test_sweep_json_matches_the_pinned_full_precision_bytes(tmp_path, source, pinned):
    # the JSON carries every bit of each aggregate, which the 9-digit CSV
    # cannot; the 12x6 LP is conftest.random_validated_lp(default_rng(20240817),
    # m=12, n=6, positive_costs=True), a sweep whose trials all re-factor
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / tok) if tok.endswith(".json") else tok for tok in source]
    assert main(["sweep", *paths, "--out", str(tmp_path / "out")]) == 0
    expected = (root / "tests" / "data" / f"{pinned}.json").read_bytes()
    assert (tmp_path / "out.json").read_bytes() == expected


def test_bound_json_matches_the_pinned_bytes(tmp_path):
    # x_bar_norm comes from the vertex enumeration; the walk over feasible
    # bases must reproduce the scan's report bit for bit
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "bound.json"
    assert main(["bound", str(root / "tests" / "data" / "lp12x6_seed20240817.json"),
                 "--epsilon", "1", "--k", "0.02", "--delta", "0.05", "--out", str(out)]) == 0
    expected = (root / "tests" / "data" / "lp12x6_bound_eps1_k0.02.json").read_bytes()
    assert out.read_bytes() == expected


def test_bound_json_with_dependent_rows_matches_the_pinned_bytes(tmp_path):
    # 14 rows of rank 6: rows 0-10 of the 12x6 LP, a duplicate of row 2, 2.5
    # times row 1 and row 3 negated, so the Hoffman constant must exclude the
    # supports that hold one of those dependent pairs
    from pathlib import Path
    data = Path(__file__).resolve().parent / "data"
    out = tmp_path / "bound.json"
    assert main(["bound", str(data / "lp14x6_dependent_rows.json"),
                 "--epsilon", "1", "--k", "0.02", "--delta", "0.05", "--out", str(out)]) == 0
    expected = (data / "lp14x6_dependent_rows_bound_eps1_k0.02.json").read_bytes()
    assert out.read_bytes() == expected


def test_bound_json_of_a_tall_lp_matches_the_pinned_bytes(tmp_path):
    # 16 rows of 3 columns: 696 supports of at most 3 rows, within the
    # Hoffman support budget though past 14 rows; the LP is
    # conftest.random_validated_lp(default_rng(20240817), m=16, n=3, positive_costs=True)
    from pathlib import Path
    data = Path(__file__).resolve().parent / "data"
    out = tmp_path / "bound.json"
    assert main(["bound", str(data / "lp16x3_seed20240817.json"),
                 "--epsilon", "1", "--k", "0.02", "--delta", "0.05", "--out", str(out)]) == 0
    expected = (data / "lp16x3_bound_eps1_k0.02.json").read_bytes()
    assert out.read_bytes() == expected


def test_private_solve_and_validation_start_from_the_slack_basis(problem_file, monkeypatch,
                                                                  tmp_path):
    # a released private solution must depend on A_tilde alone, so only the
    # sweep's non-private evaluation may start from another basis
    import privlp.simplex as simplex
    from privlp import default_grid, load_problem, validate
    from privlp.experiment import ExperimentConfig, sweep_gridworld
    starts, blocks = [], []
    entered = simplex._entered

    def recording(T, basis, n, equality):
        # every solve enters its pivots here: record whether each start is the slack basis
        starts.append(tuple((basis == np.arange(n, n + T.shape[1])).all(axis=1).tolist()))
        return entered(T, basis, n, equality)

    solve_block = simplex.solve_block

    def recording_block(*args):
        solved = solve_block(*args)
        blocks.append(solved.start_path.tolist())
        return solved

    monkeypatch.setattr(simplex, "_entered", recording)
    monkeypatch.setattr(simplex, "solve_block", recording_block)
    for seed in range(5):
        assert main(["solve", problem_file, "--private", "--seed", str(seed),
                     "--out", str(tmp_path / "out.json")]) == 0
        assert "start_path" not in json.loads((tmp_path / "out.json").read_text())
    lp = load_problem(json.dumps(BASIC))
    validate(lp)
    simplex.max_norm_point(lp.system)
    assert len(starts) > 10 and set(starts) == {(True,)} and blocks == []
    sweep_gridworld(default_grid(), ExperimentConfig(eps_grid=(1.0,), trials=2, k=0.25))
    # the control: both trials start from the updated baseline tableau
    assert blocks == [["updated"] * 2] and starts[-1] == (False, False)
