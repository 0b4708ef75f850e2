"""Fuzz of ``cli.main`` over mutated problem and grid documents.

Each example mutates a valid document up to twice: a key deleted, a value
replaced by one of the wrong type, a non-finite, out-of-range, huge or
subnormal number, or a list made ragged. The
CLI must then exit 0 or 1, never raise, and on exit 0 write only finite
numbers (a bound of ``inf`` is a valid report; NaN never is). A boolean
anywhere but an entry of ``zero_mask`` is not a number, so it must exit 1.
"""
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from privlp.cli import main

LP_DOC = {"c": [1.0, 2.0], "A": [[1.0, 0.5], [0.5, 1.0]], "b": [1.0, 1.5],
          "sup_A": [[1.5, 1.0], [1.0, 1.5]], "zero_mask": [[False, False], [False, False]],
          "privacy": {"epsilon": 1.0, "delta": 0.05, "k": 0.1}}
GRID_DOC = {"width": 3, "height": 3, "start": [0, 0], "goal": [2, 2],
            "hazards": [{"cell": [1, 1], "beta": 1.0}], "slip": 0.1, "gamma": 0.9,
            "f0": 0.5, "goal_reward": 1.0, "sup_a": 3.0}
ODD_VALUES = [None, True, "1", {}, [], [[]], math.nan, math.inf, -math.inf, 0, -1, 0.5, 2.5,
              1e300, -1e300, 1e-320, 5e-324, [1.0], [[1.0], [2.0, 3.0]]]
LP_COMMANDS = [["solve"], ["solve", "--private", "--seed", "3"], ["privatize", "--seed", "3"],
               ["bound"], ["sweep", "--trials", "2", "--eps-grid", "1,5"]]
INF_ALLOWED = {"bound", "predicted_bound", "x_bar_norm", "hoffman"}


def _paths(value, path=()):
    """Every key path into a JSON value, containers included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        action = draw(st.sampled_from(["delete", "replace", "grow"]))
        if action == "delete":
            del parent[path[-1]]  # a list loses an element: ragged
        elif action == "grow" and isinstance(target, list):
            target.append(copy.deepcopy(target[-1]) if target else 1.0)
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


def _booleans(value, path=()):
    """The key paths of the booleans in a JSON value."""
    if isinstance(value, bool):
        yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _booleans(child, path + (key,))


def _outside_mask(path) -> bool:
    return not (len(path) == 3 and path[0] == "zero_mask")


@st.composite
def _with_boolean(draw, doc):
    """``doc`` with one value outside the entries of ``zero_mask`` replaced by a boolean."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from([p for p in _paths(doc) if p and _outside_mask(p)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.booleans())
    return doc


def _numbers(value, key=None):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v, key)
    elif isinstance(value, float):
        yield key, value


def _assert_finite(payload):
    for key, number in _numbers(payload):
        assert not math.isnan(number), key
        assert math.isfinite(number) or key in INF_ALLOWED, key


def _run(argv, out: Path, refused: bool) -> None:
    code = main(argv)
    assert code == 1 if refused else code in (0, 1)
    if code == 1:
        return
    if argv[0] == "sweep":
        _assert_finite(json.loads(out.with_suffix(".json").read_text()))
        rows = list(csv.DictReader(io.StringIO(out.with_suffix(".csv").read_text())))
        for row in rows:
            for key, cell in row.items():
                assert key == "bound" or math.isfinite(float(cell)), key
    else:
        _assert_finite(json.loads(out.read_text()))


FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(doc=_mutated(LP_DOC), command=st.sampled_from(LP_COMMANDS))
def test_mutated_problem_documents_exit_0_or_1(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "problem.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        refused = any(map(_outside_mask, _booleans(doc)))
        _run([command[0], str(path), *command[1:], "--out", str(out)], out, refused)


@FUZZ
@given(doc=_with_boolean(LP_DOC), command=st.sampled_from(LP_COMMANDS))
def test_a_boolean_outside_the_mask_exits_1(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "problem.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        _run([command[0], str(path), *command[1:], "--out", str(out)], out, refused=True)


@FUZZ
@given(doc=_mutated(GRID_DOC))
def test_mutated_grid_documents_exit_0_or_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "grid.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        _run(["sweep", "--grid-config", str(path), "--trials", "2", "--eps-grid", "1,5",
              "--k", "0.25", "--out", str(out)], out, refused=any(_booleans(doc)))


DATA = Path(__file__).parent / "data"
LP12X6 = DATA / "lp12x6_seed20240817.json"
GRID5 = Path(__file__).parents[1] / "demos" / "grid5.json"
GRID_FLAGS = ["--eps-grid", "1,5", "--k", "0.25", "--trials", "2"]
PRIVATE = ["--private", "--epsilon", "1", "--k", "0.02", "--delta", "0.05", "--seed", "7"]


def _near_float_max(path: Path, key: str, index=None) -> dict:
    """The document at ``path`` with ``key`` (its entry ``index``, if given) set to 1.7e308."""
    doc = json.loads(path.read_text())
    if index is None:
        doc[key] = 1.7e308
    else:
        doc[key][index] = 1.7e308
    return doc


@pytest.mark.parametrize("doc, command", [
    (_near_float_max(LP12X6, "c", 1), ["solve"]),
    (_near_float_max(LP12X6, "c", 1), ["solve", *PRIVATE]),
    (_near_float_max(LP12X6, "b", 0), ["solve"]),
    (_near_float_max(LP12X6, "b", 0), ["sweep", "--k", "0.02", "--trials", "2"]),
    (_near_float_max(GRID5, "f0"), ["sweep", "--grid-config", *GRID_FLAGS]),
    (_near_float_max(GRID5, "goal_reward"), ["sweep", "--grid-config", *GRID_FLAGS]),
], ids=["solve-c", "solve-private-c", "solve-b", "sweep-b", "grid-f0", "grid-goal-reward"])
def test_a_value_near_the_float_maximum_is_named_not_overflowed(tmp_path, capsys, doc, command):
    # each used to overflow inside the simplex: a solve wrote Infinity with
    # exit 0, and with RuntimeWarnings as errors every case was a traceback
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    argv = ([command[0], str(path), *command[1:]] if command[:2] != ["sweep", "--grid-config"]
            else [*command[:2], str(path), *command[2:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the simplex overflows; costs, right-hand sides or A are too large\n"
    assert list(tmp_path.iterdir()) == [path]


def test_the_ci_refusal_documents_are_the_pins_near_the_float_maximum():
    assert json.loads((DATA / "solve_cost_overflows.json").read_text()) == \
        _near_float_max(LP12X6, "c", 1)
    assert json.loads((DATA / "sweep_grid_f0_overflows.json").read_text()) == \
        _near_float_max(GRID5, "f0")
