import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from privlp import (
    ConstraintSystem,
    DimensionError,
    FeasibilityAssumptionError,
    LinearProgram,
    MembershipError,
    PrivacyParams,
    SchemaError,
    load_problem,
    validate,
)
from privlp.cli import main
from privlp.problem import _document

BASIC_DOC = {
    "c": [1.0, 1.0],
    "A": [[1.0, 0.5], [0.25, 1.0]],
    "b": [1.0, 1.0],
    "sup_A": [[3.0, 3.0], [3.0, 3.0]],
    "privacy": {"epsilon": 1.0, "delta": 0.05, "k": 1.0},
}


def test_load_basic_document():
    lp = load_problem(json.dumps(BASIC_DOC))
    assert lp.system.shape == (2, 2)
    assert lp.c.tolist() == [1.0, 1.0]
    assert lp.privacy == PrivacyParams(1.0, 0.05, 1.0)
    assert not lp.system.zero_mask.any()


def test_zero_mask_inferred_from_zero_entries():
    doc = {"c": [1.0, 1.0], "A": [[0.0, 2.0], [1.0, 0.0]], "b": [1.0, 1.0],
           "sup_A": [[0.0, 3.0], [3.0, 0.0]]}
    lp = load_problem(json.dumps(doc))
    assert lp.system.zero_mask.tolist() == [[True, False], [False, True]]


def test_explicit_mask_beats_coincidental_zero():
    # a coefficient that happens to be zero but is declared perturbable
    doc = {"c": [1.0], "A": [[0.0]], "b": [1.0], "sup_A": [[3.0]],
           "zero_mask": [[False]]}
    lp = load_problem(json.dumps(doc))
    assert not lp.system.zero_mask[0, 0]


def test_row_length_mismatch_is_dimension_error():
    doc = dict(BASIC_DOC, A=[[1.0, 0.5, 0.1], [0.25, 1.0, 0.1]])
    with pytest.raises((DimensionError, SchemaError)):
        load_problem(json.dumps(doc))


def test_b_length_mismatch_is_dimension_error(tmp_path, capsys):
    doc = dict(BASIC_DOC, b=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionError, match="^b "):
        load_problem(json.dumps(doc))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: b ")


@pytest.mark.parametrize("field, value", [
    ("sup_A", [[3.0, 3.0, 3.0], [3.0, 3.0, 3.0]]),
    ("zero_mask", [[False, False]]),
    ("c", [1.0, 1.0, 1.0]),
])
def test_field_shape_mismatch_is_dimension_error(field, value, tmp_path,
                                                 capsys):
    doc = dict(BASIC_DOC, **{field: value})
    with pytest.raises(DimensionError, match=f"^{field} "):
        load_problem(json.dumps(doc))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} ")


def test_ragged_zero_mask_is_schema_error(tmp_path, capsys):
    doc = dict(BASIC_DOC, zero_mask=[[False], [False, False]])
    message = "zero_mask: rows must all have the same length"
    with pytest.raises(SchemaError, match=f"^{message}$"):
        load_problem(json.dumps(doc))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field", ["c", "A", "b", "sup_A"])
def test_missing_field_named_in_error(field):
    doc = dict(BASIC_DOC)
    del doc[field]
    with pytest.raises(SchemaError, match=field):
        load_problem(json.dumps(doc))


def test_non_finite_entries_rejected():
    doc = dict(BASIC_DOC, b=[1.0, float("inf")])
    with pytest.raises(SchemaError, match="b"):
        load_problem(json.dumps(doc))


def _with(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, field", [
    (("A", 0, 0), "A"), (("sup_A", 1, 1), "sup_A"), (("b", 0), "b"), (("c", 1), "c"),
    (("privacy", "epsilon"), "privacy.epsilon"), (("privacy", "delta"), "privacy.delta"),
    (("privacy", "k"), "privacy.k"),
])
def test_boolean_is_not_a_number(path, field, tmp_path, capsys):
    # JSON true would otherwise read as the coefficient 1.0, or as epsilon = True
    doc = _with(BASIC_DOC, path, True)
    with pytest.raises(SchemaError, match=f"^{re.escape(field)}: ") as raised:
        load_problem(json.dumps(doc))
    file = tmp_path / "problem.json"
    file.write_text(json.dumps(doc))
    assert main(["solve", str(file)]) == 1
    assert capsys.readouterr().err == f"error: {raised.value}\n"


@pytest.mark.parametrize("path, field", [
    (("A", 1, 0), "A"), (("b", 1), "b"), (("privacy", "k"), "privacy.k")])
def test_integer_past_float_range_is_named(path, field):
    with pytest.raises(SchemaError, match=f"^{re.escape(field)}: .*too large"):
        load_problem(json.dumps(_with(BASIC_DOC, path, 10 ** 400)))


def test_mask_entries_must_be_booleans():
    doc = dict(BASIC_DOC, zero_mask=[[False, 0], [False, False]])
    with pytest.raises(SchemaError, match="^zero_mask: entries must be booleans"):
        load_problem(json.dumps(doc))


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        load_problem("{nope")


ROOT = Path(__file__).parents[1]


def _same(a, b) -> bool:
    """Equal value for value and type for type, floats compared by their bits."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(map(_same, a.values(), b.values()))
    return a == b


@pytest.fixture
def json_loads_calls(monkeypatch) -> list:
    """Every text ``json.loads`` reads during the test."""
    calls, loads = [], json.loads

    def spy(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return calls


@pytest.mark.parametrize("path", sorted([*(ROOT / "tests" / "data").glob("*.json"),
                                         *(ROOT / "demos").glob("*.json")]),
                         ids=lambda path: path.name)
def test_the_reader_reads_every_pinned_document_as_json_loads(path, json_loads_calls):
    # wrapped, so that a pin whose top level is an array is compared too
    text = '{"pin": ' + path.read_text() + "}"
    want = json.loads(text)
    json_loads_calls.clear()
    assert _same(_document(text), want)
    strict = "NaN" not in text and "Infinity" not in text  # the sweep pins write NaN
    assert json_loads_calls == ([] if strict else [text])


def _number_strings(rng) -> list[str]:
    """Random float64 reprs, their 25-digit forms, and 1-40-digit mantissas at any exponent."""
    floats = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
    floats = floats[np.isfinite(floats)].tolist()
    strings = [repr(x) for x in floats] + [f"{x:.24e}" for x in floats[:5000]]
    for digits, exponent, negative in zip(rng.integers(1, 41, 20000),
                                          rng.integers(-340, 311, 20000), rng.random(20000) < 0.5):
        mantissa = "".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, digits - 1)]))
        if digits > 1:
            mantissa = f"{mantissa[0]}.{mantissa[1:]}"
        strings.append(f"{'-' if negative else ''}{mantissa}e{exponent}")
    return [s for s in strings if math.isfinite(float(s))]  # past the range, orjson refuses


def test_the_reader_gives_json_loads_bits_for_every_finite_number(rng, json_loads_calls):
    edges = ["5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "-0.0",
             str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64 - 1), str(-2 ** 63)]
    text = '{"x": [' + ",".join(edges + _number_strings(rng)) + "]}"
    got = _document(text)
    assert json_loads_calls == []  # a strict document never reaches json.loads
    assert _same(got, json.loads(text))


_DECIDED_BY_JSON_LOADS = {
    "nan": (json.dumps(_with(BASIC_DOC, ("A", 0, 0), math.nan)),
            SchemaError, "A: entries must be finite"),
    "infinity": (json.dumps(_with(BASIC_DOC, ("b", 1), math.inf)),
                 SchemaError, "b: entries must be finite"),
    "-infinity": (json.dumps(_with(BASIC_DOC, ("c", 0), -math.inf)),
                  SchemaError, "c: entries must be finite"),
    "1e400": (json.dumps(_with(BASIC_DOC, ("sup_A", 0, 0), "1e400")).replace('"1e400"', "1e400"),
              SchemaError, "sup_A: entries must be finite"),
    "10**400": (json.dumps(_with(BASIC_DOC, ("A", 1, 0), 10 ** 400)),
                SchemaError, "A: int too large to convert to float"),
    "lone-surrogate": (json.dumps(dict(BASIC_DOC, **{"\ud800": 1})), None, None),
    "bom": ("\ufeff" + json.dumps(BASIC_DOC), SchemaError,
            "document: not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0))"),
    "trailing-comma": (json.dumps(BASIC_DOC)[:-1] + ",}", SchemaError,
                       "document: not valid JSON (Expecting property name enclosed in double "
                       "quotes: line 1 column 156 (char 155))"),
    "syntax": ("{nope", SchemaError, "document: not valid JSON (Expecting property name "
               "enclosed in double quotes: line 1 column 2 (char 1))"),
    # orjson reads any depth and overflows the C stack near 10^5 levels, so a text with
    # this many brackets goes to json.loads alone
    "2000-deep": (json.dumps(BASIC_DOC)[:-1] + ', "deep": ' + "[" * 2000 + "]" * 2000 + "}",
                  RecursionError,
                  "maximum recursion depth exceeded while decoding a JSON array from a unicode "
                  "string"),
}


@pytest.mark.parametrize("text, error, message", _DECIDED_BY_JSON_LOADS.values(),
                         ids=_DECIDED_BY_JSON_LOADS.keys())
def test_json_loads_decides_the_documents_orjson_refuses(text, error, message, tmp_path, capsys,
                                                         json_loads_calls):
    # each exception and error line is the one json.loads alone gave
    if error is None:
        assert _same(_document(text), json.loads(text))
        load_problem(text)
    else:
        with pytest.raises(error) as raised:
            load_problem(text)
        assert str(raised.value) == message
    assert json_loads_calls[:1] == [text]
    path, out = tmp_path / "problem.json", tmp_path / "out.json"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path), "--out", str(out)]) == (0 if error is None else 1)
    assert capsys.readouterr().err == ("" if error is None else f"error: {message}\n")
    if error is None:
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(BASIC_DOC))
        assert main(["solve", str(plain)]) == 0
        assert capsys.readouterr().out == out.read_text()
    else:
        assert not out.exists()


def test_bad_privacy_block():
    doc = dict(BASIC_DOC, privacy={"epsilon": 1.0, "delta": 0.7, "k": 1.0})
    with pytest.raises(SchemaError, match="privacy"):
        load_problem(json.dumps(doc))


@pytest.mark.parametrize("eps,delta,k", [
    (0.0, 0.05, 1.0), (-1.0, 0.05, 1.0),
    (1.0, 0.0, 1.0), (1.0, 0.5, 1.0), (1.0, -0.1, 1.0),
    (1.0, 0.05, 0.0), (1.0, 0.05, -2.0),
])
def test_privacy_params_domain(eps, delta, k):
    with pytest.raises(ValueError):
        PrivacyParams(eps, delta, k)


@pytest.mark.parametrize("field, args", [
    ("epsilon", (True, 0.05, 1.0)), ("delta", (1.0, False, 1.0)), ("k", (1.0, 0.05, True)),
    ("epsilon", ("1", 0.05, 1.0)), ("delta", (1.0, None, 1.0)), ("k", (1.0, 0.05, 1j)),
    ("epsilon", (np.bool_(True), 0.05, 1.0)),
])
def test_privacy_params_refuse_a_boolean_or_non_real_value_by_name(field, args):
    with pytest.raises(TypeError, match=f"^{field} must be a real number"):
        PrivacyParams(*args)


def test_privacy_params_keep_ints_and_numpy_reals_as_given():
    p = PrivacyParams(2, np.float64(0.05), np.float32(0.5))
    assert type(p.epsilon) is int and p.epsilon == 2
    assert type(p.delta) is np.float64 and type(p.k) is np.float32
    assert p.sigma == 0.25


def test_mask_zero_consistency_enforced():
    with pytest.raises(ValueError, match="masked"):
        ConstraintSystem(A=[[1.0]], b=[1.0], zero_mask=[[True]], sup_A=[[0.0]])
    with pytest.raises(ValueError, match="sup_A"):
        ConstraintSystem(A=[[0.0]], b=[1.0], zero_mask=[[True]], sup_A=[[3.0]])
    with pytest.raises(ValueError, match="masked"):  # public entries are exact: sup_A == A
        ConstraintSystem(A=[[2.0]], b=[1.0], zero_mask=[[True]], sup_A=[[3.0]])


def test_validate_uses_public_entries_as_is():
    # the only negative coefficient is public; were it read as zero, the
    # worst-case region {2 x0 <= -1} would be empty
    system = ConstraintSystem(A=[[1.0, -2.0]], b=[-1.0], zero_mask=[[False, True]],
                              sup_A=[[2.0, -2.0]])
    vp = validate(LinearProgram(c=[1.0, 0.0], system=system))
    assert vp.witness[1] > 0.0
    assert (system.sup_A @ vp.witness <= system.b + 1e-9).all()


def test_arrays_frozen_after_construction():
    lp = load_problem(json.dumps(BASIC_DOC))
    with pytest.raises(ValueError):
        lp.system.A[0, 0] = 5.0
    with pytest.raises(ValueError):
        lp.c[0] = 2.0


def _system(A, b, sup):
    A = np.asarray(A, dtype=float)
    return ConstraintSystem(A=A, b=b, zero_mask=np.zeros_like(A, dtype=bool), sup_A=sup)


def test_validate_accepts_feasible_worst_case():
    lp = LinearProgram(c=[1.0], system=_system([[1.0]], [3.0], [[3.0]]))
    vp = validate(lp)
    assert vp.witness.shape == (1,)
    assert (vp.system.sup_A @ vp.witness <= vp.system.b + 1e-9).all()
    assert (vp.witness >= -1e-9).all()


def test_validate_rejects_empty_worst_case():
    lp = LinearProgram(c=[1.0], system=_system([[1.0]], [-1.0], [[3.0]]))
    with pytest.raises(FeasibilityAssumptionError):
        validate(lp)


def test_validate_rejects_membership_violation():
    lp = LinearProgram(c=[1.0], system=_system([[4.0]], [1.0], [[3.0]]))
    with pytest.raises(MembershipError, match=r"A\[0\]\[0\]"):
        validate(lp)


def test_validate_is_deterministic(rng):
    from conftest import random_validated_lp
    lp = random_validated_lp(rng)
    w1 = validate(lp).witness
    w2 = validate(lp).witness
    assert np.array_equal(w1, w2)


def test_witness_feasible_on_random_suite(rng):
    from conftest import random_validated_lp
    for _ in range(25):
        lp = random_validated_lp(rng)
        vp = validate(lp)
        assert (vp.system.sup_A @ vp.witness <= vp.system.b + 1e-9).all()
        assert (vp.witness >= -1e-9).all()


def test_c_dimension_checked():
    with pytest.raises(DimensionError):
        LinearProgram(c=[1.0, 2.0], system=_system([[1.0]], [1.0], [[2.0]]))


@pytest.mark.parametrize("grid", [False, True])
def test_tightened_system_equals_the_checked_replacement(rng, grid):
    import dataclasses
    from conftest import random_validated_lp
    from privlp import default_grid, privatize_matrix
    from privlp.cmdp import build_gridworld, occupancy_lp
    lp = (occupancy_lp(build_gridworld(default_grid())) if grid
          else random_validated_lp(rng, m=8, n=5))
    system = lp.system
    original_rows = system.private_rows  # cached on the original before tightening
    priv = privatize_matrix(system, PrivacyParams(1.0, 0.05, 0.5), seed=7)
    fast = system.tightened(priv.A_tilde)
    checked = dataclasses.replace(system, A=priv.A_tilde)
    assert type(fast) is ConstraintSystem
    for name in ("A", "b", "zero_mask", "sup_A"):
        one, two = getattr(fast, name), getattr(checked, name)
        assert one.dtype == two.dtype and one.tobytes() == two.tobytes()
        assert not one.flags.writeable
    if grid:
        assert fast.equality is system.equality and not fast.equality.flags.writeable
        assert np.array_equal(checked.equality, system.equality)
    else:
        assert fast.equality is None and checked.equality is None
    assert np.array_equal(fast.A, priv.A_tilde)
    rows = fast.private_rows
    assert all(np.array_equal(a, b) for a, b in zip(rows, checked.private_rows))
    assert np.array_equal(rows[3], priv.A_tilde[rows[1]])
    assert not np.array_equal(rows[3], original_rows[3])  # the original's block is stale


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_data_is_refused_at_construction(bad):
    with pytest.raises(ValueError, match=r"A\[1\]\[0\] is .*finite"):
        _system([[1.0, 0.0], [bad, 1.0]], [1.0, 1.0], [[2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match=r"b\[1\] is .*finite"):
        _system([[1.0]] * 2, [1.0, bad], [[2.0]] * 2)
    with pytest.raises(ValueError, match=r"c\[0\] is .*finite"):
        LinearProgram(c=[bad], system=_system([[1.0]], [1.0], [[2.0]]))


def _public(A, b, equality):
    A = np.asarray(A, dtype=float)
    return ConstraintSystem(A=A, b=b, zero_mask=np.ones_like(A, dtype=bool), sup_A=A,
                            equality=equality)


def test_equality_rows_must_be_public():
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    mask = np.array([[True, True], [False, True]])
    with pytest.raises(ValueError, match="row 1 is an equality, so it must be public"):
        ConstraintSystem(A=A, b=[1.0, 0.0], zero_mask=mask, sup_A=A + ~mask,
                         equality=[False, True])
    with pytest.raises(DimensionError, match="equality"):
        _public(A, [1.0, 0.0], [True])
    system = _public(A, [1.0, 0.0], [0, 1])
    assert system.equality.dtype == bool and system.equality.tolist() == [False, True]
    with pytest.raises(ValueError):
        system.equality[0] = True
    assert _public(A, [1.0, 0.0], [False, False]).equality is None


def test_inequality_form_appends_the_negated_equalities_in_order():
    A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    system = _public(A, [1.0, 2.0, 3.0], [True, False, True])
    form = system.inequality_form()
    assert form.equality is None
    assert np.array_equal(form.A, np.vstack([A, -A[[0, 2]]]))
    assert np.array_equal(form.b, [1.0, 2.0, 3.0, -1.0, -3.0])
    assert form.zero_mask.all() and np.array_equal(form.sup_A, form.A)
    plain = _public(A, [1.0, 2.0, 3.0], None)
    assert plain.inequality_form() is plain


def test_residuals_count_both_sides_of_an_equality():
    system = _public([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [False, True])
    assert system.residuals(np.array([0.25, 0.5])).tolist() == [-0.25, 0.25]
    assert system.residuals(np.array([0.5, 0.25])).tolist() == [-0.25, 0.25]
    assert system.inequality_form().residuals(np.array([0.25, 0.5])).max() == 0.25


def test_residuals_of_a_stack_are_each_points_residuals_bitwise(rng):
    A = rng.normal(size=(6, 9))
    system = _public(A, rng.normal(size=6), [True, False, False, True, False, True])
    X = rng.normal(size=(5, 9))
    R = system.residuals(X)
    assert R.shape == (5, 6)
    for x, r in zip(X, R):
        assert r.tobytes() == system.residuals(x).tobytes()
        one = A @ x - system.b  # the one-point formula
        assert r.tobytes() == np.where(system.equality, np.abs(one), one).tobytes()


def test_validate_reads_equality_rows_as_equalities():
    # {x0 <= 1, x0 - x1 <= 2} holds at the origin, but x0 - x1 = 2 needs
    # x0 >= 2 on x >= 0, which x0 <= 1 forbids
    A = np.array([[1.0, 0.0], [1.0, -1.0]])
    relaxed = _public(A, [1.0, 2.0], None)
    assert validate(LinearProgram(c=[1.0, 0.0], system=relaxed)).witness is not None
    with pytest.raises(FeasibilityAssumptionError):
        validate(LinearProgram(c=[1.0, 0.0], system=_public(A, [1.0, 2.0], [False, True])))
    vp = validate(LinearProgram(c=[1.0, 0.0], system=_public(A, [1.0, 0.5], [False, True])))
    assert vp.witness[0] - vp.witness[1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("build, error, message", [
    (lambda: validate(LinearProgram(c=[1.0, 1.0], system=ConstraintSystem(
        A=[[1.0, 0.0]], b=[1.0], zero_mask=[[False, True]], sup_A=[[math.inf, 0.0]]))),
     MembershipError, "sup_A[0][0] is not finite; the bound set must be bounded"),
    (lambda: _document("[1, 2]"), SchemaError, "document: top level must be a JSON object"),
    (lambda: ConstraintSystem(A=[1.0, 2.0], b=[1.0], zero_mask=[False, False], sup_A=[2.0, 3.0]),
     DimensionError, "A must be a non-empty 2-D matrix, got shape (2,)"),
], ids=["sup_A_not_finite", "document_not_an_object", "A_not_2d"])
def test_named_refusals(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert raised.type is error and str(raised.value).startswith(message)
