import json
import re

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
