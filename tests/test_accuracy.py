import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from privlp import (
    ConstraintSystem,
    DegenerateSystemError,
    HoffmanSizeError,
    LinearProgram,
    PrivacyParams,
    cost_bound,
    hoffman_constant,
    inner_cone_min,
    privatize_matrix,
    sample_trunc_laplace,
    support_width,
    validate,
    xi_term,
)
from privlp.accuracy import XI_CLIPPED, XI_INTERIOR
from privlp import simplex

from conftest import random_validated_lp
from oracles import (hoffman_all_supports, hoffman_bruteforce, hoffman_table, orthant_t_lp,
                     sphere_inner_min, subset_minima_table, trunc_laplace_moment)

PP = PrivacyParams(epsilon=1.0, delta=0.05, k=1.0)


# --- inner cone minimum ------------------------------------------------------

def test_inner_min_identity():
    assert inner_cone_min(np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_inner_min_single_row():
    assert inner_cone_min([[2.0]]) == pytest.approx(2.0, abs=1e-12)


def test_inner_min_positively_spanning_rows_is_zero():
    # rows at 120-degree spacing admit a nonnegative combination summing to zero
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    M = np.array([[np.cos(a), np.sin(a)] for a in angles])
    assert inner_cone_min(M) == pytest.approx(0.0, abs=1e-9)


def test_inner_min_matches_sphere_sampling(rng):
    for trial in range(10):
        M = rng.normal(size=(3, 2))
        exact = inner_cone_min(M)
        sampled = sphere_inner_min(M, n_dirs=1_000_000, seed=trial)
        assert exact == pytest.approx(sampled, abs=1e-3)


# --- Hoffman constant --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hoffman_identity(n):
    assert hoffman_constant(np.eye(n)) == pytest.approx(1.0, abs=1e-12)


def test_hoffman_single_row():
    assert hoffman_constant([[2.0]]) == pytest.approx(0.5, abs=1e-12)


def test_hoffman_scaling_law(rng):
    for _ in range(10):
        A = rng.normal(size=(3, 2))
        alpha = float(rng.uniform(0.2, 5.0))
        assert hoffman_constant(alpha * A) == pytest.approx(
            hoffman_constant(A) / alpha, rel=1e-9)


# H = 6.7604; at scale 1e-6 a threshold fixed in absolute terms collapses a
# pair's bottom eigenvalue and reads 1.1612
_SCALE_EXAMPLE = np.array([[1.0, 0.0], [-0.9, 0.2], [0.3, 1.0]])


def test_hoffman_and_inner_min_are_exact_under_power_of_two_scaling(rng):
    # 2^j A has the Gram blocks, eigenpairs and row norms of A times powers
    # of two, bit for bit, and every threshold scales with them
    for A in [_SCALE_EXAMPLE, *_table_families(rng)]:
        H, inner = hoffman_constant(A), inner_cone_min(A)
        for j in range(-40, 41):
            assert 2.0 ** j * hoffman_constant(2.0 ** j * A) == H
            assert inner_cone_min(2.0 ** j * A) == 2.0 ** j * inner


def test_hoffman_and_inner_min_scale_with_any_factor(rng):
    for A in [_SCALE_EXAMPLE, *_table_families(rng)]:
        H, inner = hoffman_constant(A), inner_cone_min(A)
        for c in np.geomspace(1e-8, 1e8, 12):
            assert c * hoffman_constant(c * A) == pytest.approx(H, rel=1e-9)
            assert inner_cone_min(c * A) == pytest.approx(c * inner, rel=1e-9)


@pytest.mark.parametrize("j", [30, 60])
def test_the_bound_of_a_scaled_pin_is_the_pinned_bound_scaled(j):
    # A, sup_A and k times 2^-j: the region and H grow by 2^j and xi shrinks
    # by it, each bit for bit; thresholds fixed in absolute terms read H 27%
    # too small at j = 30 and admit no support at j = 60
    import json
    from pathlib import Path
    from privlp import load_problem
    data = Path(__file__).parent / "data"
    lp = load_problem((data / "lp12x6_seed20240817.json").read_text())
    pinned = json.loads((data / "lp12x6_bound_eps1_k0.02.json").read_text())
    f = 2.0 ** -j
    scaled = dataclasses.replace(lp, system=dataclasses.replace(
        lp.system, A=np.asarray(lp.system.A) * f, sup_A=np.asarray(lp.system.sup_A) * f))
    report = cost_bound(scaled, PrivacyParams(epsilon=1.0, delta=0.05, k=0.02 * f)).to_dict()
    for key, power in (("L", 0), ("x_bar_norm", j), ("hoffman", j), ("xi", -j), ("bound", j)):
        assert report[key] == pinned[key] * 2.0 ** power
    assert report["xi_case"] == pinned["xi_case"]


def test_hoffman_matches_bruteforce(rng):
    for trial in range(12):
        A = rng.normal(size=(3, 2))
        fast = hoffman_constant(A)
        brute = hoffman_bruteforce(A, n_dirs=400_000, seed=trial)
        assert fast == pytest.approx(brute, rel=1e-2)


def test_hoffman_equals_per_subset_definition(rng):
    # the shared-candidate computation must agree with literally calling
    # inner_cone_min on every row subset
    for _ in range(8):
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, int(rng.integers(1, 4))))
        best = None
        for size in range(1, m + 1):
            for J in itertools.combinations(range(m), size):
                val = inner_cone_min(A[list(J)])
                if val > 1e-9:
                    best = val if best is None else min(best, val)
        if best is None:
            with pytest.raises(DegenerateSystemError):
                hoffman_constant(A)
        else:
            assert hoffman_constant(A) == pytest.approx(1.0 / best, rel=1e-12)


def test_hoffman_matches_bruteforce_on_tall_rank_deficient(rng):
    # more rows than rank + 1, so the Hoffman walk leaves supports above rank unevaluated
    half = rng.normal(size=(6, 3))
    half[:, 0] = np.abs(half[:, 0]) + 0.5    # rows in an open half-space
    dup = rng.normal(size=(6, 2))
    dup[5] = dup[2]                          # duplicate rows
    zero = rng.normal(size=(5, 2))
    zero[3] = 0.0                            # a zero row
    mult = rng.normal(size=(5, 2))
    mult[4] = 2.5 * mult[1]                  # a positive multiple of another row
    for trial, A in enumerate((half, dup, zero, mult)):
        assert np.linalg.matrix_rank(A) + 1 < A.shape[0]
        fast = hoffman_constant(A)
        brute = hoffman_bruteforce(A, n_dirs=100_000, seed=trial)
        assert fast == pytest.approx(brute, rel=1e-2)


def test_hoffman_matches_all_support_enumeration_on_10x3(rng):
    # the sampling oracle cannot certify zero minima over ten rows, so the
    # 10x3 cases are checked against face enumeration over every support
    mixed = rng.normal(size=(10, 3))
    mixed[7], mixed[8], mixed[9] = mixed[0], 0.0, 2.5 * mixed[1]
    rank2 = rng.normal(size=(10, 2)) @ rng.normal(size=(2, 3))
    for A in (mixed, rank2):
        assert hoffman_constant(A) == pytest.approx(hoffman_all_supports(A), rel=1e-12)


def _touches_orthant_by_lp(eigvecs, group):
    """``accuracy._touches_orthant`` with its sign-test shortcut patched off:
    every repeated bottom eigenvalue goes to the orthant LP."""
    from privlp import accuracy
    bottom = eigvecs[:, :, 0]
    touches = (bottom >= -1e-12).all(axis=1) | (bottom <= 1e-12).all(axis=1)
    for i in np.flatnonzero(group.sum(axis=1) > 1):
        touches[i] = accuracy._eigenspace_touches_orthant(eigvecs[i][:, group[i]])
    return touches


def test_orthant_test_decides_as_the_t_lp_on_the_eigenspaces_met(rng, monkeypatch):
    # the repeated bottom eigenspaces of the tier-1 Hoffman inputs: identities,
    # the 10x3 mixed matrix and the inequality form of public equality rows.
    # The one eigenspace that misses the orthant belongs to a 4-row support
    # of the rank-3 mixed matrix: inner_cone_min walks it, the Hoffman
    # constant (supports of at most rank rows) does not
    from privlp import accuracy
    decide = accuracy._eigenspace_touches_orthant
    decisions = []

    def compared(vectors):
        touches = decide(vectors)
        assert touches == orthant_t_lp(vectors)
        decisions.append(touches)
        return touches

    monkeypatch.setattr(accuracy, "_eigenspace_touches_orthant", compared)
    monkeypatch.setattr(accuracy, "_touches_orthant", _touches_orthant_by_lp)
    mixed = rng.normal(size=(10, 3))
    mixed[7], mixed[8], mixed[9] = mixed[0], 0.0, 2.5 * mixed[1]
    paired = [np.vstack([E, -E[:2]]) for E in rng.normal(size=(4, 3, 3))]
    for A in [np.eye(n) for n in range(2, 6)] + [mixed] + paired:
        hoffman_constant(A)
    assert len(decisions) == 44 and decisions.count(False) == 0
    inner_cone_min(mixed)
    assert len(decisions) == 61 and decisions.count(False) == 1


@pytest.mark.parametrize("r, d", [(3, 2), (4, 2), (5, 3), (6, 4)])
def test_orthant_test_on_random_spans(rng, r, d):
    from privlp.accuracy import _eigenspace_touches_orthant
    for trial in range(20):
        # a span through a nonnegative vector, zero in some entries, meets the orthant
        p = np.where(rng.random(r) < 0.3, 0.0, rng.uniform(0.1, 1.0, r))
        p[trial % r] = 1.0
        meets = np.linalg.qr(np.column_stack([p, rng.normal(size=(r, d - 1))]))[0]
        # a span orthogonal to a positive vector holds no nonzero nonnegative vector
        u = rng.uniform(0.1, 1.0, r)
        g = rng.normal(size=(r, d))
        misses = np.linalg.qr(g - np.outer(u, u @ g) / (u @ u))[0]
        for V, expected in ((meets, True), (misses, False)):
            assert _eigenspace_touches_orthant(V) == orthant_t_lp(V) == expected


def _table_families(rng):
    """Seeded matrices, most of them with dependent row supports."""
    for _ in range(4):
        yield random_validated_lp(rng, m=12, n=6, positive_costs=True).system.A
    for m, n in ((6, 3), (8, 4), (10, 3)):
        base = rng.normal(size=(m, n))
        pm, dup, mult, zero = base.copy(), base.copy(), base.copy(), base.copy()
        pm[-2:] = -base[:2]                      # +/- pairs
        dup[-1] = base[1]                        # a duplicate row
        mult[-1] = 2.5 * base[0]                 # a positive multiple
        zero[m // 2] = 0.0                       # a zero row
        yield from (pm, dup, mult, zero)
        yield rng.normal(size=(m, 2)) @ rng.normal(size=(2, n))  # rank 2, tall
        yield np.round(2.0 * base)                               # integer-rounded
    # past 14 rows, within the support budget: 696 supports of at most 3 rows, and 120 of 2
    yield from (rng.normal(size=(16, 3)), rng.normal(size=(15, 2)))


def test_hoffman_and_inner_min_equal_the_table_algorithm_bit_for_bit(rng):
    # the walk over supports of at most rank rows must return the very
    # float that the 2^m subset-minimum table over rank + 1 rows returns
    for A in _table_families(rng):
        assert hoffman_constant(A) == hoffman_table(A)
        assert inner_cone_min(A) == subset_minima_table(A)[-1]


def test_hoffman_sends_no_support_above_rank_and_inner_min_reaches_rank_plus_one(rng,
                                                                                 monkeypatch):
    from privlp import accuracy
    candidates = accuracy._support_candidates
    sizes = []

    def spy(gram, supports):
        sizes.append(supports.shape[1])
        return candidates(gram, supports)

    monkeypatch.setattr(accuracy, "_support_candidates", spy)
    for A in _table_families(rng):
        rank = np.linalg.matrix_rank(A)
        sizes.clear()
        hoffman_constant(A)
        assert max(sizes) == rank
        sizes.clear()
        inner_cone_min(A)
        assert max(sizes) == rank + 1


def test_a_support_that_holds_a_collapsed_one_has_no_positive_candidate(rng):
    # why hoffman_constant admits every candidate above ADMISSION_TOL times
    # the largest row norm without excluding the supersets of a dependent
    # support: by Cauchy interlacing,
    # a support that holds one whose candidate collapsed is singular too, so
    # its candidate is 0 or +inf and is never admitted
    from privlp.accuracy import ADMISSION_TOL, _support_walk
    held = 0
    for A in _table_families(rng):
        m, rank = A.shape[0], np.linalg.matrix_rank(A)
        masks = np.concatenate([(1 << np.array(list(itertools.combinations(range(m), size))))
                                .sum(axis=1) for size in range(1, min(m, rank) + 1)])
        g = _support_walk(A, 0, "A")
        collapsed = masks[g <= ADMISSION_TOL * g[:m].max()]
        holds = ((masks[:, None] & collapsed == collapsed)
                 & (masks[:, None] != collapsed)).any(axis=1)
        assert np.isin(g[holds], (0.0, np.inf)).all()
        held += holds.sum()
    assert held > 0  # the families do hold such supports


def _candidates_with_and_without_the_filter(monkeypatch, A):
    """``_support_candidates`` over every support of 2 to rank + 1 rows, filtered and not."""
    from privlp import accuracy
    gram = A @ A.T
    sizes = range(2, min(A.shape[0], np.linalg.matrix_rank(A) + 1) + 1)
    supports = [np.array(list(itertools.combinations(range(A.shape[0]), size))) for size in sizes]
    filtered = [accuracy._support_candidates(gram, idx) for idx in supports]
    with monkeypatch.context() as unfiltered:
        unfiltered.setattr(accuracy, "_acute", lambda blocks: np.zeros(len(blocks), bool))
        plain = [accuracy._support_candidates(gram, idx) for idx in supports]
    pruned = sum(accuracy._acute(gram[idx[:, :, None], idx[:, None, :]]).sum() for idx in supports)
    return filtered, plain, pruned


def _acute_boundary_families(rng):
    """Gram blocks at the filter's edges: a repeated bottom eigenvalue
    (the orthant-LP branch), entries at +-delta_S, and entries near 1e-15."""
    yield np.eye(4)  # G = I, not acute: both runs take the orthant LP
    for size, rho in ((3, 0.3), (4, 0.05), (5, 0.5)):
        # G = (1 - rho) I + rho 11^T, acute: bottom eigenvalue 1 - rho, repeated
        yield np.hstack([np.sqrt(1.0 - rho) * np.eye(size), np.full((size, 1), np.sqrt(rho))])
    for scale in (1.0, 1e-2, 3e-3, 1e3):  # 3e-3: delta_S is the floor 1e-6
        delta = 1e-2 * max(scale ** 2, 1e-4)
        for t in (delta * (1 - 1e-12), delta * (1 + 1e-12), -delta, delta):
            cos, sin = t / scale ** 2, np.sqrt(1 - (t / scale ** 2) ** 2)
            yield scale * np.array([[1.0, 0.0, 0.0], [cos, sin, 0.0], [cos, 0.0, sin],
                                    [-1.0, 0.0, 0.0]])
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    yield q + rng.choice([-1e-15, 1e-15], size=(4, 4))        # unit rows, Gram entries ~1e-15
    yield 3e-8 * rng.uniform(0.1, 1.0, size=(5, 3))            # every Gram entry near 1e-15


def test_the_acute_filter_keeps_every_candidate_bit_for_bit(rng, monkeypatch):
    # a support the filter skips must be one whose computed candidate is
    # +inf anyway: filtered and unfiltered runs agree to the bit
    from pathlib import Path
    from privlp import load_problem
    pin = load_problem((Path(__file__).parent / "data" / "lp14x6_dependent_rows.json").read_text())
    families = [*_table_families(rng), pin.system.inequality_form().A,
                *_acute_boundary_families(rng)]
    pruned = 0
    for A in families:
        filtered, plain, skipped = _candidates_with_and_without_the_filter(monkeypatch, A)
        for ours, theirs in zip(filtered, plain):
            assert ours.tobytes() == theirs.tobytes()
        pruned += skipped
    assert pruned > 1000  # the filter did skip supports here


def _counted_orthant_lps(monkeypatch):
    from privlp import accuracy
    decide, decisions = accuracy._eigenspace_touches_orthant, []
    monkeypatch.setattr(accuracy, "_eigenspace_touches_orthant",
                        lambda vectors: decisions.append(vectors.shape) or decide(vectors))
    return decisions


def test_the_sign_test_shortcut_keeps_every_candidate_bit_for_bit(rng, monkeypatch):
    # a repeated bottom eigenvalue whose bottom eigenvector is one-signed
    # skips the orthant LP: both walks' candidates must be those of the LP
    # run on every repeated eigenvalue, to the bit
    from privlp import accuracy
    e5 = np.eye(5)
    families = [*_table_families(rng), *(np.eye(k) for k in range(1, 15)),
                np.vstack([e5, e5[[0, 3]]]), np.vstack([e5, -e5[[1, 2]]]),   # duplicated, negated
                np.vstack([e5, e5[[0, 3]], -e5[[1, 3]]]), np.kron(np.eye(3), [[1.0], [-2.0]]),
                np.diag([1.0, 2.0, 3.0, 4.0]),
                np.vstack([np.diag([1.0, 2.0, 3.0]), [[0.0, -5.0, 0.0]]])]
    decisions = _counted_orthant_lps(monkeypatch)
    skipped = 0
    for A in families:
        for extra in (0, 1):
            decisions.clear()
            ours = accuracy._support_walk(A, extra, "A")
            run = len(decisions)
            with monkeypatch.context() as plain:
                plain.setattr(accuracy, "_touches_orthant", _touches_orthant_by_lp)
                theirs = accuracy._support_walk(A, extra, "A")
            assert ours.tobytes() == theirs.tobytes()
            skipped += len(decisions) - 2 * run
    assert skipped > 30000  # eye(14) alone sends 16369 repeated eigenvalues per walk to the LP


def test_an_identity_runs_no_orthant_lp(monkeypatch):
    # every support of eye(14) has the Gram block I: its eigenvalue 1 is
    # repeated, and its first eigenvector, a unit vector, is one-signed
    decisions = _counted_orthant_lps(monkeypatch)
    assert hoffman_constant(np.eye(14)) == 1.0
    assert inner_cone_min(np.eye(14)) == 1.0
    assert decisions == []


def test_fewer_than_half_of_the_pins_supports_reach_eigh(monkeypatch):
    from pathlib import Path
    from privlp import load_problem
    lp = load_problem((Path(__file__).parent / "data" / "lp12x6_seed20240817.json").read_text())
    A = lp.system.inequality_form().A
    eigh, decomposed = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: decomposed.append(len(a)) or eigh(a))
    hoffman_constant(A)
    supports = sum(math.comb(12, size) for size in range(2, np.linalg.matrix_rank(A) + 1))
    assert supports == 2497 and 0 < sum(decomposed) < supports / 2


def test_a_gram_overflow_is_named():
    # A @ A.T overflows for entries above about 1.3e154; the constant must
    # not be computed from the overflowed Gram matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"A @ A\.T overflows; entries of A are too large"):
            hoffman_constant([[1e200, 1.0]])
        with pytest.raises(ValueError, match=r"M @ M\.T overflows; entries of M are too large"):
            inner_cone_min([[1e200, 1.0]])


def _overflowing(c=(1.0, 1.0), sup_A=((3.0, 0.0), (0.0, 3.0))):
    system = ConstraintSystem(A=np.eye(2), b=[1.0, 1.0], zero_mask=np.eye(2) == 0, sup_A=sup_A)
    return LinearProgram(c=c, system=system)


@pytest.mark.parametrize("lp, message", [
    # ||A - sup_A||_F is about 1e200, but its square overflows: xi read inf
    (_overflowing(sup_A=[[1e200, 0.0], [0.0, 1.5]]),
     r"^the norm of A - sup_A overflows; entries of A - sup_A are too large$"),
    # ||c|| is about 1.4e300, but its square overflows: L read inf
    (_overflowing(c=[1e300, 1e300]), r"^the norm of c overflows; entries of c are too large$"),
])
def test_an_overflowing_norm_is_named(lp, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            cost_bound(lp, PP)


@pytest.mark.parametrize("sup, params", [
    # (n0 s)^2 of about 1e321 raised a bare OverflowError
    (1e300, PrivacyParams(epsilon=1.0, delta=0.05, k=1e160)),
    # s is 20, but 2 m (k/eps)^2 n0 read inf, and so did xi
    (100.0, PrivacyParams(epsilon=1e-160, delta=0.05, k=1.0)),
])
def test_an_overflowing_interior_xi_is_named(sup, params):
    system = ConstraintSystem(A=np.eye(2), b=[1.0, 1.0], zero_mask=np.eye(2) == 0,
                              sup_A=sup * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the interior xi overflows; k/epsilon and the "
                                             r"support widths are too large$"):
            xi_term(system, params)


@pytest.mark.parametrize("A, b, message", [
    # the bounded square [0, 1e308]^2: 1e308 * 1e9 overflows in the rounding
    # that deduplicates vertices, and x_bar_norm read inf
    (np.eye(2), [1e308, 1e308], r"^vertex enumeration overflows; the region's vertex "
                                r"coordinates are too large$"),
    # the vertex (1e200, 1e200) is finite, but its squared norm overflows
    (np.eye(2), [1e200, 1e200], r"^the norm of a vertex overflows; the region's vertices are "
                                r"too large$"),
    # the edge to the vertex (2e308, 0) overflows its ratio test: the region read as unbounded
    (np.array([[0.5, 0.5]]), [1e308], r"^vertex enumeration overflows; the region's vertex "
                                      r"coordinates are too large$"),
])
def test_an_overflowing_vertex_is_named(A, b, message):
    system = ConstraintSystem(A=A, b=b, zero_mask=np.zeros_like(A, dtype=bool), sup_A=A + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            cost_bound(LinearProgram(c=np.ones(2), system=system), PP)


def test_a_finite_vertex_norm_keeps_its_bits():
    # no rescaling: the bounded square [0, 1e150]^2 keeps numpy's norm of its far corner
    system = ConstraintSystem(A=np.eye(2), b=[1e150, 3e150], zero_mask=np.eye(2) == 0,
                              sup_A=3.0 * np.eye(2))
    x_bar, norm = simplex.max_norm_point(system)
    assert x_bar.tolist() == [1e150, 3e150]
    assert norm == float(np.linalg.norm(x_bar))


def test_a_finite_norm_keeps_its_bits():
    # no rescaling: a norm that does not overflow is numpy's, to the bit
    lp = _overflowing(c=[1e150, 3e150], sup_A=[[1e150, 0.0], [0.0, 1.5]])
    assert lp.lipschitz == float(np.linalg.norm(lp.c))
    xi, case = xi_term(lp.system, PP)
    assert case == XI_CLIPPED
    assert xi == float(np.linalg.norm(lp.system.A - lp.system.sup_A))


def test_hoffman_names_a_non_finite_entry():
    with pytest.raises(ValueError, match=r"A\[0\]\[0\] is inf; entries must be finite"):
        hoffman_constant([[np.inf]])
    with pytest.raises(ValueError, match=r"A\[0\]\[0\] is nan; entries must be finite"):
        hoffman_constant([[np.nan, 1.0]])


def test_inner_min_names_a_non_finite_entry():
    with pytest.raises(ValueError, match=r"M\[0\]\[1\] is -inf; entries must be finite"):
        inner_cone_min([[1.0, -np.inf]])
    with pytest.raises(ValueError, match=r"M\[0\]\[0\] is nan; entries must be finite"):
        inner_cone_min([[np.nan]])


def test_hoffman_size_cap(rng):
    # one budget on the supports of at most n (inner_cone_min: n + 1) rows,
    # counted until it is passed, refuses both walks at the same count
    from privlp.accuracy import _MAX_SUPPORTS
    assert _MAX_SUPPORTS == 2 ** 14 - 1
    over = r"at least {} row supports, over its budget of 16383$"
    for walk in (hoffman_constant, inner_cone_min):
        with pytest.raises(HoffmanSizeError, match=over.format(22818)):
            walk(np.eye(15))
        with pytest.raises(HoffmanSizeError, match=over.format(26332)):
            walk(rng.normal(size=(16, 8)))
    with pytest.raises(HoffmanSizeError, match=over.format(26332)):
        inner_cone_min(rng.normal(size=(16, 7)))
    tall = rng.normal(size=(16, 6))  # 14892 supports of at most 6 rows, 26332 of at most 7
    assert math.isfinite(hoffman_constant(tall))
    with pytest.raises(HoffmanSizeError, match=over.format(26332)):
        inner_cone_min(tall)
    # the budget is every support of 14 rows: a 14x14 matrix walks them all
    full = rng.normal(size=(14, 14))
    assert math.isfinite(hoffman_constant(full)) and math.isfinite(inner_cone_min(full))


def test_hoffman_degenerate_input():
    with pytest.raises(DegenerateSystemError):
        hoffman_constant(np.zeros((2, 3)))


# --- xi term -----------------------------------------------------------------

def _one_by_one(a, sup):
    return ConstraintSystem(A=[[a]], b=[1.0], zero_mask=[[False]], sup_A=[[sup]])


def test_xi_clipped_when_matrix_at_supremum():
    sys_ = _one_by_one(3.0, 3.0)
    xi, case = xi_term(sys_, PP)
    assert case == XI_CLIPPED
    assert xi == 0.0


def test_xi_interior_frozen_value():
    # 1x1 system, a=0.1, sup=100: s ~ 3.5657 so a + 2s < sup
    xi, case = xi_term(_one_by_one(0.1, 100.0), PP)
    assert case == XI_INTERIOR
    assert xi == pytest.approx(3.835949197081756, abs=1e-9)  # sqrt(2 + s^2), 50-digit oracle


def test_xi_interior_decreasing_in_epsilon():
    previous = None
    for eps in (0.5, 1.0, 2.0, 4.0, 8.0):
        xi, case = xi_term(_one_by_one(0.1, 1e6), PrivacyParams(eps, 0.05, 1.0))
        assert case == XI_INTERIOR
        if previous is not None:
            assert xi < previous
        previous = xi


@pytest.mark.parametrize("seed, epsilon, k, expected", [
    (35, 0.3, 1.0, "0x1.fd79cbf990025p+7"),
    (40, 1.0, 0.3, "0x1.e430b05391874p+4"),
    (58, 1.0, 0.3, "0x1.e6ea6411c63c5p+4"),
])
def test_xi_interior_bits_pinned(seed, epsilon, k, expected):
    # written by the row-by-row implementation; on these 12-row systems,
    # adding the rows' terms in reverse order, or by numpy's pairwise sum,
    # changes the last bits
    rng = np.random.default_rng(seed)
    mask = rng.random((12, 9)) < 0.4
    A = np.where(mask, 0.0, rng.uniform(-1.0, 1.0, (12, 9)))
    sys_ = ConstraintSystem(A=A, b=np.ones(12), zero_mask=mask,
                            sup_A=np.where(mask, A, A + 1e4))
    xi, case = xi_term(sys_, PrivacyParams(epsilon, 0.05, k))
    assert case == XI_INTERIOR
    assert xi.hex() == expected


def test_xi_matches_term_by_term_recomputation(rng):
    for _ in range(20):
        lp = random_validated_lp(rng)
        sys_ = dataclasses.replace(lp.system, sup_A=np.where(lp.system.zero_mask, 0.0,
                                                             lp.system.sup_A + 1e4))
        xi, case = xi_term(sys_, PP)
        assert case == XI_INTERIOR
        m = sys_.shape[0]
        total = 0.0
        for i in range(m):
            n0 = int((~sys_.zero_mask[i]).sum())
            if n0 == 0:
                continue
            s_i = support_width(PP.k, PP.epsilon, PP.delta, n0)
            total += 2 * m * (PP.k / PP.epsilon) ** 2 * n0 + (n0 * s_i) ** 2
        assert xi == pytest.approx(math.sqrt(total), rel=1e-12)


def test_clipped_detection_matches_entrywise_scan(rng):
    for _ in range(40):
        lp = random_validated_lp(rng)
        sys_ = lp.system
        _, case = xi_term(sys_, PP)
        hit = False
        for i in range(sys_.shape[0]):
            free = ~sys_.zero_mask[i]
            n0 = int(free.sum())
            if n0 == 0:
                continue
            s_i = support_width(PP.k, PP.epsilon, PP.delta, n0)
            if np.any(sys_.A[i, free] + 2 * s_i >= sys_.sup_A[i, free]):
                hit = True
        assert case == (XI_CLIPPED if hit else XI_INTERIOR)


def test_shifted_noise_second_moment(rng):
    # exact truncated second moment, not the looser untruncated stand-in
    n0 = 3
    s = support_width(PP.k, PP.epsilon, PP.delta, n0)
    z = sample_trunc_laplace(PP.sigma, s, rng, size=1_000_000)
    sample_moment = ((s + z) ** 2).mean()
    expected = s ** 2 + trunc_laplace_moment(PP.sigma, s)
    assert sample_moment == pytest.approx(expected, rel=1e-2)
    assert expected <= s ** 2 + 2 * PP.sigma ** 2  # printed formula upper-bounds it


# --- assembled bound ---------------------------------------------------------

def _box_lp(c):
    sys_ = ConstraintSystem(A=np.eye(2), b=[1.0, 1.0],
                            zero_mask=~np.eye(2, dtype=bool),
                            sup_A=3.0 * np.eye(2))
    return LinearProgram(c=c, system=sys_)


def test_bound_zero_for_constant_objective():
    report = cost_bound(_box_lp([0.0, 0.0]), PP)
    assert report.L == 0.0
    assert report.bound == 0.0


def test_bound_unit_box_composition():
    report = cost_bound(_box_lp([1.0, 1.0]), PP)
    assert report.L == pytest.approx(math.sqrt(2.0))
    assert report.x_bar_norm == pytest.approx(math.sqrt(2.0))
    assert report.hoffman == pytest.approx(1.0)
    # s ~ 3.5657 so 1 + 2s >= 3: the clipped branch applies
    assert report.xi_case == XI_CLIPPED
    assert report.xi == pytest.approx(math.sqrt(8.0))
    assert report.bound == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0) * math.sqrt(8.0))


def test_bound_unit_box_interior_composition():
    # small adjacency bound keeps every entry clear of its supremum,
    # so the closed-form interior branch composes the bound
    params = PrivacyParams(epsilon=1.0, delta=0.05, k=0.2)
    report = cost_bound(_box_lp([1.0, 1.0]), params)
    assert report.xi_case == XI_INTERIOR
    s = support_width(params.k, params.epsilon, params.delta, 1)
    xi = math.sqrt(2 * (2 * 2 * params.k ** 2 + s ** 2))  # two rows, one entry each
    assert report.xi == pytest.approx(xi, rel=1e-12)
    assert report.bound == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0) * 1.0 * xi, rel=1e-12)


def test_bound_infinite_on_unbounded_region():
    sys_ = ConstraintSystem(A=[[-1.0, 0.0]], b=[1.0],
                            zero_mask=[[False, True]], sup_A=[[1.0, 0.0]])
    report = cost_bound(LinearProgram(c=[1.0, 1.0], system=sys_), PP)
    assert math.isinf(report.x_bar_norm)
    assert math.isinf(report.bound)


def test_report_serialization_keys():
    report = cost_bound(_box_lp([1.0, 0.0]), PP)
    assert set(report.to_dict()) == {"L", "x_bar_norm", "hoffman", "xi", "xi_case", "bound"}


def test_monte_carlo_gap_within_bound(rng):
    lp = random_validated_lp(rng, m=3, n=2, positive_costs=True)
    validate(lp)
    report = cost_bound(lp, PP)
    base = simplex.solve_lp(lp.c, lp.system)
    assert base.status == simplex.OPTIMAL
    gaps = []
    for trial in range(500):
        priv = privatize_matrix(lp.system, PP, seed=trial)
        sol = simplex.solve_lp(lp.c, dataclasses.replace(lp.system, A=priv.A_tilde))
        assert sol.status == simplex.OPTIMAL
        gaps.append(abs(base.objective - sol.objective))
    assert np.mean(gaps) <= report.bound

def test_the_inner_minimum_of_an_empty_matrix_is_refused_by_name():
    with pytest.raises(ValueError) as raised:
        inner_cone_min(np.zeros((0, 3)))
    assert raised.type is ValueError and str(raised.value).startswith("M must be non-empty")
