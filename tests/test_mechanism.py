import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privlp import (
    ConstraintSystem,
    PrivacyParams,
    privatize_matrix,
    privatized_document,
    sample_trunc_laplace,
    support_width,
)
from privlp.cmdp import build_gridworld, default_grid, occupancy_lp
from privlp.mechanism import privatize_block
from privlp.problem import LinearProgram, load_problem
from privlp.seeds import derive_seed, row_stream, row_uniforms
from privlp.simplex import solve_lp

from oracles import (support_width_hp, trunc_laplace_cdf, trunc_laplace_cdf_hp,
                     trunc_laplace_moment)

PP = PrivacyParams(epsilon=1.0, delta=0.05, k=1.0)


class _StubRng:
    """Random source that always returns a fixed uniform value."""

    def __init__(self, value: float):
        self.value = float(value)

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def test_every_exported_name_resolves():
    import privlp
    assert [name for name in privlp.__all__ if not hasattr(privlp, name)] == []


# --- support width ---------------------------------------------------------

def test_support_width_frozen_values():
    # frozen from a 50-digit evaluation of the closed form
    assert support_width(1.0, 1.0, 0.05, 4) == pytest.approx(4.930599865061456, abs=1e-12)
    assert support_width(1.0, math.log(2.0), 0.25, 1) == pytest.approx(2.321928094887362, abs=1e-12)
    assert support_width(1.0, 1.0, 0.05, 1) == pytest.approx(3.565740630302794, abs=1e-12)


@given(st.floats(0.05, 20.0), st.floats(0.05, 8.0), st.floats(0.001, 0.49),
       st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_support_width_matches_high_precision(k, eps, delta, n0):
    assert support_width(k, eps, delta, n0) == pytest.approx(
        support_width_hp(k, eps, delta, n0), rel=1e-12)


def test_support_width_linear_in_k():
    base = support_width(1.3, 0.7, 0.02, 3)
    assert support_width(2.6, 0.7, 0.02, 3) == pytest.approx(2 * base, rel=1e-12)


@given(st.floats(0.05, 10.0), st.floats(0.001, 0.49), st.integers(1, 50),
       st.floats(0.05, 6.0), st.floats(0.05, 6.0))
@settings(max_examples=200, deadline=None)
def test_support_width_monotone(k, delta, n0, eps_a, eps_b):
    lo, hi = sorted((eps_a, eps_b))
    assert support_width(k, lo, delta, n0) >= support_width(k, hi, delta, n0) - 1e-12
    assert support_width(k, hi, delta, n0) <= support_width(k, hi, delta, n0 + 1)
    assert support_width(k, hi, delta, n0) >= support_width(k, hi, min(delta * 2, 0.49), n0) - 1e-12


def test_support_width_rejects_zero_count():
    with pytest.raises(ValueError):
        support_width(1.0, 1.0, 0.05, 0)


def test_boundary_delta_rejected():
    with pytest.raises(ValueError):
        support_width(1.0, math.log(2.0), 0.5, 1)


# --- sampler ---------------------------------------------------------------

def test_samples_stay_in_support(rng):
    z = sample_trunc_laplace(1.0, 2.0, rng, size=100_000)
    assert np.all(np.abs(z) <= 2.0)


def test_scalar_draw_is_float(rng):
    z = sample_trunc_laplace(1.0, 2.0, rng)
    assert isinstance(z, float)


@pytest.mark.parametrize("sigma, s", [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -2.0)])
def test_sampler_rejects_nonpositive_scale_or_width(sigma, s):
    with pytest.raises(ValueError, match="sigma and s must be positive"):
        sample_trunc_laplace(sigma, s, np.random.default_rng(0))


def test_empirical_mean_zero(rng):
    z = sample_trunc_laplace(1.0, 2.0, rng, size=100_000)
    moment2 = trunc_laplace_moment(1.0, 2.0, 2)
    stderr = math.sqrt(moment2 / z.size)
    assert abs(z.mean()) < 3 * stderr


def test_empirical_second_moment_matches_quadrature(rng):
    z = sample_trunc_laplace(1.0, 2.0, rng, size=1_000_000)
    expected = trunc_laplace_moment(1.0, 2.0, 2)
    assert (z ** 2).mean() == pytest.approx(expected, rel=5e-3)


def test_uniform_zero_maps_to_lower_endpoint():
    assert sample_trunc_laplace(0.5, 3.0, _StubRng(0.0)) == -3.0


# (sigma, s): s/sigma is 3.5, 25, 6.4 and 1000, the last in the s/sigma > 700
# form, where exp(-s/sigma) underflows to 0
_ICDF_CASES = [(1.0, 3.5), (0.02, 0.5), (0.25, 1.6), (1e-3, 1.0)]
_ICDF_STEPS = [-3.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 3.0]  # z / sigma: both halves


def test_inverse_cdf_inverts_the_cdf_to_a_few_ulps():
    # one batched call, each case a seed with its own sigma and one row
    # whose half-width is gathered to every entry, as privatize_block calls
    # it; each entry must equal its own scalar call bit for bit, and invert
    # the 50-digit CDF to within 8 ulps of z (5 at most when measured)
    from privlp.mechanism import _inverse_cdf
    sigma = np.array([[sigma] for sigma, _ in _ICDF_CASES])
    s = np.array([[s] for _, s in _ICDF_CASES])
    z = sigma * np.array(_ICDF_STEPS)
    u = np.array([[trunc_laplace_cdf_hp(z_j, sigma_i, s_i) for z_j in row]
                  for row, (sigma_i, s_i) in zip(z, _ICDF_CASES)])
    assert (u[:, :5] < 0.5).all() and (u[:, 5:] > 0.5).all() and (u < 1.0).all()
    entries = np.zeros(len(_ICDF_STEPS), dtype=np.intp)
    got = _inverse_cdf(u, s, sigma, entries)
    assert (np.abs(got - z) <= 8 * np.spacing(np.abs(z))).all()
    for i, (sigma_i, s_i) in enumerate(_ICDF_CASES):
        for j in range(len(_ICDF_STEPS)):
            one = _inverse_cdf(u[i, j:j + 1], np.asarray(s_i), sigma_i)
            assert one.tobytes() == got[i, j:j + 1].tobytes()
    with np.errstate(divide="raise"):  # the s/sigma > 700 form maps u = 0 without a warning
        ends = _inverse_cdf(np.zeros(u.shape), s, sigma, entries)
    assert (ends == -s).all()


# --- row privatization -----------------------------------------------------

def _one_row(row, mask_row, sup_row):
    return ConstraintSystem(A=[row], b=[1.0], zero_mask=[mask_row], sup_A=[sup_row])


def _draw_from(monkeypatch, rng):
    """Make every row privatized (``privatize_matrix``, ``privatize_block``) draw from ``rng``."""
    import privlp.mechanism as mechanism
    monkeypatch.setattr(mechanism, "row_uniforms",
                        lambda seeds, rows, counts: rng.random((len(seeds), int(np.sum(counts)))))


def test_fully_masked_row_unchanged(rng, monkeypatch):
    _draw_from(monkeypatch, rng)
    row = np.zeros(4)
    priv = privatize_matrix(_one_row(row, np.ones(4, bool), np.zeros(4)), PP, seed=0,
                            record_noise=True)
    assert np.array_equal(priv.A_tilde[0], row)
    assert priv.row_supports[0] == 0.0 and np.isnan(priv.noise_log).all()


def test_stubbed_lower_endpoint_reproduces_row(monkeypatch):
    _draw_from(monkeypatch, _StubRng(0.0))
    row = np.array([1.0, -0.5, 0.25])
    sup = np.array([3.0, 2.0, 1.0])
    priv = privatize_matrix(_one_row(row, np.zeros(3, bool), sup), PP, seed=0,
                            record_noise=True)
    assert np.array_equal(priv.A_tilde[0], row)  # z = -s exactly cancels the shift
    assert np.all(priv.noise_log[0] == -priv.row_supports[0])


def test_clip_frequency_matches_cdf_tail(rng):
    # one entry: a=1, sup=3; clips whenever z > (sup - a) - s
    a, sup = 1.0, 3.0
    s = support_width(PP.k, PP.epsilon, PP.delta, 1)
    draws = 100_000
    z = sample_trunc_laplace(PP.sigma, s, rng, size=draws)
    out = np.minimum(a + (s + z), sup)
    clip_rate = (out >= sup).mean()
    expected = 1.0 - trunc_laplace_cdf(sup - a - s, PP.sigma, s)
    stderr = math.sqrt(expected * (1 - expected) / draws)
    assert abs(clip_rate - expected) < 4 * stderr


def test_row_respects_entrywise_interval(rng, monkeypatch):
    _draw_from(monkeypatch, rng)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        mask = rng.random(n) < 0.3
        row = rng.normal(size=n)
        row[mask] = 0.0
        sup = row + rng.uniform(0.0, 2.0, n)
        sup[mask] = 0.0
        out = privatize_matrix(_one_row(row, mask, sup), PP, seed=0).A_tilde[0]
        assert np.all(out >= row)          # exact, not approximate
        assert np.all(out <= sup)
        assert np.array_equal(out[mask], row[mask])


# --- matrix privatization --------------------------------------------------

def _random_system(rng, m=3, n=4):
    A = rng.normal(size=(m, n))
    mask = rng.random((m, n)) < 0.3
    A[mask] = 0.0
    sup = A + rng.uniform(0.1, 2.0, (m, n))
    sup[mask] = 0.0
    return ConstraintSystem(A=A, b=rng.uniform(1.0, 3.0, m), zero_mask=mask, sup_A=sup)


def test_matrix_deterministic_for_fixed_seed(rng):
    A = rng.normal(size=(3, 4))
    sys_ = ConstraintSystem(A=A, b=rng.uniform(1.0, 3.0, 3),
                            zero_mask=np.zeros((3, 4), bool),
                            sup_A=A + 50.0)  # wide bounds: no clipping hides the noise
    one = privatize_matrix(sys_, PP, seed=123)
    two = privatize_matrix(sys_, PP, seed=123)
    assert np.array_equal(one.A_tilde, two.A_tilde)
    assert np.array_equal(one.row_supports, two.row_supports)
    other = privatize_matrix(sys_, PP, seed=124)
    assert not np.array_equal(one.A_tilde, other.A_tilde)


def test_fully_masked_matrix_passes_through(rng):
    m, n = 2, 3
    sys_ = ConstraintSystem(A=np.zeros((m, n)), b=np.ones(m),
                            zero_mask=np.ones((m, n), bool), sup_A=np.zeros((m, n)))
    priv = privatize_matrix(sys_, PP, seed=9)
    assert np.array_equal(priv.A_tilde, sys_.A)
    assert np.all(priv.row_supports == 0.0)
    assert np.all(priv.row_nonzero_counts == 0)


def _count_draws(monkeypatch):
    """Record the ``(seeds, rows, counts)`` of every ``row_uniforms`` call, in order."""
    import privlp.mechanism as mechanism
    calls = []

    def counting_draws(seeds, rows, counts):
        calls.append((list(seeds), np.asarray(rows).tolist(), np.asarray(counts).tolist()))
        return row_uniforms(seeds, rows, counts)

    monkeypatch.setattr(mechanism, "row_uniforms", counting_draws)
    return calls


def _rows_1_and_3_private():
    A = np.array([[1.0, -2.0], [0.5, -1.0], [0.0, 0.0], [1.5, 0.0]])
    mask = np.array([[True, True], [False, True], [True, True], [True, False]])
    return ConstraintSystem(A=A, b=np.ones(4), zero_mask=mask, sup_A=np.where(mask, A, A + 1.0))


def test_row_stream_built_only_for_rows_with_a_free_entry(monkeypatch):
    calls = _count_draws(monkeypatch)
    sys_ = _rows_1_and_3_private()
    A, mask = sys_.A, sys_.zero_mask
    priv = privatize_matrix(sys_, PP, seed=3)
    assert [rows for _, rows, _ in calls] == [[1, 3]]
    assert np.array_equal(priv.A_tilde[mask], A[mask])  # public nonzero entries included
    assert priv.row_supports[[0, 2]].tolist() == [0.0, 0.0]
    for i in (1, 3):  # skipping public rows leaves every other row's draws unchanged
        assert np.array_equal(priv.A_tilde[i], _row_on_its_stream(sys_, PP, 3, i)[0])


def test_block_draws_every_seed_in_one_call(monkeypatch):
    calls = _count_draws(monkeypatch)
    sys_ = _rows_1_and_3_private()
    out = privatize_block(sys_, [PP] * 3, [3, 8, 5])[0]  # rows 1 and 3 only: not the public rows
    assert calls == [([3, 8, 5], [1, 3], [1, 1])]
    assert out.tobytes() == np.stack([privatize_matrix(sys_, PP, seed).A_tilde[~sys_.zero_mask]
                                      for seed in (3, 8, 5)]).tobytes()


_BLOCK_SEEDS = [np.int64(7), 2 ** 63 + 5, np.uint64(2 ** 64 - 7), 0, 123, np.int32(-3),
                2 ** 64 - 1, 42]


def _block_case(case, rng):
    if case == "masked_rows":
        return _mixed_system(rng, 6, 9, [9, 0, 4, 1, 0, 7]), PP
    if case == "all_public":
        return _mixed_system(rng, 3, 4, [0, 0, 0]), PP
    if case == "occupancy_lp":  # equality rows, one private row
        return occupancy_lp(build_gridworld(default_grid())).system, PrivacyParams(1.0, 0.05, 0.25)
    # epsilon > 700 and s/sigma > 700: the overflow-free branches
    return _mixed_system(rng, 5, 7, [7, 2, 0, 5, 1]), PrivacyParams(1e4, 0.05, 1e-3)


@pytest.mark.parametrize("size", [1, 3, 8])
@pytest.mark.parametrize("case", ["masked_rows", "all_public", "occupancy_lp", "huge_epsilon"])
def test_privatize_block_equals_stacked_privatize_matrix_bytes(case, size):
    rng = np.random.default_rng(size)
    for _ in range(3):
        sys_, p = _block_case(case, rng)
        seeds = _BLOCK_SEEDS[:size]
        out, s, z = privatize_block(sys_, [p] * size, seeds)
        privs = [privatize_matrix(sys_, p, seed, record_noise=True) for seed in seeds]
        _assert_block_is_stacked_matrices(sys_, out, s, z, privs)


def _assert_block_is_stacked_matrices(sys_, out, s, z, privs):
    rows, free = sys_.private_rows[1], ~sys_.zero_mask  # the block holds the free entries only
    assert out.tobytes() == np.stack([priv.A_tilde[free] for priv in privs]).tobytes()
    for s_t, noise, priv in zip(s, z, privs, strict=True):
        assert s_t.tobytes() == priv.row_supports[rows].tobytes()
        assert noise.tobytes() == priv.noise_log[free].tobytes()
        assert np.isnan(priv.noise_log[~free]).all()
        assert priv.A_tilde[~free].tobytes() == sys_.A[~free].tobytes()


@pytest.mark.parametrize("labels", [
    ["a", "huge", "a", "b", "a", "huge"],   # a repeated params and one with epsilon > 700
    ["huge", "b"],
    ["b"],                                  # a block of one
])
def test_privatize_block_with_mixed_params_equals_each_privatize_matrix(monkeypatch, labels):
    from privlp import mechanism
    by_label = {"a": PrivacyParams(1.0, 0.05, 0.3), "b": PrivacyParams(0.2, 0.1, 1.0),
                "huge": PrivacyParams(1e4, 0.05, 1e-3)}  # epsilon > 700 and s/sigma > 700
    sys_ = _mixed_system(np.random.default_rng(len(labels)), 5, 7, [7, 2, 0, 5, 1])
    params = [by_label[label] for label in labels]
    seeds = _BLOCK_SEEDS[:len(labels)]
    calibrated = []
    calibration = mechanism._row_calibration
    monkeypatch.setattr(mechanism, "_row_calibration",
                        lambda sys, p: calibrated.append(p) or calibration(sys, p))
    out, s, z = privatize_block(sys_, params, seeds)
    assert calibrated == list(dict.fromkeys(params))  # once per distinct params, first-seen order
    privs = [privatize_matrix(sys_, p, seed, record_noise=True) for p, seed in zip(params, seeds)]
    _assert_block_is_stacked_matrices(sys_, out, s, z, privs)


@pytest.mark.parametrize("p, free_counts", [
    (PrivacyParams(1e-320, 0.05, 1.0), [7, 2, 0, 5, 1]),   # k/epsilon overflows to inf
    (PrivacyParams(1e-300, 0.05, 1e300), [7, 2, 0, 5, 1]),
    (PrivacyParams(1.0, 0.05, 1e308), [7, 2, 0, 5, 1]),    # k/epsilon is finite, every s_i is inf
    (PrivacyParams(1e-320, 0.05, 1.0), [0, 0, 0, 0, 0]),   # all public: no s_i, sigma still checked
    (PrivacyParams(5.0, 0.05, 5e-324), [7, 2, 0, 5, 1]),   # k/epsilon and every s_i underflow to 0
])
def test_a_noise_scale_or_support_width_that_is_not_finite_is_named(p, free_counts):
    # the calibration refuses it, or one that underflows to 0, before any noise is drawn
    from privlp.accuracy import xi_term
    sys_ = _mixed_system(np.random.default_rng(4), 5, 7, free_counts)
    for call in (lambda: privatize_matrix(sys_, p, 3), lambda: xi_term(sys_, p),
                 lambda: privatize_block(sys_, [PP, p], [3, 4])):
        with pytest.raises(ValueError, match="k/epsilon and every support width must be finite"):
            call()


def test_row_supports_match_closed_form(rng):
    sys_ = _random_system(rng, m=4, n=5)
    priv = privatize_matrix(sys_, PP, seed=77)
    for i in range(4):
        n0 = int((~sys_.zero_mask[i]).sum())
        if n0 == 0:
            assert priv.row_supports[i] == 0.0
        else:
            assert priv.row_supports[i] == pytest.approx(
                support_width_hp(PP.k, PP.epsilon, PP.delta, n0), rel=1e-12)
        assert priv.row_nonzero_counts[i] == n0


def test_tightening_boundedness_zero_pattern(rng):
    for _ in range(100):
        sys_ = _random_system(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 6)))
        priv = privatize_matrix(sys_, PP, seed=int(rng.integers(0, 2 ** 32)))
        assert np.all(priv.A_tilde >= sys_.A)
        assert np.all(priv.A_tilde <= sys_.sup_A)
        assert np.all(priv.A_tilde[sys_.zero_mask] == 0.0)


def test_noise_log_records_draws(rng):
    sys_ = _random_system(rng)
    priv = privatize_matrix(sys_, PP, seed=5, record_noise=True)
    free = ~sys_.zero_mask
    assert priv.noise_log.shape == sys_.A.shape
    assert np.isnan(priv.noise_log[sys_.zero_mask]).all()
    recorded = priv.noise_log[free]
    assert np.all(np.abs(recorded) <= priv.row_supports.max())


def test_privatized_document_round_trip(rng):
    sys_ = _random_system(rng)
    lp = LinearProgram(c=np.ones(sys_.shape[1]), system=sys_, privacy=PP)
    priv = privatize_matrix(sys_, PP, seed=42)
    assert not hasattr(priv, "seed")  # the mechanism's secret stays with the caller
    doc = privatized_document(lp, priv)
    assert doc["mechanism"]["sigma"] == PP.sigma
    assert "seed" not in doc["mechanism"]  # the mechanism's secret is never released
    assert len(doc["mechanism"]["row_supports"]) == sys_.shape[0]
    assert doc["A"] == priv.A_tilde.tolist()


def test_privatized_document_of_equality_rows_loads_as_the_privatized_region():
    # the schema has no equality rows, so the document writes each flow
    # equality as its pair; load_problem must read back the privatized
    # system's region, not the relaxation flow x <= mu
    lp = occupancy_lp(build_gridworld(default_grid()))
    m = lp.system.shape[0]
    priv = privatize_matrix(lp.system, PrivacyParams(1.0, 0.05, 0.25), seed=3)
    doc = json.loads(json.dumps(privatized_document(lp, priv)))
    loaded = load_problem(json.dumps(doc)).system
    private = lp.system.tightened(priv.A_tilde)
    form = private.inequality_form()
    for name in ("A", "b", "zero_mask", "sup_A"):
        assert np.array_equal(getattr(loaded, name), getattr(form, name))
    assert loaded.equality is None and loaded.shape[0] == m + lp.system.equality.sum()
    assert doc["mechanism"]["row_supports"] == priv.row_supports.tolist() + [0.0] * (m - 1)
    native, read = solve_lp(lp.c, private), solve_lp(lp.c, loaded)
    assert native.status == read.status == "Optimal"
    assert read.objective == pytest.approx(native.objective, abs=1e-9)
    assert private.residuals(read.x).max() <= 1e-9


def _mixed_system(rng, m, n, free_counts):
    """System whose row i has ``free_counts[i]`` free entries; 0 makes a public row."""
    mask = np.ones((m, n), bool)
    for i, count in enumerate(free_counts):
        mask[i, rng.choice(n, count, replace=False)] = False
    A = rng.uniform(-1.0, 2.0, (m, n))
    A[mask & (rng.random((m, n)) < 0.5)] = 0.0
    sup = np.where(mask, A, A + rng.uniform(0.05, 2.0, (m, n)))
    return ConstraintSystem(A=A, b=np.ones(m), zero_mask=mask, sup_A=sup)


def _assert_seed_sequence_words(seed, row):
    # row_uniforms starts PCG64 from these words, so they are the stream's seed
    from privlp.seeds import _state_words
    reference = np.random.SeedSequence(entropy=seed & (2 ** 64 - 1), spawn_key=(row,))
    words = _state_words([seed], [row])[:, 0, 0]
    assert words.tobytes() == reference.generate_state(4, np.uint64).tobytes()


@pytest.mark.parametrize("seed, row", [
    (0, 0), (7, 3), (2 ** 64 + 5, 11), (-1, 2), (123456789, 50),
    # seeds on either side of one and two entropy words, rows up to one spawn word
    (2 ** 32 - 1, 1), (2 ** 32, 2 ** 31), (2 ** 64 - 1, 2 ** 32 - 1), (2 ** 32, 0),
])
def test_row_stream_is_the_default_rng_stream(seed, row):
    _assert_seed_sequence_words(seed, row)


def test_row_stream_matches_default_rng_on_interleaved_seeds():
    # the words of 2000 streams whose seed switches between three at random, with rows
    # across the whole spawn word
    draw = np.random.default_rng(5)
    seeds = [*draw.integers(-2 ** 63, 2 ** 63, 2).tolist(), 2 ** 32 + 1]
    for seed, row in zip(draw.choice(seeds, 2000).tolist(), draw.integers(0, 2 ** 32, 2000).tolist()):
        _assert_seed_sequence_words(seed, row)


@pytest.mark.parametrize("row", [-1, 2 ** 32])
def test_row_stream_rejects_rows_beyond_one_spawn_word(row):
    with pytest.raises(ValueError, match=r"row indices must lie in \[0, 2\*\*32\)"):
        row_uniforms([3], [row], [1])


_UNIFORM_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, *_BLOCK_SEEDS]
_UNIFORM_ROWS = [(0, 1), (2 ** 32 - 1, 6), (5, 40), (2 ** 31, 100), (0, 6)]  # (row, count)
_MASK64, _MASK128 = 2 ** 64 - 1, 2 ** 128 - 1


def _jump_terms(seed, row, count):
    """Per draw of row stream ``(seed, row)``: the two 128-bit terms whose sum
    mod 2**128 is its ``PCG64`` state, ``MULT**(k+1) * (state + inc)`` and
    ``S_(k+1) * inc``, in Python ints from NumPy's own seed words. The last
    sum is checked against NumPy's ``PCG64`` state after ``count`` draws.
    """
    sequence = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(row,))
    w = sequence.generate_state(4, np.uint64).tolist()
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    start = ((w[0] << 64 | w[1]) + inc) & _MASK128
    power, total, terms = mult, 1, []
    for _ in range(count):
        power, total = power * mult & _MASK128, (total + power) & _MASK128
        terms.append((power * start & _MASK128, total * inc & _MASK128))
    bit_generator = np.random.PCG64(sequence)
    bit_generator.random_raw(count)
    assert sum(terms[-1]) & _MASK128 == bit_generator.state["state"]["state"]
    return terms


def _row_streams(seeds, rows_counts):
    return np.array([np.concatenate([row_stream(seed, row).random(count) for row, count in rows_counts])
                     for seed in seeds])


@pytest.mark.parametrize("seeds", [
    _UNIFORM_SEEDS,                         # repeats 0 and 2**64 - 1
    [np.int32(-3)],                         # a block of one
    [7, np.uint64(7), -7, np.int64(7), 7],  # one seed repeated, and its negative
])
def test_row_uniforms_is_every_row_stream_bytes(seeds):
    rows, counts = zip(*_UNIFORM_ROWS)
    assert row_uniforms(seeds, rows, counts).tobytes() == _row_streams(seeds, _UNIFORM_ROWS).tobytes()
    assert row_uniforms(seeds, rows[2:3], counts[2:3]).tobytes() == \
        _row_streams(seeds, _UNIFORM_ROWS[2:3]).tobytes()


def test_row_uniforms_sample_reaches_rotation_zero_and_a_carry():
    # the byte test's draws include an XSL-RR rotation of 0, where the left
    # shift is by 64 & 63 = 0, and a carry out of the low words of the jump's sum
    terms = [term for seed in _UNIFORM_SEEDS for row, count in _UNIFORM_ROWS
             for term in _jump_terms(seed, row, count)]
    assert any(((a + b) & _MASK128) >> 122 == 0 for a, b in terms)
    assert any((a & _MASK64) + (b & _MASK64) > _MASK64 for a, b in terms)


@pytest.mark.parametrize("numpy_seed", [np.int64(7), np.uint64(7), np.int64(-7), np.uint64(2 ** 64 - 7)])
def test_numpy_integer_seed_privatizes_like_the_python_int(rng, numpy_seed):
    sys_ = _mixed_system(rng, 5, 8, [8, 2, 0, 5, 1])
    expected = privatize_matrix(sys_, PP, int(numpy_seed)).A_tilde
    assert privatize_matrix(sys_, PP, numpy_seed).A_tilde.tobytes() == expected.tobytes()
    assert derive_seed(numpy_seed, 1, 2) == derive_seed(int(numpy_seed), 1, 2)


@pytest.mark.parametrize("numpy_seed", [np.int64(7), np.uint64(2 ** 64 - 7)])
def test_privatized_document_of_a_numpy_seed_releases_no_seed(rng, numpy_seed):
    # whatever the seed's type, the document serializes without it
    sys_ = _mixed_system(rng, 3, 4, [4, 0, 2])
    lp = LinearProgram(c=np.ones(4), system=sys_)
    priv = privatize_matrix(sys_, PP, numpy_seed)
    doc = json.loads(json.dumps(privatized_document(lp, priv)))
    assert "seed" not in doc["mechanism"]
    assert doc["A"] == priv.A_tilde.tolist()


@pytest.mark.parametrize("base_seed", [0, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, -1, -2 ** 63,
                                       np.int64(-7), np.uint64(2 ** 64 - 7), np.int32(3)])
def test_derive_seeds_is_derive_seed_at_every_cell(base_seed):
    from privlp.seeds import derive_seeds
    eps_index, trial = np.divmod(np.arange(12), 4)
    seeds = derive_seeds(base_seed, eps_index, trial)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(base_seed, int(e), int(t)) for e, t in zip(eps_index, trial)]
    negative = np.array([-1, -2 ** 63, 2 ** 63 - 1])  # an int64 index is read mod 2**64, as an int is
    assert derive_seeds(base_seed, negative).tolist() == [derive_seed(base_seed, i)
                                                          for i in negative.tolist()]
    assert derive_seeds(base_seed).tolist() == [derive_seed(base_seed)]


def test_row_uniforms_holds_few_draw_sized_arrays():
    # the 8640 draws of 120 cells of a 12x6 LP are 69 KB; the 128-bit
    # products are formed in place, so the peak stays under 11 such arrays
    import tracemalloc
    args = (range(120), range(12), [6] * 12)
    row_uniforms(*args)  # the draw table is cached
    tracemalloc.start()
    try:
        u = row_uniforms(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == 69_120 and peak <= 760_000


def test_derive_seed_takes_integer_indices_only():
    with pytest.raises(TypeError):
        derive_seed(0, 1.7)
    with pytest.raises(TypeError):
        derive_seed(0, 1, 2.0)
    for index in (np.int64(3), np.uint64(3), np.int32(-5)):
        assert derive_seed(0, index, 4) == derive_seed(0, int(index), 4)
        assert derive_seed(0, 4, index) == derive_seed(0, 4, int(index))


def _hexes(values):
    return np.vectorize(float.hex, otypes=[object])(values).tolist()


@pytest.mark.parametrize("case", ["mixed", "one_private_row", "huge_epsilon"])
def test_privatize_matrix_matches_pinned_bytes(case):
    # written by the per-row implementation this batched one replaced
    doc = json.loads((Path(__file__).parent / "data" / f"privatize_{case}.json").read_text())
    from_hex = np.vectorize(float.fromhex)
    sys_ = ConstraintSystem(A=from_hex(doc["A"]), b=np.ones(len(doc["A"])),
                            zero_mask=np.array(doc["zero_mask"]), sup_A=from_hex(doc["sup_A"]))
    p = PrivacyParams(**doc["privacy"])
    for expected in doc["outputs"]:
        priv = privatize_matrix(sys_, p, expected["seed"], record_noise=True)
        assert _hexes(priv.A_tilde) == expected["A_tilde"]
        assert _hexes(priv.row_supports) == expected["row_supports"]
        assert _hexes(priv.noise_log) == expected["noise_log"]


def _row_on_its_stream(sys_, p, seed, i):
    """Row ``i`` privatized by hand: ``(row, s_i, z)``, z in entry order."""
    a, free, sup = sys_.A[i], ~sys_.zero_mask[i], sys_.sup_A[i]
    n0 = int(free.sum())
    if n0 == 0:
        return a, 0.0, np.empty(0)
    s_i = support_width(p.k, p.epsilon, p.delta, n0)
    z = sample_trunc_laplace(p.sigma, s_i, row_stream(seed, i), n0)
    out = a.copy()
    out[free] = np.minimum(a[free] + (s_i + z), sup[free])
    return out, s_i, z


@pytest.mark.parametrize("epsilon, k", [(1.0, 0.3), (0.2, 1.0), (695.0, 0.01), (1e4, 1e-3)])
def test_matrix_rows_equal_privatize_row_on_their_stream(rng, epsilon, k):
    p = PrivacyParams(epsilon=epsilon, delta=0.05, k=k)
    sys_ = _mixed_system(rng, 7, 20, [20, 3, 0, 11, 1, 3, 20])
    priv = privatize_matrix(sys_, p, seed=31, record_noise=True)
    for i in range(7):
        out, s_i, z = _row_on_its_stream(sys_, p, 31, i)
        assert out.tobytes() == priv.A_tilde[i].tobytes()
        assert s_i == priv.row_supports[i]
        assert z.tobytes() == priv.noise_log[i, ~sys_.zero_mask[i]].tobytes()


def test_clipped_counts_match_entrywise_scan(rng):
    total = 0
    for trial in range(50):
        sys_ = _mixed_system(rng, 6, 9, [9, 0, 4, 1, 7, 0])
        priv = privatize_matrix(sys_, PP, seed=trial)
        free = ~sys_.zero_mask
        expected = np.count_nonzero((priv.A_tilde == sys_.sup_A) & free, axis=1)
        assert np.array_equal(priv.clipped_counts, expected)
        assert priv.clipped_counts[[1, 5]].tolist() == [0, 0]  # fully masked rows
        total += int(priv.clipped_counts.sum())
    assert total > 0


def test_privatize_matrix_reads_the_system_part_once(monkeypatch):
    # a sweep privatizes one system in every trial; its private rows and
    # their blocks are computed on the first call only
    from privlp import ConstraintSystem
    calls = []
    counts = ConstraintSystem.row_nonzero_counts
    monkeypatch.setattr(ConstraintSystem, "row_nonzero_counts",
                        lambda self: calls.append(1) or counts(self))
    A = np.array([[1.0, 2.0, 0.0], [0.5, 0.0, 1.0], [1.0, 1.0, 1.0]])
    mask = (A == 0.0) | (np.arange(3) == 2)[:, None]  # row 2 is public

    def system():
        return ConstraintSystem(A=A, b=np.ones(3), zero_mask=mask,
                                sup_A=np.where(mask, A, A + 1.0))

    sys_ = system()
    p = PrivacyParams(1.0, 0.05, 0.5)
    first = [privatize_matrix(sys_, p, seed).A_tilde for seed in range(3)]
    assert len(calls) == 1
    fresh = [privatize_matrix(system(), p, seed).A_tilde for seed in range(3)]
    assert all(np.array_equal(a, b) for a, b in zip(first, fresh))
