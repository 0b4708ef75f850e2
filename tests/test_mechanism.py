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
    TruncLaplaceParams,
    privatize_matrix,
    privatize_row,
    privatized_document,
    privatized_system,
    sample_trunc_laplace,
    support_width,
)
from privlp.problem import LinearProgram
from privlp.seeds import row_stream

from oracles import support_width_hp, trunc_laplace_cdf, trunc_laplace_moment

PP = PrivacyParams(epsilon=1.0, delta=0.05, k=1.0)


class _StubRng:
    """Random source that always returns a fixed uniform value."""

    def __init__(self, value: float):
        self.value = float(value)

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


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
    params = TruncLaplaceParams(sigma=1.0, s=2.0)
    z = sample_trunc_laplace(params, rng, size=100_000)
    assert np.all(np.abs(z) <= params.s)


def test_scalar_draw_is_float(rng):
    z = sample_trunc_laplace(TruncLaplaceParams(1.0, 2.0), rng)
    assert isinstance(z, float)


def test_empirical_mean_zero(rng):
    params = TruncLaplaceParams(sigma=1.0, s=2.0)
    z = sample_trunc_laplace(params, rng, size=100_000)
    moment2 = trunc_laplace_moment(1.0, 2.0, 2)
    stderr = math.sqrt(moment2 / z.size)
    assert abs(z.mean()) < 3 * stderr


def test_empirical_second_moment_matches_quadrature(rng):
    params = TruncLaplaceParams(sigma=1.0, s=2.0)
    z = sample_trunc_laplace(params, rng, size=1_000_000)
    expected = trunc_laplace_moment(1.0, 2.0, 2)
    assert (z ** 2).mean() == pytest.approx(expected, rel=5e-3)


def test_cdf_matches_quadrature():
    params = TruncLaplaceParams(sigma=0.7, s=1.9)
    for x in (-1.9, -1.2, -0.3, 0.0, 0.4, 1.1, 1.9):
        assert params.cdf(x) == pytest.approx(trunc_laplace_cdf(x, 0.7, 1.9), abs=1e-10)


def test_uniform_zero_maps_to_lower_endpoint():
    params = TruncLaplaceParams(sigma=0.5, s=3.0)
    assert sample_trunc_laplace(params, _StubRng(0.0)) == -3.0


# --- row privatization -----------------------------------------------------

def test_fully_masked_row_unchanged(rng):
    row = np.zeros(4)
    out, s_i, z = privatize_row(row, np.ones(4, bool), np.zeros(4), PP, rng)
    assert np.array_equal(out, row)
    assert s_i == 0.0 and z.size == 0


def test_stubbed_lower_endpoint_reproduces_row():
    row = np.array([1.0, -0.5, 0.25])
    sup = np.array([3.0, 2.0, 1.0])
    out, s_i, z = privatize_row(row, np.zeros(3, bool), sup, PP, _StubRng(0.0))
    assert np.array_equal(out, row)  # z = -s exactly cancels the shift
    assert np.all(z == -s_i)


def test_clip_frequency_matches_cdf_tail(rng):
    # one entry: a=1, sup=3; clips whenever z > (sup - a) - s
    a, sup = 1.0, 3.0
    s = support_width(PP.k, PP.epsilon, PP.delta, 1)
    params = TruncLaplaceParams(sigma=PP.sigma, s=s)
    draws = 100_000
    z = sample_trunc_laplace(params, rng, size=draws)
    out = np.minimum(a + (s + z), sup)
    clip_rate = (out >= sup).mean()
    expected = 1.0 - trunc_laplace_cdf(sup - a - s, PP.sigma, s)
    stderr = math.sqrt(expected * (1 - expected) / draws)
    assert abs(clip_rate - expected) < 4 * stderr


def test_row_respects_entrywise_interval(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        mask = rng.random(n) < 0.3
        row = rng.normal(size=n)
        row[mask] = 0.0
        sup = row + rng.uniform(0.0, 2.0, n)
        sup[mask] = 0.0
        out, s_i, _ = privatize_row(row, mask, sup, PP, rng)
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


def test_row_stream_built_only_for_rows_with_a_free_entry(monkeypatch):
    import privlp.mechanism as mechanism
    calls = []

    def counting_stream(seed, row_index):
        calls.append(row_index)
        return row_stream(seed, row_index)

    monkeypatch.setattr(mechanism, "row_stream", counting_stream)
    A = np.array([[1.0, -2.0], [0.5, -1.0], [0.0, 0.0], [1.5, 0.0]])
    mask = np.array([[True, True], [False, True], [True, True], [True, False]])
    sup = np.where(mask, A, A + 1.0)
    sys_ = ConstraintSystem(A=A, b=np.ones(4), zero_mask=mask, sup_A=sup)
    priv = privatize_matrix(sys_, PP, seed=3)
    assert calls == [1, 3]
    assert np.array_equal(priv.A_tilde[mask], A[mask])  # public nonzero entries included
    assert priv.row_supports[[0, 2]].tolist() == [0.0, 0.0]
    for i in (1, 3):  # skipping public rows leaves every other row's draws unchanged
        out, _, _ = privatize_row(A[i], mask[i], sup[i], PP, row_stream(3, i))
        assert np.array_equal(priv.A_tilde[i], out)


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
    doc = privatized_document(lp, priv)
    assert doc["mechanism"]["sigma"] == PP.sigma
    assert doc["mechanism"]["seed"] == 42
    assert len(doc["mechanism"]["row_supports"]) == sys_.shape[0]
    assert doc["A"] == priv.A_tilde.tolist()
    tightened = privatized_system(sys_, priv)
    assert np.array_equal(tightened.A, priv.A_tilde)
    assert np.array_equal(tightened.b, sys_.b)


def _mixed_system(rng, m, n, free_counts):
    """System whose row i has ``free_counts[i]`` free entries; 0 makes a public row."""
    mask = np.ones((m, n), bool)
    for i, count in enumerate(free_counts):
        mask[i, rng.choice(n, count, replace=False)] = False
    A = rng.uniform(-1.0, 2.0, (m, n))
    A[mask & (rng.random((m, n)) < 0.5)] = 0.0
    sup = np.where(mask, A, A + rng.uniform(0.05, 2.0, (m, n)))
    return ConstraintSystem(A=A, b=np.ones(m), zero_mask=mask, sup_A=sup)


@pytest.mark.parametrize("seed, row", [(0, 0), (7, 3), (2 ** 64 + 5, 11), (-1, 2), (123456789, 50)])
def test_row_stream_is_the_default_rng_stream(seed, row):
    reference = np.random.default_rng(np.random.SeedSequence(entropy=seed & (2 ** 64 - 1),
                                                             spawn_key=(row,)))
    stream = row_stream(seed, row)
    assert np.array_equal(stream.random(9), reference.random(9))
    assert np.array_equal(stream.integers(0, 2 ** 62, 5), reference.integers(0, 2 ** 62, 5))


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


@pytest.mark.parametrize("epsilon, k", [(1.0, 0.3), (0.2, 1.0), (695.0, 0.01), (1e4, 1e-3)])
def test_matrix_rows_equal_privatize_row_on_their_stream(rng, epsilon, k):
    p = PrivacyParams(epsilon=epsilon, delta=0.05, k=k)
    sys_ = _mixed_system(rng, 7, 20, [20, 3, 0, 11, 1, 3, 20])
    priv = privatize_matrix(sys_, p, seed=31, record_noise=True)
    for i in range(7):
        out, s_i, z = privatize_row(sys_.A[i], sys_.zero_mask[i], sys_.sup_A[i], p,
                                    row_stream(31, i))
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
