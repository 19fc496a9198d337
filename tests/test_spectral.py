"""Unit tests for the spectral primitives."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from horus.spectral import (
    decompose_many,
    inverse_normal_cdf,
    percentile,
    spectral_entropy,
    topk_energy_ratio,
)


def spec(*values):
    return np.array(values, dtype=float)


def decompose(m):
    """One matrix's (singular values, first right singular vector)."""
    return decompose_many([m])[0]


class TestThinSvd:
    """The singular values :func:`decompose_many` returns: the thin SVD's."""

    def test_identity(self):
        s, _ = decompose(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        s, _ = decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_singular_value_identities(self):
        # oracle: the eigenvalues of m m^T are the squared singular values,
        # and the first right singular vector is a unit top eigenvector of m^T m
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(5, 7))
            s, v = decompose(m)
            eig = np.sort(np.linalg.eigvalsh(m @ m.T))[::-1]
            tol = 1e-8 * max(1.0, np.linalg.norm(m) ** 2)
            assert np.linalg.norm(s**2 - eig) <= tol
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-8
            assert np.linalg.norm(m.T @ (m @ v) - s[0] ** 2 * v) <= tol
            assert s.shape == (5,)
            assert np.all(np.diff(s) <= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decompose(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            decompose(np.array([[np.inf, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            decompose(np.zeros((0, 3)))


class TestSpectralEntropy:
    def test_uniform_attains_log_rank(self):
        assert spectral_entropy(spec(1, 1, 1, 1)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_single_direction_is_zero(self):
        assert spectral_entropy(spec(5, 0, 0, 0)) == 0.0

    def test_three_one_spectrum(self):
        # oracle: -0.75*ln(0.75) - 0.25*ln(0.25), summed directly
        assert spectral_entropy(spec(3, 1, 0, 0)) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_all_zero_convention(self):
        assert spectral_entropy(spec(0, 0, 0)) == 0.0

    def test_bounds_on_random_spectra(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = int(rng.integers(1, 12))
            vals = np.sort(rng.random(r))[::-1]
            h = spectral_entropy(vals)
            assert -1e-12 <= h <= math.log(r) + 1e-12


class TestTopkEnergyRatio:
    def test_full_rank_sum(self):
        assert topk_energy_ratio(spec(3, 1, 0, 0), 4) == 1.0

    def test_uniform_symmetry(self):
        assert topk_energy_ratio(spec(1, 1, 1, 1), 1) == pytest.approx(0.25)

    def test_direct_ratio(self):
        assert topk_energy_ratio(spec(3, 1, 0, 0), 1) == pytest.approx(0.75)

    def test_k_clamped(self):
        assert topk_energy_ratio(spec(3, 1), 99) == 1.0

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            topk_energy_ratio(spec(1, 1), 0)

    def test_all_zero_convention(self):
        assert topk_energy_ratio(spec(0, 0), 1) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = int(rng.integers(2, 10))
            vals = np.sort(rng.random(r))[::-1]
            ratios = [topk_energy_ratio(vals, k) for k in range(1, r + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] == pytest.approx(1.0, abs=1e-12)


def power_iteration_direction(m, iters=500, tol=1e-12):
    """Independent oracle: dominant eigenvector of m.T @ m."""
    gram = m.T @ m
    v = np.ones(m.shape[1]) / math.sqrt(m.shape[1])
    for _ in range(iters):
        nxt = gram @ v
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return v
        nxt /= norm
        if np.linalg.norm(nxt - v) < tol and np.linalg.norm(nxt + v) > tol:
            return nxt
        v = nxt
    return v


class TestFirstRightSingularVector:
    """The vector :func:`decompose_many` returns next to the spectrum."""

    def test_diagonal(self):
        _, v = decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)

    def test_rank_one_structure(self):
        u = np.array([1.0, -2.0, 0.5])
        w = np.array([2.0, 1.0, -1.0, 3.0])
        _, v = decompose(np.outer(u, w))
        expected = w / np.linalg.norm(w)
        assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-10

    def test_against_power_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(4, 6))
            _, v = decompose(m)
            oracle = power_iteration_direction(m)
            assert abs(np.dot(v, oracle)) >= 1.0 - 1e-8

    def test_zero_matrix_degenerate(self):
        s, v = decompose(np.zeros((3, 4)))
        assert s.sum() == 0.0
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0])

    def test_sign_canonicalization(self):
        _, v = decompose(np.diag([-5.0, 1.0]))
        assert v[np.argmax(np.abs(v))] > 0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_maximum(self):
        assert percentile([1, 2, 3, 4, 5], 100) == 5.0

    def test_worked_example(self):
        # frozen from the interpolation formula: rank 2.85 between 0.3 and 0.9
        assert percentile([0.1, 0.2, 0.3, 0.9], 95) == pytest.approx(
            0.8099999999999998, abs=1e-15
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_matches_numpy_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            xs = rng.normal(size=int(rng.integers(1, 30)))
            p = float(rng.uniform(0, 100))
            assert percentile(xs, p) == pytest.approx(
                float(np.percentile(xs, p)), abs=1e-12
            )


def normal_cdf_by_simpson(x: float) -> float:
    """Numeric integration of the standard normal density over (-12, x]."""
    grid = np.linspace(-12.0, x, 20001)
    pdf = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    step = grid[1] - grid[0]
    weights = np.ones_like(grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((weights * pdf).sum() * step / 3.0)


class TestInverseNormalCdf:
    def test_median_is_zero(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_against_integration_oracle(self):
        q = 0.841344746
        x = inverse_normal_cdf(q)
        assert x == pytest.approx(1.0, abs=1e-4)
        assert normal_cdf_by_simpson(x) == pytest.approx(q, abs=1e-6)

    def test_antisymmetry(self):
        for q in (0.01, 0.2, 0.37, 0.73, 0.95, 0.999):
            assert inverse_normal_cdf(q) == pytest.approx(
                -inverse_normal_cdf(1.0 - q), abs=1e-9
            )

    def test_cdf_error_bound_on_grid(self):
        for q in np.linspace(1e-6, 1.0 - 1e-6, 501):
            x = inverse_normal_cdf(float(q))
            phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert abs(phi - q) <= 1e-6

    def test_rejects_out_of_domain(self):
        for q in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                inverse_normal_cdf(q)


@st.composite
def matrices(draw, max_rows=6, max_cols=9):
    """A small real matrix with entries in [-10, 10], zeros and repeats included."""
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols)))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    return draw(arrays(float, shape, elements=entries))


def zero_padded(m, extra_rows=0, extra_cols=0):
    out = np.zeros((m.shape[0] + extra_rows, m.shape[1] + extra_cols))
    out[: m.shape[0], : m.shape[1]] = m
    return out


def assert_same_features(s1, s2, ks):
    assert abs(spectral_entropy(s1) - spectral_entropy(s2)) <= 1e-10
    for k in ks:
        assert abs(topk_energy_ratio(s1, k) - topk_energy_ratio(s2, k)) <= 1e-10


class TestInvariances:
    """The obliviousness the detector relies on: spectral features ignore
    positive scaling and zero-padding, and padding columns only zero-extends
    the first right singular vector that the consistency weights read."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(matrices(), st.sampled_from([1e-3, 0.37, 2.0, 1e4]))
    def test_scale_invariance(self, m, scale):
        s1, _ = decompose(m)
        s2, _ = decompose(scale * m)
        assert_same_features(s1, s2, range(1, len(s1) + 1))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(matrices(), st.integers(1, 6))
    def test_zero_padding_invariance(self, m, extra_cols):
        s1, _ = decompose(m)
        s2, _ = decompose(zero_padded(m, extra_cols=extra_cols))
        np.testing.assert_allclose(s2[: len(s1)], s1, atol=1e-10)
        np.testing.assert_allclose(s2[len(s1) :], 0.0, atol=1e-10)
        assert_same_features(s1, s2, range(1, len(s1) + 1))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(matrices(), st.integers(1, 6))
    def test_padding_rows_grows_nominal_rank_harmlessly(self, m, extra_rows):
        s1, _ = decompose(m)
        s2, _ = decompose(zero_padded(m, extra_rows=extra_rows))
        np.testing.assert_allclose(s2[: len(s1)], s1, atol=1e-10)
        np.testing.assert_allclose(s2[len(s1) :], 0.0, atol=1e-10)
        assert_same_features(s1, s2, range(1, len(s1) + 1))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(matrices(), st.integers(1, 6))
    def test_column_padding_zero_extends_v1(self, m, extra_cols):
        s, v = decompose(m)
        # a repeated top singular value leaves v1 free within its eigenspace
        gap = s[0] - (s[1] if len(s) > 1 else 0.0)
        assume(s.sum() == 0.0 or gap > 0.05 * s[0])
        _, v_pad = decompose(zero_padded(m, extra_cols=extra_cols))
        extended = np.concatenate([v, np.zeros(extra_cols)])
        # the weights read |<v1, v_global>|, so only the sign may differ
        assert min(np.linalg.norm(v_pad - extended),
                   np.linalg.norm(v_pad + extended)) <= 1e-10


def single_svd_oracle(m):
    """decompose_many's contract for one matrix from one unstacked LAPACK call, and whether the
    raw first right singular vector had to be flipped."""
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    v = vt[0]
    flipped = bool(v[np.argmax(np.abs(v))] < 0)
    if not m.any():
        v, flipped = np.eye(1, m.shape[1])[0], False
    elif flipped:
        v = -v
    return s, v, flipped


class TestDecomposeMany:
    """One stacked SVD per shape gives what a matrix decomposed alone gives."""

    def mixed_batch(self, rng):
        shapes = [(8, 64), (48, 8), (8, 32), (10, 8), (3, 3), (1, 5), (6, 1)]
        batch = []
        for i in range(70):
            m = rng.normal(size=shapes[i % len(shapes)])
            if i % 9 == 0:
                m = np.zeros_like(m)
            batch.append(m)
        return batch

    def test_matches_single_matrix_decompositions_bit_for_bit(self):
        batch = self.mixed_batch(np.random.default_rng(0))
        flips = []
        for m, (s, v) in zip(batch, decompose_many(batch)):
            s_one, v_one = decompose(m)
            s_raw, v_raw, flipped = single_svd_oracle(m)
            flips.append(flipped)
            assert s.shape == s_one.shape == (min(m.shape),)
            assert s.tobytes() == s_one.tobytes() == s_raw.tobytes()
            assert v.tobytes() == v_one.tobytes() == v_raw.tobytes()
        # the batch covers the sign flip, the unflipped case and zero matrices
        assert any(flips) and not all(flips)
        assert sum(not m.any() for m in batch) >= 5

    def test_an_array_at_several_positions_is_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        shared, other = rng.normal(size=(8, 12)), rng.normal(size=(3, 12))
        zero = np.zeros((3, 12))
        copy = shared.copy()  # equal content, a distinct object
        batch = [shared, other, copy, shared, zero, shared, zero, copy]
        alone = [decompose_many([m])[0] for m in batch]
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape[0])
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        out = decompose_many(batch)
        assert sum(calls) == len({id(m) for m in batch}) == 4
        for (s, v), (s_one, v_one) in zip(out, alone):
            assert s.tobytes() == s_one.tobytes() and v.tobytes() == v_one.tobytes()
        # the positions of one object share its result
        assert out[0] is out[3] is out[5] and out[2] is out[7] and out[4] is out[6]
        assert out[0] is not out[2]

    def test_zero_matrix_gets_first_basis_vector(self):
        (s, v), = decompose_many([np.zeros((3, 4))])
        assert s.tobytes() == np.zeros(3).tobytes()
        assert v.tobytes() == np.eye(1, 4)[0].tobytes()

    def test_empty_batch(self):
        assert decompose_many([]) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 33, 69])
    def test_non_finite_matrix_anywhere_raises(self, bad, where):
        batch = self.mixed_batch(np.random.default_rng(1))
        batch[where] = batch[where].copy()
        batch[where][0, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decompose_many(batch)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,), (2, 2, 2)])
    def test_non_matrix_raises(self, shape):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            decompose_many([np.ones((2, 3)), np.ones(shape)])

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(matrices(max_rows=4, max_cols=5), min_size=1, max_size=12))
    def test_property_matches_single_matrix_oracle(self, batch):
        for m, (s, v) in zip(batch, decompose_many(batch)):
            s_raw, v_raw, _ = single_svd_oracle(m)
            assert s.tobytes() == s_raw.tobytes()
            assert v.tobytes() == v_raw.tobytes()
