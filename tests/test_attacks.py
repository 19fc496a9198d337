"""Unit tests for the poisoning attack implementations."""

import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from horus.attacks import (
    _maximize_gamma,
    AttackConfig,
    AttackKind,
    PerturbationDirection,
    craft_malicious_vectors,
    fang_trimmed_attack,
    flip_labels,
    lie_attack,
    lie_z,
    min_max_attack,
    min_sum_attack,
)
from horus.errors import ConfigurationError


class TestFlipLabels:
    def test_endpoints(self):
        assert flip_labels([0], 10)[0] == 9
        assert flip_labels([4], 10)[0] == 5

    def test_involution(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 10, size=200)
        np.testing.assert_array_equal(flip_labels(flip_labels(y, 10), 10), y)

    def test_histogram_is_permuted(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 6, size=500)
        flipped = flip_labels(y, 6)
        before = np.bincount(y, minlength=6)
        after = np.bincount(flipped, minlength=6)
        np.testing.assert_array_equal(after, before[::-1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            flip_labels([10], 10)


class TestLie:
    def test_zero_z_returns_mean(self):
        rng = np.random.default_rng(2)
        benign = rng.normal(size=(4, 12))
        np.testing.assert_allclose(
            lie_attack(benign, n=10, m=2, z_override=0.0), benign.mean(axis=0)
        )

    def test_identical_benign_returns_that_vector(self):
        v = np.arange(6, dtype=float)
        benign = np.stack([v, v, v])
        np.testing.assert_allclose(lie_attack(benign, 10, 3, z_override=5.0), v)

    def test_default_z_for_ten_clients_two_attackers(self):
        # oracle: s = floor(10/2)+1-2 = 4, q = (10-2-4)/(10-2) = 0.5, z = 0
        rng = np.random.default_rng(3)
        benign = rng.normal(size=(2, 8))
        np.testing.assert_allclose(
            lie_attack(benign, n=10, m=2), benign.mean(axis=0), atol=1e-12
        )

    def test_positive_z_shifts_by_std(self):
        rng = np.random.default_rng(4)
        benign = rng.normal(size=(5, 7))
        out = lie_attack(benign, 10, 2, z_override=1.5)
        np.testing.assert_allclose(
            out, benign.mean(axis=0) + 1.5 * benign.std(axis=0)
        )

    def test_undefined_z_needs_override(self):
        benign = np.zeros((2, 3))
        with pytest.raises(ConfigurationError):
            lie_attack(benign, n=4, m=3)  # s = 0
        lie_attack(benign, n=4, m=3, z_override=1.0)

    def test_requires_two_vectors(self):
        with pytest.raises(ValueError):
            lie_attack(np.zeros((1, 3)), 10, 2, z_override=1.0)

    @pytest.mark.parametrize("n, m", [(10, 1), (10, 2), (10, 4), (7, 3), (300, 30)])
    def test_z_is_the_normal_quantile_of_the_formula(self, n, m):
        s = n // 2 + 1 - m
        assert lie_z(n, m) == pytest.approx(
            NormalDist().inv_cdf((n - m - s) / (n - m)), abs=1e-8
        )

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (4, 3), (5, 5), (1, 1)])
    def test_z_undefined(self, n, m):
        with pytest.raises(ConfigurationError):
            lie_z(n, m)


def max_pairwise(benign):
    diffs = benign[:, None, :] - benign[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=-1).max()))


def worst_sum_sq(benign):
    diffs = benign[:, None, :] - benign[None, :, :]
    return float((diffs**2).sum(axis=-1).sum(axis=1).max())


class TestMinMax:
    def test_identical_benign_returns_mean(self):
        v = np.ones(5)
        benign = np.stack([v, v, v])
        np.testing.assert_allclose(min_max_attack(benign), v)

    def test_constraint_and_maximality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            benign = rng.normal(size=(6, 9))
            mal = min_max_attack(benign)
            bound = max_pairwise(benign)
            value = float(np.linalg.norm(mal - benign, axis=1).max())
            assert value <= bound * (1 + 1e-12)
            assert bound - value <= 1e-6 * bound  # tight
            mu = benign.mean(axis=0)
            gamma = float(np.linalg.norm(mal - mu))
            assert gamma >= 0
            direction = (mal - mu) / gamma
            pushed = mu + 1.01 * gamma * direction
            assert float(np.linalg.norm(pushed - benign, axis=1).max()) > bound

    def test_inverse_unit_direction(self):
        rng = np.random.default_rng(6)
        benign = rng.normal(loc=2.0, size=(5, 4))
        mal = min_max_attack(benign, direction=PerturbationDirection.INVERSE_UNIT)
        mu = benign.mean(axis=0)
        moved = mal - mu
        # deviation points against the mean
        assert np.dot(moved, -mu) > 0

    def test_symmetric_pair_respects_bound(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        benign = np.stack([v, -v])
        mal = min_max_attack(benign)
        bound = max_pairwise(benign)
        assert float(np.linalg.norm(mal - benign, axis=1).max()) <= bound * (1 + 1e-12)


class TestMinSum:
    def test_identical_benign_returns_mean(self):
        v = np.arange(4, dtype=float)
        benign = np.stack([v, v])
        np.testing.assert_allclose(min_sum_attack(benign), v)

    def test_constraint_slack_and_maximality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            benign = rng.normal(size=(5, 8))
            mal = min_sum_attack(benign)
            bound = worst_sum_sq(benign)
            value = float(((mal - benign) ** 2).sum())
            assert value <= bound * (1 + 1e-12)
            assert bound - value <= 1e-6 * bound
            mu = benign.mean(axis=0)
            gamma = float(np.linalg.norm(mal - mu))
            direction = (mal - mu) / gamma
            pushed = mu + 1.01 * gamma * direction
            assert float(((pushed - benign) ** 2).sum()) > bound

    def test_gamma_non_negative(self):
        rng = np.random.default_rng(8)
        benign = rng.normal(size=(4, 6))
        mal = min_sum_attack(benign)
        mu = benign.mean(axis=0)
        sigma = benign.std(axis=0)
        p = -sigma / np.linalg.norm(sigma)
        gamma = float(np.dot(mal - mu, p))
        assert gamma >= 0


class TestGammaSearch:
    @pytest.mark.parametrize("attack, distance", [
        (min_max_attack, lambda mal, benign: (
            float(np.linalg.norm(mal - benign, axis=1).max()), max_pairwise(benign))),
        (min_sum_attack, lambda mal, benign: (
            float(((mal - benign) ** 2).sum()), worst_sum_sq(benign))),
    ])
    def test_a_bound_past_thirty_doublings_binds(self, attack, distance):
        # gamma* is about 1e12, 40 doublings of GAMMA_INIT
        benign = 1e12 * np.random.default_rng(9).normal(size=(6, 9))
        value, bound = distance(attack(benign), benign)
        assert bound * (1 - 1e-6) <= value <= bound * (1 + 1e-12)

    def test_a_constraint_that_never_binds_gives_inf(self):
        assert _maximize_gamma(lambda gamma: 0.0, 1.0) == math.inf


@st.composite
def cohorts(draw):
    """Benign cohorts of 2-8 vectors, plain or offset-heavy (1e3 + 1e-3 x)."""
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, 12))
    benign = draw(arrays(float, (n, p), elements=st.floats(-4.0, 4.0, width=32)))
    if draw(st.booleans()):
        benign = 1e3 + 1e-3 * benign
    assume(np.ptp(benign, axis=0).any())
    return benign


class TestConstraintProperties:
    """Criterion 06's bound and tightness, against the pairwise loop oracles."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(cohorts())
    def test_min_max(self, benign):
        mal = min_max_attack(benign)
        bound = max_pairwise(benign)
        value = float(np.linalg.norm(mal - benign, axis=1).max())
        assert value <= bound * (1 + 1e-12)
        assert bound - value <= 1e-6 * bound

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(cohorts())
    def test_min_sum(self, benign):
        mal = min_sum_attack(benign)
        bound = worst_sum_sq(benign)
        value = float(((mal - benign) ** 2).sum())
        assert value <= bound * (1 + 1e-12)
        assert bound - value <= 1e-6 * bound


@pytest.mark.parametrize("attack", [min_max_attack, min_sum_attack])
def test_crafting_memory_is_linear_in_the_cohort(attack):
    # an (n, n, P) difference tensor alone would take n times this budget
    benign = np.random.default_rng(9).normal(size=(150, 1616))
    budget = 4 * benign.size * benign.itemsize
    tracemalloc.start()
    try:
        attack(benign)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget


class TestFang:
    def test_zero_spread_returns_mean(self):
        v = 3.0 * np.ones(6)
        benign = np.stack([v, v, v])
        out = fang_trimmed_attack(benign, np.random.default_rng(9))
        np.testing.assert_allclose(out, v)

    def test_interval_membership(self):
        rng = np.random.default_rng(10)
        benign = rng.normal(loc=1.5, scale=0.5, size=(6, 10))
        mu = benign.mean(axis=0)
        sigma = benign.std(axis=0)
        for seed in range(5):
            out = fang_trimmed_attack(benign, np.random.default_rng(seed))
            low = np.where(mu >= 0, mu - 4 * sigma, mu + 3 * sigma)
            high = np.where(mu >= 0, mu - 3 * sigma, mu + 4 * sigma)
            assert np.all(out >= low - 1e-12) and np.all(out <= high + 1e-12)

    def test_sign_zero_counts_positive(self):
        benign = np.array([[0.0, -1.0], [0.0, -3.0]])
        out = fang_trimmed_attack(benign, np.random.default_rng(11))
        # mu = (0, -2), sigma = (0, 1): first coord stays 0, second in [1, 2]
        assert out[0] == 0.0
        assert 1.0 - 1e-12 <= out[1] <= 2.0 + 1e-12

    def test_empirical_mean_at_three_and_a_half_sigma(self):
        rng = np.random.default_rng(12)
        benign = rng.normal(loc=2.0, size=(8, 3))
        mu = benign.mean(axis=0)
        sigma = benign.std(axis=0)
        draw_rng = np.random.default_rng(13)
        n = 10_000
        draws = np.stack([fang_trimmed_attack(benign, draw_rng) for _ in range(n)])
        target = np.where(mu >= 0, mu - 3.5 * sigma, mu + 3.5 * sigma)
        stderr = sigma / np.sqrt(12.0) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3.0 * stderr)


class TestCrafting:
    def _cfg(self, kind, **kw):
        return AttackConfig(kind=kind, start_round=1, attacker_ids=frozenset({0, 5}),
                            **kw)

    def test_lie_identical_across_attackers(self):
        rng = np.random.default_rng(14)
        knowledge = rng.normal(size=(2, 20))
        out = craft_malicious_vectors(
            self._cfg(AttackKind.LIE, z_override=1.5), knowledge, 10, [0, 5], {}
        )
        np.testing.assert_array_equal(out[0], out[5])

    @pytest.mark.parametrize("kind, attack", [
        (AttackKind.MIN_MAX, min_max_attack),
        (AttackKind.MIN_SUM, min_sum_attack),
    ])
    def test_distance_attacks_give_every_attacker_the_one_vector(self, kind, attack):
        rng = np.random.default_rng(16)
        knowledge = rng.normal(size=(4, 20))
        out = craft_malicious_vectors(self._cfg(kind), knowledge, 10, [0, 5], {})
        want = attack(knowledge, PerturbationDirection.NEG_STD)
        assert sorted(out) == [0, 5] and out[0] is not out[5]
        for vec in out.values():
            assert vec.tobytes() == want.tobytes()

    def test_fang_differs_across_attackers(self):
        rng = np.random.default_rng(15)
        knowledge = rng.normal(size=(3, 20))
        rngs = {0: np.random.default_rng(1), 5: np.random.default_rng(2)}
        out = craft_malicious_vectors(
            self._cfg(AttackKind.FANG_TRIMMED), knowledge, 10, [0, 5], rngs
        )
        assert not np.array_equal(out[0], out[5])

    def test_label_flip_is_not_model_poisoning(self):
        with pytest.raises(ValueError):
            craft_malicious_vectors(
                self._cfg(AttackKind.LABEL_FLIP), np.zeros((2, 4)), 10, [0], {}
            )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(kind=AttackKind.LIE, start_round=0,
                         attacker_ids=frozenset({1}))
        with pytest.raises(ConfigurationError):
            AttackConfig(kind=AttackKind.LIE, attacker_ids=frozenset())
