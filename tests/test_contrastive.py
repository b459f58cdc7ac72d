"""Tests for the discrete discrimination objective."""
import math

import numpy as np
import pytest

from disentlab.contrastive import (
    DiscreteDistributionFamily,
    SoftmaxDiscriminator,
    cross_entropy_objective,
    js_divergence,
    optimal_discriminator,
    train_discriminator,
)

LOG_2 = 0.6931471805599453
LOG_3 = 1.0986122886681098
# family Q1 = [1, 0], Q2 = [0.5, 0.5]: mixture [0.75, 0.25]
DJS_HAND = 0.2157615543388357
CE_HAND = -0.47738562622110964  # = DJS_HAND - log 2


def _hand_family() -> DiscreteDistributionFamily:
    return DiscreteDistributionFamily(np.array([[1.0, 0.0], [0.5, 0.5]]))


def _random_family(rng, k: int, m: int) -> DiscreteDistributionFamily:
    p = rng.uniform(0.2, 1.0, size=(k, m))
    return DiscreteDistributionFamily(p / p.sum(axis=1, keepdims=True))


class TestDistributionFamily:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistributionFamily(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            DiscreteDistributionFamily(np.array([[1.5, -0.5]]))
        with pytest.raises(ValueError):
            DiscreteDistributionFamily(np.ones(3))

    def test_properties(self):
        fam = _hand_family()
        assert fam.k == 2 and fam.support_size == 2

    def test_csv_round_trip(self):
        rng = np.random.default_rng(0)
        fam = _random_family(rng, k=3, m=7)
        text = fam.to_csv()
        assert text.splitlines()[0] == "3,7"
        back = DiscreteDistributionFamily.from_csv(text)
        assert np.array_equal(back.probs, fam.probs)

    def test_csv_shape_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteDistributionFamily.from_csv("2,2\n1,0\n")


class TestJsDivergence:
    def test_identical_rows_zero(self):
        fam = DiscreteDistributionFamily(np.array([[0.25, 0.75], [0.25, 0.75], [0.25, 0.75]]))
        assert js_divergence(fam) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports_log_k(self):
        fam = DiscreteDistributionFamily(np.eye(2))
        assert js_divergence(fam) == pytest.approx(LOG_2, abs=1e-15)
        fam3 = DiscreteDistributionFamily(np.eye(3))
        assert js_divergence(fam3) == pytest.approx(LOG_3, abs=1e-15)

    def test_hand_value(self):
        assert js_divergence(_hand_family()) == pytest.approx(DJS_HAND, abs=1e-15)

    def test_upper_bound_log_k(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(2, 12))
            fam = _random_family(rng, k, m)
            d = js_divergence(fam)
            assert -1e-15 <= d <= math.log(k) + 1e-15


class TestOptimalDiscriminator:
    def test_hand_outputs(self):
        h = optimal_discriminator(_hand_family()).probs
        assert h == pytest.approx(np.array([[2.0 / 3.0, 1.0 / 3.0], [0.0, 1.0]]), abs=1e-15)
        assert h[1, 0] == 0.0

    def test_dead_support_point_uniform(self):
        fam = DiscreteDistributionFamily(np.array([[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]]))
        h = optimal_discriminator(fam).probs
        assert np.array_equal(h[2], np.array([0.5, 0.5]))

    def test_achieves_analytic_maximum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 10))
            fam = _random_family(rng, k, m)
            bound = js_divergence(fam) - math.log(k)
            val = cross_entropy_objective(fam, optimal_discriminator(fam))
            assert val == pytest.approx(bound, abs=1e-12)

    def test_no_other_discriminator_beats_it(self):
        rng = np.random.default_rng(3)
        fam = _random_family(rng, k=3, m=6)
        bound = js_divergence(fam) - math.log(3)
        for _ in range(200):
            h = SoftmaxDiscriminator(rng.standard_normal((6, 3)))
            assert cross_entropy_objective(fam, h) <= bound + 1e-12


class TestCrossEntropyObjective:
    def test_hand_value(self):
        val = cross_entropy_objective(_hand_family(), optimal_discriminator(_hand_family()))
        assert val == pytest.approx(CE_HAND, abs=1e-15)

    def test_uniform_discriminator_gives_minus_log_k(self):
        fam = DiscreteDistributionFamily(np.eye(3))
        h = SoftmaxDiscriminator(np.zeros((3, 3)))
        assert cross_entropy_objective(fam, h) == pytest.approx(-LOG_3, abs=1e-15)

    def test_zero_output_on_massive_point_is_minus_inf(self):
        fam = DiscreteDistributionFamily(np.array([[0.5, 0.5], [0.5, 0.5]]))
        logits = np.array([[0.0, -np.inf], [0.0, 0.0]])
        assert cross_entropy_objective(fam, SoftmaxDiscriminator(logits)) == -math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_objective(_hand_family(), SoftmaxDiscriminator(np.zeros((3, 2))))


class TestTrainDiscriminator:
    def test_matches_analytic_maximum(self):
        # The optimum here sits on the simplex boundary (Q1 has a zero entry),
        # where logit ascent closes the gap only at O(1/iters).
        fam = _hand_family()
        trained = train_discriminator(fam, iters=20_000)
        val = cross_entropy_objective(fam, trained)
        assert val == pytest.approx(CE_HAND, abs=1e-4)
        assert val <= CE_HAND + 1e-9

    def test_outputs_match_normalized_densities(self):
        rng = np.random.default_rng(4)
        fam = _random_family(rng, k=3, m=5)
        trained = train_discriminator(fam, iters=20_000)
        target = optimal_discriminator(fam).probs
        assert trained.probs == pytest.approx(target, abs=1e-5)

    def test_gap_shrinks_across_random_families(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            fam = _random_family(rng, k=int(rng.integers(2, 5)), m=int(rng.integers(3, 8)))
            bound = js_divergence(fam) - math.log(fam.k)
            val = cross_entropy_objective(fam, train_discriminator(fam, iters=20_000))
            assert abs(val - bound) <= 1e-5

    def test_deterministic(self):
        fam = _hand_family()
        a = train_discriminator(fam, iters=500)
        b = train_discriminator(fam, iters=500)
        assert np.array_equal(a.logits, b.logits)
