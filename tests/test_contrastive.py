"""Tests for the discrete discrimination objective."""
import math

import numpy as np
import pytest

from disentlab import contrastive
from disentlab.contrastive import (
    DISCRIMINATOR_STEP,
    DiscreteDistributionFamily,
    _softmax,
    _stack_objective,
    js_identity_values,
    train_discriminator,
)
from disentlab.errors import NumericFailure
from disentlab.verify import DEFAULTS, _js_families
from support import (
    cross_entropy_objective,
    discriminator_probs,
    js_divergence,
    optimal_discriminator,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        probs = np.array([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistributionFamily(probs)


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
        h = discriminator_probs(optimal_discriminator(_hand_family()))
        assert h == pytest.approx(np.array([[2.0 / 3.0, 1.0 / 3.0], [0.0, 1.0]]), abs=1e-15)
        assert h[1, 0] == 0.0

    def test_dead_support_point_uniform(self):
        fam = DiscreteDistributionFamily(np.array([[1.0, 0.0, 0.0], [0.4, 0.6, 0.0]]))
        h = discriminator_probs(optimal_discriminator(fam))
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
            logits = rng.standard_normal((6, 3))
            assert cross_entropy_objective(fam, logits) <= bound + 1e-12


class TestCrossEntropyObjective:
    def test_hand_value(self):
        val = cross_entropy_objective(_hand_family(), optimal_discriminator(_hand_family()))
        assert val == pytest.approx(CE_HAND, abs=1e-15)

    def test_uniform_discriminator_gives_minus_log_k(self):
        fam = DiscreteDistributionFamily(np.eye(3))
        assert cross_entropy_objective(fam, np.zeros((3, 3))) == pytest.approx(-LOG_3, abs=1e-15)

    def test_zero_output_on_massive_point_is_minus_inf(self):
        fam = DiscreteDistributionFamily(np.array([[0.5, 0.5], [0.5, 0.5]]))
        logits = np.array([[0.0, -np.inf], [0.0, 0.0]])
        assert cross_entropy_objective(fam, logits) == -math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_objective(_hand_family(), np.zeros((3, 2)))


def _loop_ascent(
    family: DiscreteDistributionFamily, iters: int, step: float = DISCRIMINATOR_STEP
):
    """The single-family logit ascent the batched one must reproduce bit for bit."""
    q, k = family.probs, family.k
    z, qt = q.sum(axis=0), q.T
    # each support point at its own 1/L, and still where it has no mass
    rate = np.divide(step * k, z, out=np.zeros_like(z), where=z > 0.0)[:, None]
    logits = np.zeros((family.support_size, k))
    for it in range(iters):
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)
        grad = (qt - z[:, None] * (e / e.sum(axis=1, keepdims=True))) / k
        if np.abs(grad).max() < 1e-12:
            return logits, it
        logits += rate * grad
    return logits, iters


def _train_one(family: DiscreteDistributionFamily, **kwargs) -> tuple:
    """train_discriminator of one family: its logits, steps, final max|grad| and convergence."""
    (logits,), *ends = train_discriminator([family], **kwargs)
    return (logits, *(a.item() for a in ends))


def _per_family(trained) -> list[tuple]:
    """train_discriminator's result split into one (logits, steps, grad_max, converged) each."""
    logits, *ends = trained
    return list(zip(logits, *(a.tolist() for a in ends)))


class TestTrainDiscriminator:
    def test_matches_analytic_maximum(self):
        # The optimum here sits on the simplex boundary (Q1 has a zero entry),
        # where logit ascent closes the gap only at O(1/iters).
        fam = _hand_family()
        logits, steps, _, converged = _train_one(fam, iters=20_000)
        val = cross_entropy_objective(fam, logits)
        assert val == pytest.approx(CE_HAND, abs=1e-4)
        assert val <= CE_HAND + 1e-9
        assert not converged and steps == 20_000

    def test_outputs_match_normalized_densities(self):
        rng = np.random.default_rng(4)
        fam = _random_family(rng, k=3, m=5)
        logits = _train_one(fam, iters=20_000)[0]
        target = discriminator_probs(optimal_discriminator(fam))
        assert discriminator_probs(logits) == pytest.approx(target, abs=1e-5)

    def test_gap_shrinks_across_random_families(self):
        rng = np.random.default_rng(5)
        fams = [
            _random_family(rng, k=int(rng.integers(2, 5)), m=int(rng.integers(3, 8)))
            for _ in range(5)
        ]
        trained = _per_family(train_discriminator(fams, iters=20_000))
        for fam, (logits, _, grad_max, converged) in zip(fams, trained):
            bound = js_divergence(fam) - math.log(fam.k)
            assert abs(cross_entropy_objective(fam, logits) - bound) <= 1e-5
            assert converged and grad_max < 1e-12

    def test_deterministic(self):
        fam = _hand_family()
        a = _train_one(fam, iters=500)[0]
        b = _train_one(fam, iters=500)[0]
        assert np.array_equal(a, b)

    def test_no_families(self):
        logits, *ends = train_discriminator([])
        assert logits == [] and [a.shape for a in ends] == [(0,)] * 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batch_equals_one_family_calls_bit_for_bit(self, seed):
        # The verify families mix k in [2, 5] and m in [2, 8], so the batch
        # pads both axes.
        fams = _js_families(seed, DEFAULTS)
        assert {f.k for f in fams} == {2, 3, 4, 5}
        assert {f.support_size for f in fams} == set(range(2, 9))
        batch = _per_family(train_discriminator(fams))
        for i, (fam, got) in enumerate(zip(fams, batch)):
            alone = _train_one(fam)
            assert got[0].shape == (fam.support_size, fam.k)
            assert np.array_equal(got[0], alone[0])
            assert got[1:] == alone[1:]  # steps, final max|grad| and convergence
            assert got[3] and alone[3]
            if i % 10 == 0:
                logits, iterations = _loop_ascent(fam, 30_000)
                assert np.array_equal(got[0], logits)
                assert got[1] == iterations

    def test_batch_equals_one_family_calls_past_eight_classes(self):
        # numpy sums eight or more contiguous terms pairwise, where trailing
        # zeros would change the rounding; the stack keeps its class axis
        # in the middle, where numpy sums in class order.
        rng = np.random.default_rng(9)
        fams = [_random_family(rng, k=k, m=int(rng.integers(1, 10))) for k in range(1, 13)]
        batch = _per_family(train_discriminator(fams, iters=300))
        for fam, got in zip(fams, batch):
            alone = _train_one(fam, iters=300)
            assert np.array_equal(got[0], alone[0])
            assert got[1] == alone[1]

    def test_cap_stops_one_family_and_leaves_the_others(self):
        rng = np.random.default_rng(6)
        easy = [_random_family(rng, k=int(rng.integers(2, 6)), m=int(rng.integers(2, 9)))
                for _ in range(4)]
        alone = [_train_one(fam) for fam in easy]
        cap = max(steps for _, steps, _, _ in alone) + 1
        # The boundary optimum of the hand family needs far more than cap steps.
        fams = [easy[0], easy[1], _hand_family(), easy[2], easy[3]]
        batch = _per_family(train_discriminator(fams, iters=cap))
        capped_logits, capped_steps, capped_grad, capped_converged = batch.pop(2)
        assert not capped_converged
        assert capped_steps == cap
        assert capped_grad >= 1e-12
        logits, iterations = _loop_ascent(_hand_family(), cap)
        assert np.array_equal(capped_logits, logits) and iterations == cap
        for got, ref in zip(batch, alone):
            assert got[3] and got[1] == ref[1] < cap
            assert np.array_equal(got[0], ref[0])

    def test_divergence_names_the_family(self):
        # At step 30 the third family overshoots by construction. At its first
        # support point (masses ¼, ¼, ½) the first two logits stay equal, and
        # the third one's lead over them, less its optimum log 2, is a d that
        # moves by d -> d + (3·step/2)(½ - σ(d)). That map's slope at d = 0,
        # 1 - 3·step/8, is far below -1, so d swings into a two-cycle, and on
        # the phase that every 50th step reads the swing grows: the objective
        # falls at every check. The flat family has a zero gradient and stops
        # at once. The nearly pure family (w = 0.999) has its optimal logit
        # gap log 999 where its map's slope 1 - 2·step·w(1 - w) is still
        # positive, so the gap descends onto it without crossing, rising at
        # every step; it is still running, first in the stack, when the third
        # family diverges.
        flat = DiscreteDistributionFamily(np.full((2, 2), 0.5))
        pure = DiscreteDistributionFamily(np.array([[0.999, 0.001], [0.001, 0.999]]))
        swing = DiscreteDistributionFamily(np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]))
        _, steps, _, converged = _train_one(pure, step=30.0)
        assert converged and steps > 250
        with pytest.raises(NumericFailure, match="family 2 diverged"):
            train_discriminator([flat, pure, swing], step=30.0)

    @pytest.mark.parametrize("iters", [-1, -30_000])
    def test_negative_iters_rejected(self, iters):
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            train_discriminator([_hand_family()], iters=iters)

    @pytest.mark.parametrize("step", [0.0, -2.0, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            train_discriminator([_hand_family()], step=step)

    def test_massless_support_point_stays_uniform(self):
        # Column 1 carries no mass: its rate is 0 and its gradient exactly 0,
        # so its row keeps the zero logits of the start, the uniform row that
        # optimal_discriminator gives a point without mass.
        fam = DiscreteDistributionFamily(
            np.array([[0.3, 0.0, 0.7], [0.6, 0.0, 0.4], [0.2, 0.0, 0.8]])
        )
        alone_logits, alone_steps, _, converged = _train_one(fam)
        assert converged
        assert np.array_equal(alone_logits[1], np.zeros(3))
        best = discriminator_probs(optimal_discriminator(fam))
        assert np.array_equal(discriminator_probs(alone_logits)[1], best[1])
        logits, iterations = _loop_ascent(fam, 30_000)
        assert np.array_equal(alone_logits, logits)
        assert alone_steps == iterations
        rng = np.random.default_rng(10)
        others = [_random_family(rng, k=int(rng.integers(2, 6)), m=int(rng.integers(2, 9)))
                  for _ in range(4)]
        got = _per_family(train_discriminator(others[:2] + [fam] + others[2:]))[2]
        assert np.array_equal(got[0], alone_logits)
        assert got[1] == alone_steps

    @pytest.mark.parametrize("seed", [0, 1])
    def test_verify_families_converge_within_200_rounds(self, seed):
        # A count guard, not a timing test: at each support point's own 1/L
        # the slowest verify family takes under 200 steps to the stop rule.
        _, steps, _, converged = train_discriminator(_js_families(seed, DEFAULTS))
        assert converged.all() and steps.max() <= 200

    @staticmethod
    def _scripted_guard(monkeypatch, script):
        """Make the guard read `script`, one value per check, then hold its last value."""
        calls = []

        def objective(q, k, logits):
            value = script[min(len(calls), len(script) - 1)]
            calls.append(value)
            return np.full(len(k), value)

        monkeypatch.setattr(contrastive, "_stack_objective", objective)
        return calls

    def test_divergence_guard_resets_after_a_rise(self, monkeypatch):
        # Eight drops in all, at most four in a row; the hand family is far
        # from converged after 600 steps, so every scripted value is read.
        script = [0.0, -1.0, -2.0, -3.0, -4.0, 10.0, 9.0, 8.0, 7.0, 6.0]
        calls = self._scripted_guard(monkeypatch, script)
        _, steps, _, converged = _train_one(_hand_family(), iters=600)
        assert len(calls) >= len(script)
        assert steps == 600 and not converged

    def test_divergence_guard_raises_on_five_drops_in_a_row(self, monkeypatch):
        calls = self._scripted_guard(monkeypatch, [0.0, -1.0, -2.0, -3.0, -4.0, -5.0])
        with pytest.raises(NumericFailure, match=r"family 0 diverged \(-4\.0 -> -5\.0\)"):
            train_discriminator([_hand_family()], iters=600)
        assert len(calls) == 6

    def test_guard_objective_matches_scalar_objective(self):
        rng = np.random.default_rng(8)
        fams = [_random_family(rng, k=int(rng.integers(2, 6)), m=int(rng.integers(2, 9)))
                for _ in range(40)]
        fams.append(DiscreteDistributionFamily(np.array([[1.0, 0.0], [0.5, 0.5]])))
        q = np.zeros((len(fams), 5, 8))
        logits = np.full((len(fams), 5, 8), -np.inf)
        tables = []
        for i, fam in enumerate(fams):
            table = 3.0 * rng.standard_normal((fam.support_size, fam.k))
            if i % 4 == 0:  # an output of exactly zero where there is mass
                table[0, 0] = -np.inf
            tables.append(table)
            q[i, : fam.k, : fam.support_size] = fam.probs
            logits[i, : fam.k] = 0.0
            logits[i, : fam.k, : fam.support_size] = table.T
        k = np.array([float(f.k) for f in fams])
        got = _stack_objective(q, k, _softmax(logits))
        for value, fam, table in zip(got, fams, tables):
            want = cross_entropy_objective(fam, table)
            if want == -math.inf:
                assert value == -math.inf
            else:
                assert value == pytest.approx(want, rel=1e-13)


def _oracle_values(families, tables):
    """js_identity_values by the one-family oracles: (best, d_JS, trained) lists."""
    return (
        [cross_entropy_objective(fam, optimal_discriminator(fam)) for fam in families],
        [js_divergence(fam) for fam in families],
        [cross_entropy_objective(fam, t) for fam, t in zip(families, tables)],
    )


class TestJsIdentityValues:
    @pytest.mark.parametrize("seed, k_max", [(0, 5), (1, 5), (7, 5), (0, 9)])
    def test_verify_families_match_the_oracles_bit_for_bit(self, seed, k_max):
        # From k = 8 on, numpy sums each softmax row pairwise, so the stack
        # must keep the classes on its last, contiguous axis to match.
        families = _js_families(seed, {**DEFAULTS, "k_max": k_max})
        assert max(fam.k for fam in families) == k_max
        tables = train_discriminator(families)[0]
        got = js_identity_values(families, tables)
        for values, want in zip(got, _oracle_values(families, tables)):
            assert values.tobytes() == np.array(want).tobytes()

    def test_families_without_full_support_match_within_round_off(self):
        # A cell without mass is skipped by the one-family masked sum but
        # adds an exact zero to the stacked one, which may move the last bit.
        families = [
            _hand_family(),
            DiscreteDistributionFamily(np.eye(3)),
            DiscreteDistributionFamily(  # support point 1 carries no mass
                np.array([[0.3, 0.0, 0.7], [0.6, 0.0, 0.4], [0.2, 0.0, 0.8]])
            ),
            DiscreteDistributionFamily(np.array([[0.5, 0.5], [0.25, 0.75]])),
            _random_family(np.random.default_rng(2), 9, 4),
        ]
        rng = np.random.default_rng(3)
        tables = [rng.standard_normal((fam.support_size, fam.k)) for fam in families]
        tables[3][1, 0] = -np.inf  # a zero output where there is mass
        best, js, trained = js_identity_values(families, tables)
        want = _oracle_values(families, tables)
        assert trained[3] == want[2][3] == -math.inf
        for values, expected in zip((best, js, trained), want):
            np.testing.assert_allclose(values, expected, rtol=1e-15, atol=0.0)
        assert best[0] == pytest.approx(CE_HAND, abs=1e-15)
        assert js[0] == pytest.approx(DJS_HAND, abs=1e-15)
        assert js[1] == pytest.approx(LOG_3, abs=1e-15) and best[1] == 0.0

    def test_logits_must_match_the_family(self):
        with pytest.raises(ValueError, match="do not match a 2 x 2 family"):
            js_identity_values([_hand_family()], [np.zeros((3, 2))])
