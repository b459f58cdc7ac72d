"""Tests for the disentanglement metrics and shared statistical kernels."""
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from disentlab import lasso, metrics as metrics_module
from disentlab.datasets import gen_linear_gaussian_dataset
from disentlab.errors import DegenerateEncoder, NumericFailure
from disentlab.lasso import _KKT_RTOL, LASSO_TOL, lasso_fit, lasso_gram_fit
from disentlab.lingauss import LinearGenerator, OptimizerConfig, optimize_generator
from disentlab.metrics import (
    _DHSIC_BLOCK,
    _laplace_row_sums,
    _latent_groups,
    _median_pair_distance,
    _standardize_columns,
    FactorDataset,
    FactorVaeConfig,
    GeneratorSampler,
    LinearEncoder,
    dci_disentanglement,
    dhsic,
    factorvae_metric,
    spearman_rho,
)
from support import noisy_linear_pool

# n=2 samples (0,0) and (1,1): every coordinate has one pair at distance 1,
# so each kernel matrix is [[1, 1/e], [1/e, 1]] and the three-term estimator
# evaluates to (1+e^-2)/2 + (1+e^-1)^2/4 - (1+e^-1)^2/2.
DHSIC_HAND = 0.09989410022343201



def _dense_dhsic(samples: np.ndarray) -> float:
    """The n×n estimator dhsic replaces: dense distances, np.median bandwidths, full kernels."""
    x = np.asarray(samples, dtype=float)
    n, k = x.shape
    upper = np.triu_indices(n, 1)
    joint = np.ones((n, n))
    product_term = 1.0
    row_products = np.ones(n)
    for col in range(k):
        dist = np.abs(x[:, col, None] - x[None, :, col])
        h = float(np.median(dist[upper])) or 1.0
        kernel = np.exp(-dist / (h * h))
        joint *= kernel
        product_term *= kernel.sum() / (n * n)
        row_products *= kernel.sum(axis=1) / n
    return float(joint.sum() / (n * n) + product_term - 2.0 * row_products.mean())


def _dense_median(v: np.ndarray) -> float:
    dist = np.abs(v[:, None] - v[None, :])
    return float(np.median(dist[np.triu_indices(v.size, 1)]))


SMALL_CFG = FactorVaeConfig(groups_per_factor=40, group_size=25, reference_samples=2000)


class TestFactorDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            FactorDataset(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            FactorDataset(np.zeros(3), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="samples hold non-finite"):
            FactorDataset(np.array([[0.0, np.nan]]), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="factors hold non-finite"):
            FactorDataset(np.zeros((1, 2)), np.array([[-np.inf]]))

    def test_properties(self):
        ds = FactorDataset(np.zeros((5, 3)), np.zeros((5, 2)))
        assert (ds.n, ds.sample_dim, ds.n_factors) == (5, 3, 2)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = FactorDataset(rng.standard_normal((20, 4)), rng.standard_normal((20, 2)))
        ds.save(tmp_path)
        assert (tmp_path / "samples.csv").exists()
        assert (tmp_path / "factors.csv").exists()
        back = FactorDataset.load(tmp_path)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.factors, ds.factors)

    def test_save_writes_17_significant_digits(self, tmp_path):
        samples = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, 3.0, 1e-300]])
        FactorDataset(samples, np.array([[3.0], [-0.0]])).save(tmp_path)
        assert (tmp_path / "samples.csv").read_bytes() == (
            b"x0,x1,x2\n"
            b"-0,4.9406564584124654e-324,1.7976931348623157e+308\n"
            b"0.10000000000000001,3,1e-300\n"
        )
        assert (tmp_path / "factors.csv").read_bytes() == b"c0\n3\n-0\n"
        back = FactorDataset.load(tmp_path)
        assert back.samples.tobytes() == samples.tobytes()


class TestEncoders:
    def test_linear_encoder(self):
        enc = LinearEncoder(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert enc.code_dim == 2
        out = enc.encode(np.array([[2.0, 3.0]]))
        assert np.array_equal(out, np.array([[2.0, 5.0]]))

    def test_from_generator_is_posterior_mean_map(self):
        sigma = np.diag([4.0, 1.0])
        gen, _ = optimize_generator(sigma, 1, OptimizerConfig(), seed=3)
        enc = LinearEncoder.from_generator(gen)
        expected = gen.B.T @ np.linalg.inv(np.asarray(sigma))
        assert enc.weight == pytest.approx(expected, abs=1e-12)


class TestSamplers:
    def test_generator_sampler_moments(self):
        sigma = np.diag([4.0, 1.0, 0.25])
        gen, _ = optimize_generator(sigma, 2, OptimizerConfig(objective="cr_frobenius"), seed=0)
        sampler = GeneratorSampler(gen)
        rng = np.random.default_rng(5)
        x = sampler.sample_reference(60_000, rng)
        cov = x.T @ x / x.shape[0]
        assert cov == pytest.approx(np.asarray(sigma), abs=0.1)

    def test_generator_group_reduces_variance_along_fixed_code(self):
        sigma = np.diag([9.0, 1.0])
        gen, _ = optimize_generator(sigma, 1, OptimizerConfig(), seed=0)
        sampler = GeneratorSampler(gen)
        enc = LinearEncoder.from_generator(gen)
        rng = np.random.default_rng(6)
        free = enc.encode(sampler.sample_reference(4000, rng)).var(axis=0)
        fixed = enc.encode(sampler.sample_group(0, 4000, rng)).var(axis=0)
        assert fixed[0] < 0.5 * free[0]


def _linear_generator(seed: int = 0):
    sigma = np.diag([4.0, 2.0, 1.0, 0.5, 0.25])
    gen, _ = optimize_generator(sigma, 3, OptimizerConfig(objective="cr_frobenius"), seed=seed)
    return gen


class TestBatchedGroups:
    @pytest.mark.parametrize("sampler", [GeneratorSampler(_linear_generator())], ids=["generator"])
    @pytest.mark.parametrize("groups,size", [(1, 5), (7, 3), (12, 35)])
    def test_sample_groups_equals_successive_single_groups(self, sampler, groups, size):
        batch = sampler.sample_groups(1, groups, size, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        single = np.stack([sampler.sample_group(1, size, rng) for _ in range(groups)])
        assert batch.shape == single.shape
        assert np.array_equal(batch, single)

    def test_generator_groups_follow_per_group_stream_order(self):
        gen = _linear_generator()
        batch = GeneratorSampler(gen).sample_groups(2, 6, 9, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for group in batch:
            c = rng.standard_normal((9, gen.r))
            c[:, 2] = rng.standard_normal()
            z = rng.standard_normal((9, gen.d))
            assert np.array_equal(group, c @ gen.B.T + z @ gen.A.T)


def _reference_votes(gen: LinearGenerator, enc, cfg: FactorVaeConfig, seed: int) -> np.ndarray:
    """The vote matrix from one draw of samples, encode and variance per group."""
    sampler = GeneratorSampler(gen)
    rng = np.random.default_rng(seed)
    ref_var = enc.encode(sampler.sample_reference(cfg.reference_samples, rng)).var(axis=0)
    active = ref_var >= cfg.variance_floor
    votes = np.zeros((enc.code_dim, gen.r))
    for factor in range(gen.r):
        for _ in range(cfg.groups_per_factor):
            group = enc.encode(sampler.sample_group(factor, cfg.group_size, rng))
            ratio = np.full(enc.code_dim, np.inf)
            ratio[active] = group.var(axis=0)[active] / ref_var[active]
            votes[int(np.argmin(ratio)), factor] += 1.0
    return votes


class TestFactorVaeMetricOracle:
    def test_generator_votes_match_per_group_loop(self):
        gen = _linear_generator(1)
        rng = np.random.default_rng(8)
        enc = LinearEncoder.from_generator(gen)
        noisy = LinearEncoder(enc.weight + 0.8 * rng.standard_normal(enc.weight.shape))
        cfg = FactorVaeConfig(groups_per_factor=30, group_size=12, reference_samples=500)
        for e in (enc, noisy):
            report = factorvae_metric(gen, e, cfg, 3)
            assert np.array_equal(report.matrix, _reference_votes(gen, e, cfg, 3))
        # the noisy encoder must split its votes, or the comparison is trivial
        assert np.count_nonzero(report.matrix) > gen.r

    def test_inactive_codes_never_vote(self):
        gen = _axis_generator()
        weight = np.vstack([_perfect_weight(gen), np.zeros((1, gen.d))])
        cfg = FactorVaeConfig(groups_per_factor=20, group_size=10, reference_samples=300)
        enc = LinearEncoder(weight)
        report = factorvae_metric(gen, enc, cfg, 2)
        assert np.array_equal(report.matrix, _reference_votes(gen, enc, cfg, 2))
        assert not report.matrix[3].any()


def _axis_generator(lam=(4.0, 2.0, 1.0, 0.5, 0.25), r=3) -> LinearGenerator:
    """x = B c + A z with B = diag(√λ) on the first r coordinates and A on the rest.

    Each of the first r sample coordinates is exactly √λᵢ·cᵢ, so an encoder
    row that reads one of them depends on that factor alone.
    """
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    b = np.zeros((d, r))
    b[np.arange(r), np.arange(r)] = np.sqrt(lam[:r])
    a = np.zeros((d, d))
    a[np.arange(r, d), np.arange(r, d)] = np.sqrt(lam[r:])
    return LinearGenerator(b, a, np.diag(lam))


def _perfect_weight(gen: LinearGenerator) -> np.ndarray:
    """An axis generator's perfect encoder: code i reads x_i/√λ_i = c_i."""
    return np.eye(gen.r, gen.d) / np.sqrt(np.diag(gen.sigma)[: gen.r, None])


def _noise_weight(gen: LinearGenerator, seed: int) -> np.ndarray:
    """r random rows over an axis generator's noise coordinates: W·B = 0, so codes carry only noise."""
    w = np.zeros((gen.r, gen.d))
    w[:, gen.r:] = np.random.default_rng(seed).standard_normal((gen.r, gen.d - gen.r))
    return w


def _oracle_case(name: str, seed: int):
    """(generator, encoder weight) of one linear-route oracle case."""
    gen = _axis_generator() if name == "fixed-factor-row" else _linear_generator(seed)
    exact = LinearEncoder.from_generator(gen).weight
    if name == "exact":
        return gen, exact
    noisy = exact + 0.8 * np.random.default_rng([seed, 8]).standard_normal(exact.shape)
    if name == "noisy":
        return gen, noisy
    if name == "tied-rows":
        return gen, np.vstack([noisy, noisy[:1]])
    if name == "fixed-factor-row":
        noisy[1] = np.eye(gen.d)[1]  # reads x₁ = √λ₁·c₁ and nothing else
        return gen, noisy
    return gen, np.vstack([noisy[:1], np.zeros((1, gen.d)), noisy[1:]])  # zero-row


class TestFactorVaeLinearRoute:
    """factorvae_metric forms each code from the latent draws through W·B and W·A."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "case", ["exact", "noisy", "tied-rows", "fixed-factor-row", "zero-row"]
    )
    def test_votes_match_per_group_loop(self, case, seed):
        gen, weight = _oracle_case(case, seed)
        enc = LinearEncoder(weight)
        cfg = FactorVaeConfig(groups_per_factor=30, group_size=12, reference_samples=500)
        votes = factorvae_metric(gen, enc, cfg, seed).matrix
        assert np.array_equal(votes, _reference_votes(gen, enc, cfg, seed))
        if case == "tied-rows":
            # the copy of row 0 ties it exactly in every group; the lower index wins
            assert votes[0].any() and not votes[-1].any()
        elif case == "fixed-factor-row":
            # the row's variance is exactly 0 in every group of factor 1
            assert votes[1, 1] == cfg.groups_per_factor
        elif case == "zero-row":
            assert not votes[1].any()

    def test_forms_no_samples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the linear route formed samples")

        for name in ("sample_reference", "sample_groups", "sample_group"):
            monkeypatch.setattr(GeneratorSampler, name, refuse)
        monkeypatch.setattr(LinearEncoder, "encode", refuse)
        gen = _linear_generator()
        report = factorvae_metric(gen, LinearEncoder.from_generator(gen), SMALL_CFG, 0)
        assert report.matrix.sum() == gen.r * SMALL_CFG.groups_per_factor

    @pytest.mark.parametrize("groups,size", [(1, 5), (7, 9)])
    def test_buffer_draws_follow_sample_groups_stream(self, groups, size):
        gen = _linear_generator()
        sampler = GeneratorSampler(gen)
        rng = np.random.default_rng(4)
        views = _latent_groups(gen.r, gen.d, groups, size, np.random.default_rng(4))
        for factor, (c, fixed, z) in enumerate(views):
            c = c.copy()
            c[:, :, factor] = fixed[:, None]
            x = c.reshape(-1, gen.r) @ gen.B.T + z.reshape(-1, gen.d) @ gen.A.T
            want = sampler.sample_groups(factor, groups, size, rng)
            assert np.array_equal(x.reshape(groups, size, gen.d), want)
        assert factor == gen.r - 1

    def test_default_call_peak_allocation_stays_below_8_mib(self):
        # the CLI defaults: 100 groups of 100, 10,000 reference samples; r=12, d=16
        gen = _axis_generator(lam=0.8 ** np.arange(16), r=12)
        exact = LinearEncoder.from_generator(gen).weight
        enc = LinearEncoder(exact + 0.3 * np.random.default_rng(0).standard_normal(exact.shape))
        tracemalloc.start()
        try:
            factorvae_metric(gen, enc, FactorVaeConfig(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestFactorVaeMetric:
    def test_perfect_encoder_scores_one(self):
        gen = _axis_generator()
        report = factorvae_metric(gen, LinearEncoder(_perfect_weight(gen)), SMALL_CFG, 0)
        assert report.score == 1.0
        assert report.name == "factorvae"
        assert report.matrix.shape == (3, 3)
        assert report.matrix.sum() == 3 * SMALL_CFG.groups_per_factor
        assert dict(report.detail)["factor_0_accuracy"] == 1.0

    def test_scale_and_permutation_invariance(self):
        gen = _axis_generator(lam=(4.0, 2.0, 1.0, 0.5, 0.25, 0.1), r=4)
        perfect = _perfect_weight(gen)
        rng = np.random.default_rng(2)
        for _ in range(5):
            perm = rng.permutation(4)
            scales = rng.uniform(0.1, 10.0, size=4)
            enc = LinearEncoder(scales[:, None] * perfect[perm])  # diag(s)·P·W
            assert factorvae_metric(gen, enc, SMALL_CFG, 0).score == 1.0

    def test_noise_encoder_near_chance(self):
        cfg = FactorVaeConfig(groups_per_factor=100, group_size=20, reference_samples=2000)
        gen = _axis_generator(lam=0.8 ** np.arange(8), r=5)
        enc = LinearEncoder(_noise_weight(gen, 0))
        assert not (enc.weight @ gen.B).any()
        report = factorvae_metric(gen, enc, cfg, 1)
        assert report.score <= 0.3

    def test_constant_encoder_degenerate(self):
        gen = _axis_generator()
        with pytest.raises(DegenerateEncoder):
            factorvae_metric(gen, LinearEncoder(np.zeros((3, gen.d))), SMALL_CFG, 0)

    def test_too_few_codes(self):
        gen = _axis_generator()
        with pytest.raises(ValueError):
            factorvae_metric(gen, LinearEncoder(np.eye(2, gen.d)), SMALL_CFG, 0)

    def test_deterministic_per_seed(self):
        gen = _axis_generator()
        enc = LinearEncoder(_noise_weight(gen, 4))
        cfg = FactorVaeConfig(groups_per_factor=10, group_size=10, reference_samples=200)
        a = factorvae_metric(gen, enc, cfg, 9)
        b = factorvae_metric(gen, enc, cfg, 9)
        assert a.score == b.score
        assert np.array_equal(a.matrix, b.matrix)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FactorVaeConfig(groups_per_factor=0)
        with pytest.raises(ValueError):
            FactorVaeConfig(variance_floor=0.0)


class TestDci:
    def _dataset(self, rng, n=400, k_hat=3):
        factors = rng.standard_normal((n, k_hat))
        return FactorDataset(factors, factors)

    def test_identity_encoder_scores_one(self):
        ds = self._dataset(np.random.default_rng(0))
        report = dci_disentanglement(ds, LinearEncoder(np.eye(3)))
        assert report.score == 1.0
        assert all(v == 1.0 for _, v in report.detail)
        assert report.matrix.shape == (3, 3)

    def test_scaled_permuted_encoder_scores_one(self):
        ds = self._dataset(np.random.default_rng(1))
        enc = LinearEncoder(np.diag([3.0, 0.5, 4.0]) @ np.eye(3)[[2, 0, 1]])
        assert dci_disentanglement(ds, enc).score == 1.0

    def test_mixing_code_near_zero(self):
        rng = np.random.default_rng(2)
        factors = rng.standard_normal((600, 2))
        ds = FactorDataset(factors, factors)
        enc = LinearEncoder(np.array([[0.5, 0.5]]))
        report = dci_disentanglement(ds, enc)
        assert report.score == pytest.approx(0.0, abs=0.05)

    def test_random_encoder_in_range(self):
        rng = np.random.default_rng(3)
        ds = self._dataset(rng)
        for _ in range(5):
            enc = LinearEncoder(rng.standard_normal((3, 3)))
            score = dci_disentanglement(ds, enc).score
            assert 0.0 <= score <= 1.0

    def test_dead_code_excluded_with_warning(self):
        rng = np.random.default_rng(4)
        factors = rng.standard_normal((300, 2))
        ds = FactorDataset(factors, factors)
        enc = LinearEncoder(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.warns(UserWarning):
            report = dci_disentanglement(ds, enc)
        assert report.score == 1.0
        assert len(report.detail) == 1

    def test_all_dead_degenerate(self):
        rng = np.random.default_rng(5)
        factors = rng.standard_normal((300, 2))
        ds = FactorDataset(factors, factors)
        with pytest.raises(DegenerateEncoder):
            dci_disentanglement(ds, LinearEncoder(np.zeros((2, 2))))

    def test_sample_size_precondition(self):
        ds = FactorDataset(np.zeros((15, 2)), np.zeros((15, 2)))
        with pytest.raises(ValueError):
            dci_disentanglement(ds, LinearEncoder(np.eye(2)))

    def test_single_factor_rejected(self):
        ds = FactorDataset(np.zeros((50, 1)), np.zeros((50, 1)))
        with pytest.raises(ValueError):
            dci_disentanglement(ds, LinearEncoder(np.eye(1)))


class TestDhsic:
    def test_constant_samples_zero_with_warning(self):
        with pytest.warns(UserWarning):
            value = dhsic(np.ones((10, 3)))
        assert abs(value) <= 1e-12

    def test_hand_case(self):
        value = dhsic(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert value == pytest.approx(DHSIC_HAND, abs=1e-15)

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(2, 5))
            assert dhsic(rng.standard_normal((n, k))) >= -1e-12

    def test_duplicated_coordinate_scores_higher(self):
        wins = 0
        for trial in range(10):
            rng = np.random.default_rng(trial)
            x = rng.standard_normal((400, 2))
            dup = np.column_stack([x[:, 0], x[:, 0]])
            if dhsic(dup) > dhsic(x):
                wins += 1
        assert wins >= 9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dhsic(np.ones((1, 3)))
        with pytest.raises(ValueError):
            dhsic(np.ones((5, 1)))

    @pytest.mark.parametrize(
        "column",
        [
            lambda rng: 1e-170 * rng.standard_normal(301),
            lambda rng: np.append(1e-300 * rng.standard_normal(300), 1e300),
        ],
        ids=["underflowing-square", "tiny-values-and-one-huge"],
    )
    def test_median_whose_square_underflows_falls_back_to_unit_bandwidth(self, column):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((301, 3))
        x[:, 1] = column(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = dhsic(x)
        assert math.isfinite(value)
        assert [type(w.message) for w in caught] == [UserWarning]
        assert str(caught[0].message).startswith("coordinate 1 has zero median distance")

    def test_ordinary_bandwidths_are_the_squared_medians(self, monkeypatch):
        # a coordinate of 1e-150 scale still has a normal h², so it keeps its bandwidth
        x = np.random.default_rng(3).standard_normal((301, 3)) * [1.0, 1e-150, 1e150]
        seen = []

        def recording(xs, h2):
            seen.append(h2)
            return _laplace_row_sums(xs, h2)

        monkeypatch.setattr(metrics_module, "_laplace_row_sums", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dhsic(x)
        medians = [_dense_median(x[:, col]) for col in range(3)]
        assert seen == [h * h for h in medians]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.random.default_rng(0).standard_normal((20, 3))
        x[7, 1] = bad
        with pytest.raises(ValueError, match="samples hold non-finite entries"):
            dhsic(x)

    @pytest.mark.filterwarnings("error")
    def test_coordinate_whose_distances_overflow_is_rejected_by_name(self):
        # its pair distances reach 2e308: the kernel would read NaN
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 3))
        x[:, 1] += np.where(rng.random(50) < 0.5, 1e308, -1e308)
        with pytest.raises(ValueError, match="^coordinate 1 spans .* pair distances overflow$"):
            dhsic(x)

    @pytest.mark.filterwarnings("error")
    def test_coordinate_whose_squared_median_overflows_is_rejected_by_name(self):
        # h² is inf, so every kernel entry would be 1 and the score exactly 0.0
        rng = np.random.default_rng(7)
        a = rng.standard_normal(50)
        x = np.column_stack([a, a + 0.1 * rng.standard_normal(50)]) * 1e155
        with pytest.raises(ValueError, match="^coordinate 0 has median pair distance .* overflows$"):
            dhsic(x)
        x[:, 0] = a
        with pytest.raises(ValueError, match="^coordinate 1 has median pair distance"):
            dhsic(x)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.standard_normal(2),
            lambda rng: rng.standard_normal(3),
            lambda rng: np.full(40, 2.5),
            lambda rng: rng.integers(0, 4, 302).astype(float),
            lambda rng: rng.integers(0, 4, 300).astype(float),
            lambda rng: np.repeat(rng.standard_normal(60), 3),
            lambda rng: -50.0 + rng.standard_normal(257),
            lambda rng: 1e8 + 1e-3 * rng.standard_normal(400),
            lambda rng: 1e8 + 1e-3 * rng.standard_normal(402),
        ],
        ids=["n2-one-pair", "n3-three-pairs", "constant", "ties-odd-pairs", "ties-even-pairs",
             "duplicates", "negative", "offset-even-pairs", "offset-odd-pairs"],
    )
    def test_selection_median_matches_np_median_bit_for_bit(self, make):
        # n(n-1)/2 is odd for n = 2, 3, 302 and 402 and even for the other sizes
        v = make(np.random.default_rng(5))
        got = _median_pair_distance(np.sort(v))
        want = _dense_median(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    @pytest.mark.parametrize("n", [600, 602])
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng, n: rng.standard_normal(n),
            lambda rng, n: np.round(rng.standard_normal(n), 2),
            lambda rng, n: rng.integers(0, 3, n).astype(float),
            lambda rng, n: 1e8 + 1e-3 * rng.standard_normal(n),
            lambda rng, n: np.where(rng.random(n) < 0.6, 1.5, rng.standard_normal(n)),
            lambda rng, n: rng.standard_cauchy(n) ** 3,
            lambda rng, n: np.append(1e-200 * rng.standard_normal(n - 1), 1e200),
            lambda rng, n: 2.0 ** rng.uniform(-500.0, 500.0, n),
        ],
        ids=["normal", "rounded", "integers-0-2", "offset", "tied-60", "heavy-tails",
             "one-far-outlier", "thousand-octaves"],
    )
    def test_bracketed_median_matches_np_median_bit_for_bit(self, make, n):
        # n(n-1)/2 is even for n = 600 and odd for n = 602; at these sizes the
        # bracket must narrow before its pairs are listed
        v = make(np.random.default_rng(n), n)
        got = _median_pair_distance(np.sort(v))
        want = _dense_median(v)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    @pytest.mark.parametrize(
        "make, most_counts",
        [
            (lambda rng: np.full(3000, 2.5), 1),
            (lambda rng: np.where(rng.random(3000) < 0.9, 2.5, rng.standard_normal(3000)), 1),
            (lambda rng: rng.integers(0, 3, 3000).astype(float), 3),
        ],
        ids=["constant", "tied-90", "integers-0-2"],
    )
    def test_tied_middle_distance_ends_the_search_early(self, monkeypatch, make, most_counts):
        # one repeated middle distance fills the bracket, which ends the
        # search instead of bisecting down to adjacent doubles
        real = metrics_module._pair_ends
        counts = []
        monkeypatch.setattr(metrics_module, "_pair_ends",
                            lambda xs, t: counts.append(t) or real(xs, t))
        v = make(np.random.default_rng(8))
        got = _median_pair_distance(np.sort(v))
        assert got == _dense_median(v)
        assert len(counts) <= most_counts, counts

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: 2.0 ** rng.uniform(-1070.0, 1020.0, 300),
            lambda rng: np.concatenate([1e-300 * rng.standard_normal(298), [1e300, -1e300]]),
            lambda rng: rng.standard_cauchy(300) ** 3,
        ],
        ids=["subnormal-to-huge", "two-far-outliers", "heavy-tails"],
    )
    def test_search_takes_at_most_64_counts(self, monkeypatch, make):
        # each count after the first at t = 0 halves the bit-pattern range of
        # the bracket, which spans fewer than 2^63 patterns
        real = metrics_module._pair_ends
        counts = []
        monkeypatch.setattr(metrics_module, "_pair_ends",
                            lambda xs, t: counts.append(t) or real(xs, t))
        v = make(np.random.default_rng(9))
        got = _median_pair_distance(np.sort(v))
        assert np.float64(got).tobytes() == np.float64(_dense_median(v)).tobytes()
        assert len(counts) <= 64, len(counts)

    @pytest.mark.parametrize("n", [300, 3000])
    def test_pair_ends_gallop_matches_brute_force_in_log_passes(self, monkeypatch, n):
        # at t = 1e300, x + t rounds every tiny value to 1e300, so the guess
        # for the point at -1e300 leaves out n - 2 points that are near enough;
        # a one-index walk takes n - 2 passes to reach its end
        rng = np.random.default_rng(17)
        xs = np.sort(np.concatenate([1e-300 * (1.0 + rng.random(n - 2)), [1e300, -1e300]]))
        real = metrics_module._beyond
        passes = []
        monkeypatch.setattr(metrics_module, "_beyond",
                            lambda *args: passes.append(None) or real(*args))
        most = 3 * math.ceil(math.log2(n)) + 4
        for t in (0.0, 1e-300, 5e-301, 1e300, 2e300):
            passes.clear()
            got = metrics_module._pair_ends(xs, t)
            want = np.full(n, n)
            for i in range(n):
                beyond = np.flatnonzero(xs[i + 1 :] - xs[i] > t)
                if beyond.size:
                    want[i] = i + 1 + beyond[0]
            assert np.array_equal(got, want), t
            assert 2 <= len(passes) <= most, (t, len(passes))
            if t == 1e300:
                assert np.searchsorted(xs, xs[0] + t, side="right") == 1
                assert want[0] == n - 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.standard_normal((500, 3)),
            lambda rng: rng.integers(0, 4, (400, 3)).astype(float),
            lambda rng: np.column_stack([
                rng.standard_normal(301),
                np.append(1e-6 * rng.standard_normal(300), 1e300),
                np.round(rng.standard_normal(301), 1),
            ]),
        ],
        ids=["normal", "integers-0-3", "far-outlier-and-rounded"],
    )
    def test_dhsic_equals_one_index_walk_bit_for_bit(self, monkeypatch, make):
        def walk(xs, t):
            n = xs.size
            ends = np.searchsorted(xs, xs + t, side="right")
            while (step := xs[ends - 1] - xs > t).any():
                ends -= step
            while (step := (ends < n) & (xs[np.minimum(ends, n - 1)] - xs <= t)).any():
                ends += step
            return ends

        x = make(np.random.default_rng(19))
        with np.errstate(over="ignore"):  # the far point's kernel entries are exp(-inf)
            got = dhsic(x)
            monkeypatch.setattr(metrics_module, "_pair_ends", walk)
            want = dhsic(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    def test_matches_dense_estimator(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 301))
            k = int(rng.integers(2, 6))
            x = rng.standard_normal((n, k))
            if trial % 3 == 1:
                x[:, 0] = rng.integers(0, 3, n)
            elif trial % 3 == 2:
                x[:, -1] = 2.5
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                got = dhsic(x)
            assert got == pytest.approx(_dense_dhsic(x), rel=1e-12, abs=1e-15), (n, k)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng, n: 1e8 + rng.standard_normal(n),
            lambda rng, n: np.append(1e-6 * rng.standard_normal(n - 1), 1e300),
        ],
        ids=["offset-1e8", "one-far-outlier"],
    )
    def test_matches_dense_estimator_on_uncentred_coordinates(self, make):
        # the joint kernel takes each difference before scaling it by 1/h², so
        # close points far from zero keep their exact distance, and a point
        # whose value over h² overflows never meets itself as inf - inf
        rng = np.random.default_rng(13)
        for n in (40, 301):
            x = rng.standard_normal((n, 3))
            x[:, 1] = make(rng, n)
            with np.errstate(over="ignore"):  # the far point's kernel entries are exp(-inf)
                got, want = dhsic(x), _dense_dhsic(x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (n, got)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.standard_normal(3000),
            lambda rng: np.concatenate([rng.standard_normal(1500), 40.0 + rng.standard_normal(1500)]),
            lambda rng: np.repeat(rng.uniform(-1.0, 1.0, 1000), 3),
        ],
        ids=["normal", "two-clusters", "triplicates"],
    )
    def test_marginal_row_sums_match_long_double_direct_sums(self, make):
        xs = np.sort(make(np.random.default_rng(22)))
        h = _median_pair_distance(xs)
        got = _laplace_row_sums(xs, h * h)
        x = xs.astype(np.longdouble)
        want = np.empty(xs.size, dtype=np.longdouble)
        for start in range(0, xs.size, 250):
            rows = x[start : start + 250, None]
            want[start : start + 250] = np.exp(-np.abs(rows - x) / np.longdouble(h * h)).sum(axis=1)
        rel = float(np.max(np.abs((got - want) / want)))
        assert rel <= 1e-15, rel

    def test_peak_memory_stays_below_four_joint_blocks(self):
        # O(n·block): 3.9 MiB at n = 4000, where one n×n matrix takes 122 MiB
        n = 4000
        x = np.random.default_rng(3).standard_normal((n, 4))
        tracemalloc.start()
        try:
            dhsic(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _DHSIC_BLOCK * n * 8, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("tied", [1.0, 0.9], ids=["constant", "tied-90"])
    def test_tied_coordinate_stays_below_the_same_memory_bound(self, tied):
        # the median of a coordinate with most pairs tied is found without
        # listing its O(n²) tied pairs
        n = 4000
        rng = np.random.default_rng(4)
        x = rng.standard_normal((n, 4))
        x[:, 1] = np.where(rng.random(n) < tied, 2.5, x[:, 1])
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="coordinate 1 has zero median"):
                dhsic(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _DHSIC_BLOCK * n * 8, f"peak {peak / 2**20:.1f} MiB"


class TestSpearman:
    def test_identical(self):
        assert spearman_rho([1.0, 5.0, 2.0], [1.0, 5.0, 2.0]) == 1.0

    def test_reversed(self):
        assert spearman_rho([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_hand_case(self):
        assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(30)
        b = rng.standard_normal(30)
        base = spearman_rho(a, b)
        assert spearman_rho(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(a, b**3) == pytest.approx(base, abs=1e-12)

    def test_ties_use_average_ranks(self):
        # ranks of (1, 1, 2) are (1.5, 1.5, 3)
        assert spearman_rho([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == 1.0
        value = spearman_rho([1.0, 1.0, 2.0], [2.0, 1.0, 1.5])
        assert -1.0 < value < 1.0

    def test_constant_input_nan(self):
        assert math.isnan(spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            spearman_rho([1.0], [2.0])
        with pytest.raises(ValueError):
            spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


class TestLassoFit:
    def test_zero_lambda_matches_least_squares(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        w_true = np.array([1.0, -2.0, 0.5, 3.0])
        y = x @ w_true + 0.01 * rng.standard_normal(50)
        w = lasso_fit(x, y, 0.0)
        w_ls = np.linalg.solve(x.T @ x, x.T @ y)
        assert w == pytest.approx(w_ls, abs=1e-8)

    def test_large_lambda_kills_everything(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        lam = np.abs(x.T @ y).max() / 30
        # at exact equality the surviving coefficient is round-off sized
        assert np.abs(lasso_fit(x, y, lam)).max() <= 1e-14
        assert np.array_equal(lasso_fit(x, y, lam * (1 + 1e-12)), np.zeros(3))
        assert np.array_equal(lasso_fit(x, y, 2 * lam), np.zeros(3))

    def test_univariate_closed_form(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 1))
        y = rng.standard_normal(40)
        lam = 0.05
        n = 40
        rho = float(x[:, 0] @ y) / n
        expected = math.copysign(max(abs(rho) - lam, 0.0), rho) / (float(x[:, 0] @ x[:, 0]) / n)
        assert lasso_fit(x, y, lam)[0] == pytest.approx(expected, abs=1e-14)

    def test_zero_column_gets_zero_weight(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([rng.standard_normal(20), np.zeros(20)])
        w = lasso_fit(x, x[:, 0], 0.01)
        assert w[1] == 0.0
        col_sq = float(x[:, 0] @ x[:, 0]) / 20
        assert w[0] == pytest.approx(1.0 - 0.01 / col_sq, abs=1e-9)

    @staticmethod
    def _multi_target_design(seed=4, n=200):
        # Correlated columns, one all-zero column, three targets.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 6)) @ (np.eye(6) + 0.4 * rng.standard_normal((6, 6)))
        x[:, 3] = 0.0
        w_true = rng.standard_normal((6, 3)) * (rng.random((6, 3)) < 0.5)
        return x, x @ w_true + 0.5 * rng.standard_normal((n, 3))

    def test_kkt_conditions_multi_target(self):
        for seed, lam in ((4, 0.05), (5, 0.3)):
            x, y = self._multi_target_design(seed)
            w = lasso_fit(x, y, lam)
            assert w.shape == (6, 3)
            assert np.all(w[3] == 0.0)
            grad = x.T @ (y - x @ w) / x.shape[0]
            zero = w == 0.0
            assert np.all(np.abs(grad[zero]) <= lam + 1e-9)
            assert np.abs(grad[~zero] - lam * np.sign(w[~zero])).max() <= 1e-9
            # both conditions are exercised on the live columns
            assert np.any(zero[[0, 1, 2, 4, 5]]) and np.any(~zero)

    def test_batched_targets_match_single_fits(self):
        x, y = self._multi_target_design()
        w = lasso_fit(x, y, 0.05)
        for t in range(y.shape[1]):
            assert np.abs(w[:, t] - lasso_fit(x, y[:, t], 0.05)).max() <= 1e-12

    @staticmethod
    def _duplicate_column_designs():
        # The designs of test_singular_active_block_keeps_sweeping: design 1
        # repeats column 1 as column 3, designs 0 and 2 are ordinary.
        rng = np.random.default_rng(0)
        n = 200
        grams, crosses = [], []
        for d in range(3):
            x = rng.standard_normal((n, 5)) @ (np.eye(5) + 0.5 * rng.standard_normal((5, 5)))
            if d == 1:
                x[:, 3] = x[:, 1]
            x = _standardize_columns(x)
            y = _standardize_columns(x @ rng.standard_normal((5, 2)) + rng.standard_normal((n, 2)))
            grams.append(x.T @ x / n)
            crosses.append(x.T @ y / n)
        return np.stack(grams), np.stack(crosses)

    def test_nonconvergence_reports_count_and_step(self, monkeypatch):
        # Ordinary fits certify after their first sweep; the two fits of the
        # design with a repeated column cannot, so one sweep leaves them running.
        gram, cross = self._duplicate_column_designs()
        monkeypatch.setattr(lasso, "LASSO_MAX_ITERS", 1)
        with pytest.raises(
            NumericFailure, match=r"left 2 of 6 fits unconverged after 1 sweeps"
        ) as info:
            lasso_gram_fit(gram, cross, 0.01)
        step = float(str(info.value).split("|Δw| ")[1].split(" ")[0])
        assert step > LASSO_TOL

    def test_exact_finish_on_dci_design(self, lasso_oracle):
        # DCI's regression on the criterion-07 spectrum: 12 standardized
        # codes of the noise-0.5 encoder, its 12 standardized factors
        band = [5.0 * (0.45 / 5.0) ** (i / 9.0) for i in range(10)]
        sigma = np.diag(band + [0.28, 0.18, 0.08, 0.05, 0.03, 0.015])
        generators, encoders = noisy_linear_pool(sigma, 12, [0.0, 0.5], seed=0, noise_scale=2.4)
        ds = gen_linear_gaussian_dataset(generators[1], 3000, 0)
        x = _standardize_columns(encoders[1].encode(ds.samples))
        y = _standardize_columns(ds.factors)
        gram = (x.T @ x / ds.n)[None]
        cross = (x.T @ y / ds.n)[None]
        w = lasso_gram_fit(gram, cross, 0.01)
        lasso_oracle(gram, cross, 0.01, w)
        assert np.array_equal(lasso_fit(x, y, 0.01), w[0])
        # most weights are active, so the active equations carry the check
        assert np.count_nonzero(w) > 100

    def test_singular_active_block_keeps_sweeping(self, lasso_oracle):
        # Design 1 repeats column 1 as column 3. Rounding in the soft
        # threshold makes both copies active, so their block of the Gram
        # matrix is singular and its solve raises inside the batch; those
        # fits stop under the tol rule while designs 0 and 2 still certify.
        rng = np.random.default_rng(0)
        n = 200
        grams, crosses = [], []
        for d in range(3):
            x = rng.standard_normal((n, 5)) @ (np.eye(5) + 0.5 * rng.standard_normal((5, 5)))
            if d == 1:
                x[:, 3] = x[:, 1]
            x = _standardize_columns(x)
            y = _standardize_columns(x @ rng.standard_normal((5, 2)) + rng.standard_normal((n, 2)))
            grams.append(x.T @ x / n)
            crosses.append(x.T @ y / n)
        gram, cross = np.stack(grams), np.stack(crosses)
        assert np.array_equal(gram[1, 1], gram[1, 3])
        w = lasso_gram_fit(gram, cross, 0.01)
        ordinary = [0, 2]
        lasso_oracle(gram[ordinary], cross[ordinary], 0.01, w[ordinary])
        # both copies carry weight of one sign: the active block is singular
        assert np.all(w[1, 1] * w[1, 3] > 0.0)
        lasso_oracle(gram[1:2], cross[1:2], 0.01, w[1:2], kkt_tol=1e-8)
        # the copies share the weight that the design without the copy gives
        # its column, which is the lasso's answer for any split of one sign
        keep = [0, 1, 2, 4]
        single = lasso_gram_fit(gram[1:2][:, keep][:, :, keep], cross[1:2, keep], 0.01)[0]
        merged = w[1][keep].copy()
        merged[1] += w[1, 3]
        assert np.abs(merged - single).max() <= 1e-8

    def test_nearly_singular_active_block_is_not_certified(self, kkt_violation):
        # Column 3 is column 1 plus noise of size 1e-10. For target 1 both
        # copies turn active; the solve on their block does not raise, but
        # misses its own equations, and the block's near-null direction is
        # within tolerance of flat, so the fit is left to the sweeps. They
        # split the weight between the copies, where the minimizer keeps
        # column 3 alone; both reach the same objective.
        rng = np.random.default_rng(14)
        n = 200
        x = rng.standard_normal((n, 5)) @ (np.eye(5) + 0.5 * rng.standard_normal((5, 5)))
        x[:, 3] = x[:, 1] + 1e-10 * rng.standard_normal(n)
        x = _standardize_columns(x)
        y = _standardize_columns(x @ rng.standard_normal((5, 2)) + rng.standard_normal((n, 2)))
        gram, cross = (x.T @ x / n)[None], (x.T @ y / n)[None]
        w = lasso_gram_fit(gram, cross, 0.01)
        violation = kkt_violation(gram, cross, 0.01, w)[0]
        assert violation.max() <= 1e-9
        # Target 1 is not certified: both copies carry weight of one sign, and
        # KKT holds to the sweeps' tolerance but not to the exact finish's.
        assert w[0, 1, 1] * w[0, 3, 1] > 0.0
        assert violation[1] > _KKT_RTOL * np.abs(cross[0, :, 1]).max()
        # The minimizer: the fit without column 1, which meets KKT on the
        # full design to rounding.
        keep = [0, 2, 3, 4]
        single = lasso_gram_fit(gram[:, keep][:, :, keep], cross[:, keep], 0.01)
        minimizer = np.zeros_like(w)
        minimizer[:, keep] = single
        assert kkt_violation(gram, cross, 0.01, minimizer)[0, 1] <= 1e-15

        def objective(v):
            v = v[0, :, 1]
            return 0.5 * v @ gram[0] @ v - cross[0, :, 1] @ v + 0.01 * np.abs(v).sum()

        assert abs(objective(w) - objective(minimizer)) <= 1e-10
        assert abs(w[0, 1, 1] + w[0, 3, 1] - minimizer[0, 3, 1]) <= 1e-8

    @pytest.mark.parametrize("seed", [5, 7, 11])
    def test_near_duplicate_columns_certify(self, kkt_violation, seed):
        # Column 3 is column 1 plus noise of size 1e-7. Coordinate descent
        # makes both active and then crawls along their near-null direction
        # (100,000 sweeps were not enough); the pivots drop one copy.
        rng = np.random.default_rng(seed)
        n = 2000
        x = rng.standard_normal((n, 5)) @ (np.eye(5) + 0.5 * rng.standard_normal((5, 5)))
        x[:, 3] = x[:, 1] + 1e-7 * rng.standard_normal(n)
        x = _standardize_columns(x)
        y = _standardize_columns(x @ rng.standard_normal((5, 2)) + rng.standard_normal((n, 2)))
        gram, cross = (x.T @ x / n)[None], (x.T @ y / n)[None]
        start = time.perf_counter()
        w = lasso_gram_fit(gram, cross, 0.01)
        assert time.perf_counter() - start < 1.0
        assert kkt_violation(gram, cross, 0.01, w).max() <= 1e-12 * np.abs(cross).max()
        assert np.all((w[0, 1] == 0.0) | (w[0, 3] == 0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            lasso_fit(np.zeros((3, 2)), np.zeros(4), 0.1)
        with pytest.raises(ValueError):
            lasso_fit(np.zeros((3, 2)), np.zeros(3), -0.1)
        with pytest.raises(ValueError):
            lasso_fit(np.zeros((3, 2)), np.zeros((3, 2, 1)), 0.1)
