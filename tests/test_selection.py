"""Tests for pool-based model selection and rank-correlation analysis."""
import concurrent.futures
import math
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from disentlab.lasso import lasso_fit, lasso_gram_fit
from disentlab.lingauss import rank_r_truncation
from disentlab.metrics import (
    FactorVaeConfig,
    LinearEncoder,
    _standardize_columns,
    spearman_rho,
)
from disentlab import selection
from disentlab.selection import (
    UDR_EPS,
    _pool_relevance,
    cross_score,
    model_centrality,
    rank_correlation_analysis,
    subsampled_centrality,
    udr_pair_scores,
    udr_relevance,
    udr_score,
    udr_select,
)
from support import matched_generator, noisy_linear_pool


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions, by counting."""
    return np.array([np.sum(v < x) + (np.sum(v == x) + 1) / 2 for x in v])


FAST_CFG = FactorVaeConfig(groups_per_factor=15, group_size=15, reference_samples=500)

# Algorithm 1 hand case: A12=A21=0.9, A13=0.8, A31=0.2, A23=0.9, A32=0.7
# gives B12=0.9, B13=0.5, B23=0.8 and s=(0.7, 0.85, 0.65); model 2 wins.
HAND_SCORES = {(0, 1): 0.9, (1, 0): 0.9, (0, 2): 0.8, (2, 0): 0.2, (1, 2): 0.9, (2, 1): 0.7}


def _tiny_pool(n: int) -> tuple[list, list]:
    """(generators, encoders) of n models, each with its own generator and encoder."""
    sigma = np.diag([2.0, 1.0])
    generators = [matched_generator(sigma, np.array([[0.1 * (m + 1)], [0.0]])) for m in range(n)]
    return generators, [LinearEncoder(np.array([[m + 1.0, 0.0]])) for m in range(n)]


def _stub_metric(generators, encoders, table):
    enc_index = {id(enc): i for i, enc in enumerate(encoders)}
    gen_index = {id(gen): j for j, gen in enumerate(generators)}

    def metric(enc, gen, cfg, seed):
        return table[(enc_index[id(enc)], gen_index[id(gen)])]

    return metric


def _row_means(matrix: np.ndarray) -> np.ndarray:
    return matrix.sum(axis=1) / (matrix.shape[0] - 1)


class TestSimilarityMatrix:
    def test_hand_case(self):
        # the similarity matrix model_centrality returns holds B = (A + A^T) / 2
        pool = _tiny_pool(3)
        b = model_centrality(*pool, FAST_CFG, 0, metric=_stub_metric(*pool, HAND_SCORES))
        assert b[0, 1] == b[1, 0] == 0.9
        assert b[0, 2] == b[2, 0] == 0.5
        assert b[1, 2] == b[2, 1] == 0.8
        assert np.array_equal(np.diag(b), np.zeros(3))
        assert np.allclose(_row_means(b), [0.7, 0.85, 0.65], rtol=0.0, atol=1e-15)


class TestModelCentrality:
    def test_hand_case(self):
        pool = _tiny_pool(3)
        b = model_centrality(*pool, FAST_CFG, 0, metric=_stub_metric(*pool, HAND_SCORES))
        scores, stderr = subsampled_centrality(b, fraction=1.0, trials=1)
        assert np.allclose(scores, [0.7, 0.85, 0.65], rtol=0.0, atol=1e-15)
        assert np.argmax(scores) == 1
        assert np.array_equal(stderr, np.zeros(3))

    def test_symmetrized_with_zero_diagonal(self):
        pool = _tiny_pool(9)
        table = {(i, j): 1.0 + i + 0.01 * j for i in range(9) for j in range(9) if i != j}
        metric = _stub_metric(*pool, table)
        interval = sys.getswitchinterval()
        # frequent thread switches, so that a share lost or written twice shows
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 5):
                b = model_centrality(*pool, FAST_CFG, 0, metric=metric, threads=threads)
                assert np.array_equal(np.diag(b), np.zeros(9))
                for (i, j), value in table.items():
                    assert b[i, j] == b[j, i] == 0.5 * (value + table[(j, i)])
        finally:
            sys.setswitchinterval(interval)

    def test_identical_models_tie_break(self):
        pool = _tiny_pool(3)
        metric = lambda enc, gen, cfg, seed: 0.75
        b = model_centrality(*pool, FAST_CFG, 0, metric=metric)
        scores, _ = subsampled_centrality(b)
        assert np.all(scores == 0.75)
        assert np.argmax(scores) == 0

    def test_noise_model_scores_lowest(self):
        pool = _tiny_pool(3)
        table = {}
        for i in range(3):
            for j in range(3):
                if i != j:
                    table[(i, j)] = 0.2 if 2 in (i, j) else 0.9
        b = model_centrality(*pool, FAST_CFG, 0, metric=_stub_metric(*pool, table))
        scores = _row_means(b)
        assert scores[2] < scores[0]
        assert scores[2] < scores[1]

    def test_thread_count_does_not_change_output(self):
        pool = noisy_linear_pool(np.diag([4.0, 1.0, 0.25]), 2, [0.0, 0.3, 0.8], seed=1)
        b1 = model_centrality(*pool, FAST_CFG, 0)
        b3 = model_centrality(*pool, FAST_CFG, 0, threads=3)
        assert np.array_equal(b1, b3)

    def test_workers_capped_at_pair_count(self, monkeypatch):
        requested = []

        class InlineExecutor:
            """Runs each submitted share at once on the calling thread; starts no thread."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        pool = noisy_linear_pool(np.diag([4.0, 1.0, 0.25]), 2, [0.0, 0.3], seed=1)
        b1 = model_centrality(*pool, FAST_CFG, 0, threads=1)
        many = model_centrality(*pool, FAST_CFG, 0, threads=100_000)
        # threads=1 makes no executor; a 2-model pool has 2 pairs
        assert requested == [2]
        assert np.array_equal(many, b1)

    def test_repeat_runs_identical(self):
        pool = noisy_linear_pool(np.diag([4.0, 1.0, 0.25]), 2, [0.0, 0.5], seed=2)
        first = model_centrality(*pool, FAST_CFG, 0)
        assert np.array_equal(first, model_centrality(*pool, FAST_CFG, 0))


class TestCrossScore:
    def test_self_consistency(self):
        generators, encoders = noisy_linear_pool(
            np.diag([9.0, 4.0, 1.0, 0.25]), 3, [0.0, 0.5], seed=0
        )
        cfg = FactorVaeConfig(groups_per_factor=20, group_size=20, reference_samples=1000)
        score = cross_score(encoders[0], generators[0], cfg, 3)
        assert score >= 0.99

    def test_chance_level(self):
        sigma = np.diag([9.0, 4.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.02])
        gen = noisy_linear_pool(sigma, 5, [0.0, 0.1], seed=0)[0][0]
        cfg = FactorVaeConfig(groups_per_factor=100, group_size=20, reference_samples=2000)
        # rows over the three noise coordinates: W·B = 0, so the codes carry only noise
        weight = np.zeros((5, 8))
        weight[:, 5:] = np.random.default_rng(1).standard_normal((5, 3))
        assert not (weight @ gen.B).any()
        score = cross_score(LinearEncoder(weight), gen, cfg, 4)
        assert score <= 0.3


class TestSubsampledCentrality:
    def test_full_fraction_reproduces_centrality(self):
        pool = _tiny_pool(4)
        table = {(i, j): 0.1 * (i + 1) + 0.03 * j for i in range(4) for j in range(4) if i != j}
        metric = _stub_metric(*pool, table)
        b = model_centrality(*pool, FAST_CFG, 0, metric=metric)
        scores, stderr = subsampled_centrality(b, fraction=1.0, trials=25, seed=0)
        assert np.array_equal(scores, _row_means(b))
        assert np.array_equal(stderr, np.zeros(4))

    def test_partial_fraction_consistent(self):
        pool = _tiny_pool(6)
        rng = np.random.default_rng(7)
        table = {(i, j): float(rng.uniform(0.2, 1.0)) for i in range(6) for j in range(6) if i != j}
        metric = _stub_metric(*pool, table)
        b = model_centrality(*pool, FAST_CFG, 0, metric=metric)
        scores, stderr = subsampled_centrality(b, fraction=0.8, trials=100, seed=1)
        assert np.all(stderr > 0.0)
        assert np.all(np.abs(scores - _row_means(b)) <= 3.0 * stderr)

    @staticmethod
    def _loop_row_means(scores, fraction, trials, seed):
        """One rng.choice over the others of each row, summed row by row."""
        n = scores.shape[0]
        m = math.ceil(fraction * (n - 1))
        rng = np.random.default_rng(seed)
        per_trial = np.empty((trials, n))
        others = [np.array([j for j in range(n) if j != i]) for i in range(n)]
        for t in range(trials):
            for i in range(n):
                subset = np.sort(rng.choice(others[i], size=m, replace=False))
                per_trial[t, i] = scores[i, subset].sum() / m
        identical = np.all(per_trial == per_trial[0], axis=0)
        means = np.where(identical, per_trial[0], per_trial.mean(axis=0))
        stderr = np.where(identical, 0.0, per_trial.std(axis=0) / math.sqrt(trials))
        return means, stderr

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    @pytest.mark.parametrize("fraction", [0.5, 0.8, 1.0])
    def test_row_means_match_row_by_row_loop(self, n, fraction):
        # Scores over six decades, so that any change in summation order shows.
        rng = np.random.default_rng(n)
        scores = rng.uniform(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, n))
        for trials, seed in [(1, 0), (30, 3)]:
            got = selection._subsampled_row_means(scores, fraction, trials, seed)
            want = self._loop_row_means(scores, fraction, trials, seed)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_validation(self):
        b = np.zeros((3, 3))
        with pytest.raises(ValueError):
            subsampled_centrality(b, fraction=0.0)
        with pytest.raises(ValueError):
            subsampled_centrality(b, fraction=1.2)
        with pytest.raises(ValueError):
            subsampled_centrality(b, trials=0)


class TestUdrRelevance:
    def _codes_pool(self, seed=0, n=400, k=3):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n, k))
        scales = np.diag([1.0, 2.5, 0.5])
        return samples, LinearEncoder(scales[:k, :k])

    def test_self_regression_diagonal(self):
        samples, enc = self._codes_pool()
        r = udr_relevance(enc, enc, samples, variant="lasso", lasso_lambda=0.001)
        assert r == pytest.approx(np.eye(3), abs=0.05)

    def test_lasso_matches_direct_regression(self):
        # Row a holds |weights| of q_j's codes when regressing code a of q_i.
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((300, 4))
        q_i = LinearEncoder(rng.standard_normal((3, 4)))
        q_j = LinearEncoder(rng.standard_normal((3, 4)))
        r = udr_relevance(q_i, q_j, samples, variant="lasso", lasso_lambda=0.05)
        zi = _standardize_columns(q_i.encode(samples))
        zj = _standardize_columns(q_j.encode(samples))
        expected = np.abs(lasso_fit(zj, zi, 0.05)).T
        assert np.abs(r - expected).max() <= 1e-12
        assert np.abs(r - r.T).max() > 1e-3

    def test_permutation_spearman(self):
        # Full factorial grid: distinct coordinates are exactly rank-balanced,
        # so off-permutation correlations vanish identically.
        levels = np.linspace(-1.0, 1.0, 7)
        grid = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1)
        samples = grid.reshape(-1, 3)
        enc = LinearEncoder(np.diag([1.0, 2.5, 0.5]))
        perm = np.zeros((3, 3))
        perm[0, 2] = perm[1, 0] = perm[2, 1] = 1.0
        permuted = LinearEncoder(perm @ enc.weight)
        r = udr_relevance(permuted, enc, samples, variant="spearman")
        assert r == pytest.approx(perm, abs=1e-6)

    def test_independent_codes_small(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((2000, 4))
        q_i = LinearEncoder(np.eye(4)[:2])
        q_j = LinearEncoder(np.eye(4)[2:])
        r = udr_relevance(q_i, q_j, samples, variant="spearman")
        assert np.abs(r).max() < 0.1

    def test_zero_variance_warns_and_zeroes(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((200, 2))
        live = LinearEncoder(np.eye(2))
        dead = LinearEncoder(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.warns(UserWarning):
            r = udr_relevance(live, dead, samples, variant="spearman")
        assert np.all(r[:, 1] == 0.0)

    def test_validation(self):
        samples = np.zeros((10, 2))
        enc = LinearEncoder(np.eye(2))
        with pytest.raises(ValueError):
            udr_relevance(enc, enc, samples, variant="forest")
        with pytest.raises(ValueError):
            udr_relevance(enc, enc, samples[:5], variant="lasso")


class TestUdrPairScores:
    def _pool_and_samples(self):
        sigma = np.diag([4.0, 2.0, 1.0, 0.5])
        _, encoders = noisy_linear_pool(sigma, 3, [0.0, 0.4, 1.0, 2.5], seed=5)
        samples = np.random.default_rng(5).multivariate_normal(
            np.zeros(4), np.asarray(sigma), size=300
        )
        return encoders, samples

    def test_entries_are_pairwise_relevance_scores(self):
        encoders, samples = self._pool_and_samples()
        for variant in ("lasso", "spearman"):
            scores = udr_pair_scores(encoders, samples, variant)
            assert np.all(np.diag(scores) == 0.0)
            for i, q_i in enumerate(encoders):
                for j, q_j in enumerate(encoders):
                    if i != j:
                        r = udr_relevance(q_i, q_j, samples, variant)
                        assert scores[i, j] == pytest.approx(udr_score(r), abs=1e-12)
        # lasso relevance is not transpose-symmetric, so the loop above pins
        # which model's codes are the regression targets
        lasso = udr_pair_scores(encoders, samples, "lasso")
        assert np.abs(lasso - lasso.T).max() > 1e-3

    def test_matches_per_pair_loop_bit_for_bit(self):
        # the criterion-07 spectrum with 12 codes: rows long enough that
        # numpy's summation order depends on memory layout, and reducing over
        # the strided spearman blocks moves some scores by 1.1e-16
        band = [5.0 * (0.45 / 5.0) ** (i / 9.0) for i in range(10)]
        sigma = np.diag(band + [0.28, 0.18, 0.08, 0.05, 0.03, 0.015])
        _, encoders = noisy_linear_pool(
            sigma, 12, [0.0, 0.05, 0.1, 0.15], seed=1, noise_scale=2.4
        )
        samples = np.random.default_rng(1).multivariate_normal(
            np.zeros(16), np.asarray(sigma), size=1000
        )
        n = len(encoders)
        for variant in ("lasso", "spearman"):
            relevance = _pool_relevance(encoders, samples, variant, 0.01)
            loop = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        r = relevance[i, j]
                        rows = (r.max(axis=1) / (r.sum(axis=1) + UDR_EPS)).mean()
                        cols = (r.max(axis=0) / (r.sum(axis=0) + UDR_EPS)).mean()
                        loop[i, j] = 0.5 * (rows + cols)
            assert np.array_equal(udr_pair_scores(encoders, samples, variant), loop)

    def test_lasso_fits_are_exact(self, lasso_oracle, monkeypatch):
        # the udr design on the criterion-07 spectrum: each model's 12
        # standardized codes regressed on every other model's
        band = [5.0 * (0.45 / 5.0) ** (i / 9.0) for i in range(10)]
        sigma = np.diag(band + [0.28, 0.18, 0.08, 0.05, 0.03, 0.015])
        _, encoders = noisy_linear_pool(
            sigma, 12, [0.0, 0.05, 0.1, 0.15], seed=0, noise_scale=2.4
        )
        samples = np.random.default_rng(0).multivariate_normal(
            np.zeros(16), np.asarray(sigma), size=1000
        )
        calls = []

        def recording(gram, cross, lam):
            w = lasso_gram_fit(gram, cross, lam)
            calls.append((gram, cross, lam, w))
            return w

        monkeypatch.setattr(selection, "lasso_gram_fit", recording)
        udr_pair_scores(encoders, samples, "lasso")
        ((gram, cross, lam, w),) = calls
        assert gram.shape == (4, 12, 12) and cross.shape == (4, 12, 36)
        lasso_oracle(gram, cross, lam, w)

    def test_spearman_matches_scalar_rho(self):
        rng = np.random.default_rng(6)
        # integer samples and weights make tied codes; q_i's zero row makes a constant code
        samples = np.round(2.0 * rng.standard_normal((250, 4)))
        w_i = rng.integers(-3, 4, size=(3, 4)).astype(float)
        w_i[2] = 0.0
        w_j = rng.integers(-3, 4, size=(3, 4)).astype(float)
        q_i, q_j = LinearEncoder(w_i), LinearEncoder(w_j)
        with pytest.warns(UserWarning, match="zero-variance"):
            r = udr_relevance(q_i, q_j, samples, variant="spearman")
        ci, cj = q_i.encode(samples), q_j.encode(samples)
        assert all(np.unique(codes[:, a]).size < 250 for codes in (ci, cj) for a in range(3))
        for a in range(2):
            for b in range(3):
                rho = np.corrcoef(_average_ranks(ci[:, a]), _average_ranks(cj[:, b]))[0, 1]
                assert r[a, b] == pytest.approx(abs(rho), abs=1e-12)
        assert np.all(r[2] == 0.0)
        assert np.all(r[:2] > 0.0)


class TestUdrScore:
    def test_permutation(self):
        perm = np.eye(4)[::-1]
        assert udr_score(perm) == pytest.approx(1.0, abs=1e-11)

    def test_constant_ones(self):
        assert udr_score(np.ones((5, 5))) == pytest.approx(0.2, abs=1e-12)

    def test_zero_matrix(self):
        assert udr_score(np.zeros((3, 3))) == 0.0

    def test_stack_scores_each_matrix(self):
        stack = np.random.default_rng(4).uniform(0.0, 1.0, size=(2, 3, 5, 5))
        scores = udr_score(stack)
        assert scores.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert scores[index] == udr_score(stack[index])
        assert isinstance(udr_score(stack[0, 0]), float)

    def test_validation(self):
        with pytest.raises(ValueError):
            udr_score(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            udr_score(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError):
            udr_score(np.zeros(3))
        with pytest.raises(ValueError):
            udr_score(-np.eye(2))


class TestUdrSelect:
    def test_identical_models(self):
        sigma = np.diag([4.0, 1.0, 0.25])
        _, encoders = noisy_linear_pool(sigma, 2, [0.0, 0.0, 0.0], seed=0)
        samples = np.random.default_rng(0).multivariate_normal(
            np.zeros(3), np.asarray(sigma), size=300
        )
        scores, _ = udr_select(udr_pair_scores(encoders, samples, "spearman"))
        assert np.argmax(scores) == 0
        assert np.all(scores > 0.95)

    def test_noise_model_lowest(self):
        sigma = np.diag([4.0, 1.0, 0.25])
        _, encoders = noisy_linear_pool(sigma, 2, [0.0, 0.0, 3.0], seed=1)
        samples = np.random.default_rng(1).multivariate_normal(
            np.zeros(3), np.asarray(sigma), size=400
        )
        for variant in ("lasso", "spearman"):
            scores, _ = udr_select(udr_pair_scores(encoders, samples, variant))
            assert np.argmin(scores) == 2

    def test_minimal_pool(self):
        sigma = np.diag([4.0, 1.0])
        _, encoders = noisy_linear_pool(sigma, 1, [0.0, 0.2], seed=2)
        samples = np.random.default_rng(2).multivariate_normal(
            np.zeros(2), np.asarray(sigma), size=100
        )
        scores, stderr = udr_select(udr_pair_scores(encoders, samples, "spearman"))
        assert scores.shape == stderr.shape == (2,)


class TestRankCorrelationAnalysis:
    def test_self_and_identical(self):
        vectors = [("a", [1.0, 2.0, 3.0, 4.0]), ("b", [1.0, 2.0, 3.0, 4.0])]
        m = rank_correlation_analysis(vectors)
        assert m[0, 0] == 1.0
        assert m[0, 1] == 1.0

    def test_negation(self):
        m = rank_correlation_analysis([("a", [1.0, 2.0, 3.0]), ("b", [3.0, 2.0, 1.0])])
        assert m[0, 1] == -1.0

    def test_constant_vector_sentinel(self):
        m = rank_correlation_analysis([("a", [1.0, 1.0, 1.0]), ("b", [1.0, 2.0, 3.0])])
        assert math.isnan(m[0, 1])
        assert math.isnan(m[0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_correlation_analysis([("a", [1.0, 2.0]), ("b", [1.0, 2.0, 3.0])])

    @pytest.mark.parametrize(
        "vectors",
        [
            [[0.5, 0.5, 0.1, 0.9, 0.9, 0.2], [3.0, 1.0, 1.0, 2.0, 3.0, 3.0], [1, 2, 3, 4, 5, 6]],
            [[0.3, 0.3, 0.3, 0.3], [0.1, 0.4, 0.2, 0.3], [4.0, 3.0, 2.0, 1.0]],
            [[1.0, 2.0], [2.0, 1.0], [5.0, 5.0]],
        ],
        ids=["ties", "constant", "n2"],
    )
    def test_matches_pairwise_spearman_bit_for_bit(self, vectors):
        m = rank_correlation_analysis([(str(i), v) for i, v in enumerate(vectors)])
        pairwise = [[spearman_rho(a, b) for b in vectors] for a in vectors]
        assert np.array_equal(m, pairwise, equal_nan=True)


class TestNoisyLinearPool:
    def test_zero_level_matches_exact_map(self):
        sigma = np.diag([9.0, 4.0, 1.0])
        generators, encoders = noisy_linear_pool(sigma, 2, [0.0, 0.5], seed=0)
        gen = generators[0]
        exact = gen.B.T @ np.linalg.inv(np.asarray(sigma))
        assert encoders[0].weight == pytest.approx(exact, abs=1e-12)
        assert len(generators) == len(encoders) == 2

    def test_generator_is_top_r(self):
        sigma = np.diag([9.0, 4.0, 1.0])
        gen = noisy_linear_pool(sigma, 2, [0.0, 0.1], seed=0)[0][1]
        bbt = gen.B @ gen.B.T
        assert bbt == pytest.approx(np.asarray(rank_r_truncation(sigma, 2)), abs=1e-10)

    def test_noise_grows_with_level(self):
        sigma = np.diag([9.0, 4.0, 1.0])
        _, encoders = noisy_linear_pool(sigma, 2, [0.0, 0.1, 0.9], seed=3)
        base = encoders[0].weight
        d1 = np.linalg.norm(encoders[1].weight - base)
        d2 = np.linalg.norm(encoders[2].weight - base)
        assert 0.0 < d1 < d2

    def test_noise_scale_multiplies_perturbation(self):
        sigma = np.diag([9.0, 4.0, 1.0])
        _, base = noisy_linear_pool(sigma, 2, [0.0, 0.4], seed=7)
        _, wide = noisy_linear_pool(sigma, 2, [0.0, 0.4], seed=7, noise_scale=3.0)
        clean = base[0].weight
        assert np.array_equal(wide[0].weight, clean)
        delta_base = base[1].weight - clean
        wide_delta = wide[1].weight - clean
        assert wide_delta == pytest.approx(3.0 * delta_base, rel=1e-12)

    def test_zero_noise_scale_keeps_exact_map_at_any_level(self):
        sigma = np.diag([4.0, 1.0])
        _, encoders = noisy_linear_pool(sigma, 1, [0.0, 0.9], seed=2, noise_scale=0.0)
        assert np.array_equal(encoders[1].weight, encoders[0].weight)

    def test_deterministic(self):
        sigma = np.diag([4.0, 1.0])
        _, a = noisy_linear_pool(sigma, 1, [0.3, 0.6], seed=5)
        _, b = noisy_linear_pool(sigma, 1, [0.3, 0.6], seed=5)
        assert np.array_equal(a[1].weight, b[1].weight)
