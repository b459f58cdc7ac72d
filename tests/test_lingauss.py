import math
import warnings

import numpy as np
import pytest

from disentlab import cli, lingauss, verify
from disentlab.errors import (
    DegenerateConditional,
    NotPositiveSemidefinite,
    NumericFailure,
    SingularCovariance,
    UndefinedDivergence,
)
from disentlab.lingauss import (
    LOG_2PI,
    BiasDecomposition,
    LinearGenerator,
    OptimizerConfig,
    bias_decomposition,
    bias_decompositions,
    is_distribution_matched,
    optimize_generator,
    optimize_generators,
    posterior,
    rank_r_truncation,
)
from disentlab.linalg import (
    CONTRACTION_SLACK,
    eig_sym,
    project_contraction,
    spd_sqrt,
    symmetrized,
)
from support import (
    cr_frobenius_divergence,
    infogan_objective,
    matched_generator,
    paired_covariance,
)


def _random_spd(rng, d, lo=0.3, hi=4.0):
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return symmetrized((q * rng.uniform(lo, hi, size=d)) @ q.T)


def _random_matched(rng, d, r, fill=0.9):
    """Matched generator whose conditional covariance stays well-conditioned."""
    sigma = _random_spd(rng, d)
    root = spd_sqrt(sigma)
    bt = rng.standard_normal((d, r))
    bt *= fill / np.linalg.svd(bt, compute_uv=False)[0]
    return matched_generator(sigma, root @ bt)


def _sample(gen, n, rng):
    c = rng.standard_normal((n, gen.r))
    z = rng.standard_normal((n, gen.d))
    return c @ gen.B.T + z @ gen.A.T, c


class TestGeneratorBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearGenerator(np.zeros((2, 3)), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            LinearGenerator(np.zeros((2, 1)), np.eye(3), np.eye(2))

    def test_matched_construction(self):
        rng = np.random.default_rng(0)
        gen = _random_matched(rng, 4, 2)
        assert is_distribution_matched(gen)
        cov = gen.B @ gen.B.T + gen.A @ gen.A.T
        assert np.allclose(cov, gen.sigma, atol=1e-10)

    def test_dict_round_trip(self):
        rng = np.random.default_rng(1)
        gen = _random_matched(rng, 3, 2)
        back = LinearGenerator.from_dict(gen.to_dict())
        assert np.array_equal(back.B, gen.B)
        assert np.array_equal(back.A, gen.A)
        assert np.array_equal(back.sigma, gen.sigma)

    def test_sigma_is_symmetrized_by_averaging(self):
        gen = LinearGenerator(np.zeros((2, 1)), np.eye(2), [[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(gen.sigma, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(gen.sigma, gen.sigma.T)

    def test_sigma_must_be_d_by_d(self):
        for sigma in (np.zeros((2, 3)), np.zeros((0, 0)), np.eye(3), np.ones(4)):
            with pytest.raises(ValueError, match=r"^sigma must be 2 x 2"):
                LinearGenerator(np.zeros((2, 1)), np.eye(2), sigma)

    def test_sigma_storage_is_read_only(self):
        sigma = np.eye(2)
        gen = LinearGenerator(np.zeros((2, 1)), np.eye(2), sigma)
        with pytest.raises(ValueError):
            gen.sigma[0, 0] = 5.0
        sigma[0, 0] = 5.0  # the caller's array is not the stored one
        assert gen.sigma[0, 0] == 1.0

    def test_subnormal_sigma_is_symmetrized_once(self):
        # (M + Mᵀ)/2 of this M puts the 1-ulp subnormal 5e-324 off the
        # diagonal; a second pass would halve it to 0
        raw = np.array([[1.0, 5e-324], [1e-323, 1.0]])
        once = [1.0, 5e-324, 5e-324, 1.0]
        assert symmetrized(raw).ravel().tolist() == once
        assert symmetrized(symmetrized(raw)).ravel().tolist() == [1.0, 0.0, 0.0, 1.0]
        gen, _ = optimize_generators([(raw, 0)], 1, OptimizerConfig())[0]
        assert gen.sigma.ravel().tolist() == once
        model = {**gen.to_dict(), "sigma": raw.ravel().tolist()}
        assert LinearGenerator.from_dict(model).sigma.ravel().tolist() == once

    @pytest.mark.parametrize("c", [1.0, 1e6, 1e8])
    def test_matched_rejects_a_negative_residual_at_any_scale(self, c):
        # the clamp scales with Σ, so a residual eigenvalue of -1e-6·‖Σ‖ is still an error
        sigma = np.diag([9.0 * c, 4.0 * c, c])
        b = np.zeros((3, 1))
        b[0, 0] = math.sqrt(9.0 * c + 1e-6 * np.linalg.norm(sigma))
        with pytest.raises(NotPositiveSemidefinite):
            matched_generator(sigma, b)

    def test_matched_rejects_a_negative_residual_past_1e154(self):
        # ‖Σ‖_F² overflows float64 here, and the clamp must still scale with ‖Σ‖_F
        c = 1e160
        sigma = np.diag([9.0 * c, 4.0 * c, c])
        b = np.zeros((3, 1))
        b[0, 0] = 3.0 * math.sqrt(c * (1.0 + 1e-6))
        with pytest.raises(NotPositiveSemidefinite):
            matched_generator(sigma, b)


class TestConditionalMean:
    def test_identity_covariance_picks_coordinate(self):
        gen = matched_generator(np.eye(2), np.array([[1.0], [0.0]]))
        assert np.allclose(posterior(gen) @ [3.0, 7.0], [3.0], atol=1e-12)

    def test_zero_map(self):
        gen = matched_generator(np.diag([2.0, 3.0]), np.zeros((2, 1)))
        assert np.allclose(posterior(gen) @ [5.0, -1.0], [0.0], atol=1e-15)

    def test_singular_covariance_raises(self):
        gen = LinearGenerator(np.zeros((2, 1)), np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(SingularCovariance):
            posterior(gen)

    def test_monte_carlo_regression(self):
        # The conditional mean map must agree with linear regression of codes
        # on samples; per-entry tolerance is 3 OLS standard errors.
        rng = np.random.default_rng(42)
        gen = _random_matched(rng, 4, 2)
        n = 100_000
        x, c = _sample(gen, n, rng)
        xtx = x.T @ x
        m_hat = np.linalg.solve(xtx, x.T @ c).T
        mean_map = posterior(gen)
        cov = np.eye(gen.r) - mean_map @ gen.B  # the residual covariance S = I - Bᵀ Σ⁻¹ B
        se = np.sqrt(np.outer(np.diag(cov), np.diag(np.linalg.inv(xtx))))
        assert np.all(np.abs(m_hat - mean_map) <= 3.0 * se)


class TestGeneratedCovariance:
    def test_direct_products(self):
        gen = LinearGenerator(
            np.array([[1.0], [0.0]]), np.diag([0.0, 1.0]), np.eye(2)
        )
        assert np.allclose(gen.B @ gen.B.T + gen.A @ gen.A.T, np.eye(2), atol=1e-15)
        assert is_distribution_matched(gen)
        gen2 = LinearGenerator(np.zeros((2, 1)), np.eye(2), np.eye(2))
        assert np.allclose(gen2.B @ gen2.B.T + gen2.A @ gen2.A.T, np.eye(2), atol=1e-15)
        assert is_distribution_matched(gen2)

    def test_matching_holds_past_1e154(self):
        # ‖Σ‖_F² overflows float64 here: B = A = 0 must still miss Σ = 1e160·I,
        # and an infogan fit must still match its Σ
        zero = LinearGenerator(np.zeros((3, 2)), np.zeros((3, 3)), 1e160 * np.eye(3))
        assert not is_distribution_matched(zero)
        sigma = np.diag([1e160, 1e159, 1e158])
        fit, _ = optimize_generator(sigma, 2, OptimizerConfig("infogan"))
        assert is_distribution_matched(fit)

    def test_monte_carlo(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((3, 2))
        a = rng.standard_normal((3, 3))
        gen = LinearGenerator(b, a, np.eye(3))
        cov = gen.B @ gen.B.T + gen.A @ gen.A.T
        n = 100_000
        x, _ = _sample(gen, n, rng)
        emp = x.T @ x / n
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) <= 3.0 * se)


class TestInfoganObjective:
    def test_zero_code_map(self):
        gen = matched_generator(np.eye(2), np.zeros((2, 1)))
        assert infogan_objective(gen) == pytest.approx(-1.4189385332046727, abs=1e-12)

    def test_unit_column_reaches_optimum(self):
        gen = matched_generator(np.eye(2), np.array([[1.0], [0.0]]))
        assert infogan_objective(gen) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_matches_trace_form(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            gen = _random_matched(rng, 4, 2, fill=rng.uniform(0.2, 0.98))
            s = np.eye(gen.r) - posterior(gen) @ gen.B
            dual = -0.5 * np.trace(s) - 0.5 * gen.r * LOG_2PI
            assert infogan_objective(gen) == pytest.approx(dual, abs=1e-10)

    def test_upper_bound_with_equality_at_semi_orthonormal(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d, r = 5, 3
            sigma = _random_spd(rng, d)
            root = spd_sqrt(sigma)
            bt = rng.standard_normal((d, r))
            bt *= rng.uniform(0.05, 1.0) / np.linalg.svd(bt, compute_uv=False)[0]
            gen = matched_generator(sigma, root @ bt)
            bound = -0.5 * r * LOG_2PI
            assert infogan_objective(gen) <= bound + 1e-12
        # semi-orthonormal maps attain the bound
        sigma = _random_spd(rng, 5)
        u = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        gen = matched_generator(sigma, spd_sqrt(sigma) @ u)
        assert infogan_objective(gen) == pytest.approx(-1.5 * LOG_2PI, abs=1e-10)


class TestBiasDecomposition:
    def test_standard_gaussian_case(self):
        gen = matched_generator(np.eye(3), np.zeros((3, 2)))
        out = bias_decomposition(gen)
        assert out.mutual_information == pytest.approx(0.0, abs=1e-12)
        assert out.implicit_bias == pytest.approx(0.0, abs=1e-12)
        assert out.latent_entropy == pytest.approx(1.0 + LOG_2PI, abs=1e-12)

    def test_hand_evaluated_kl(self):
        # Σ = I and B = diag(√0.5, √0.2) give S = I - BᵀB = diag(0.5, 0.8), so the
        # bias is (1/2)(tr S - r - log det S) = (1/2)(1.3 - 2 - log 0.4).
        gen = matched_generator(np.eye(2), np.diag(np.sqrt([0.5, 0.2])))
        expected = 0.5 * (1.3 - 2.0 - math.log(0.4))
        assert bias_decomposition(gen).implicit_bias == pytest.approx(expected, abs=1e-14)

    def test_identity_and_monte_carlo(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            gen = _random_matched(rng, 4, 2, fill=rng.uniform(0.2, 0.95))
            out = bias_decomposition(gen)
            assert out.implicit_bias >= -1e-12
            lhs = out.info_loss
            rhs = out.mutual_information - out.latent_entropy - out.implicit_bias
            assert lhs == pytest.approx(rhs, abs=1e-10)
        # Monte Carlo estimate of the expected factorized log-density
        gen = _random_matched(np.random.default_rng(13), 4, 2)
        n = 100_000
        rng = np.random.default_rng(14)
        x, c = _sample(gen, n, rng)
        resid = c - x @ posterior(gen).T
        vals = -0.5 * gen.r * LOG_2PI - 0.5 * np.sum(resid**2, axis=1)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert bias_decomposition(gen).info_loss == pytest.approx(vals.mean(), abs=3 * se)

    def test_degenerate_raises_by_default(self):
        sigma = np.eye(3)
        u = np.eye(3)[:, :2]
        gen = matched_generator(sigma, u)
        with pytest.raises(DegenerateConditional):
            bias_decomposition(gen)


def _reference_sqrt(m: np.ndarray) -> np.ndarray:
    """spd_sqrt's arithmetic on one matrix before it took stacks, without its check."""
    w, v = eig_sym(m)
    return symmetrized((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def _reference_decomposition(sigma: np.ndarray, b: np.ndarray) -> BiasDecomposition:
    """bias_decomposition's per-case arithmetic before it was stacked (its value routes)."""
    r = b.shape[1]
    w, v = eig_sym(sigma)
    b_tilde = (v / np.sqrt(w)) @ (v.T @ b)
    primal = 0.5 * float(np.sum(b_tilde * b_tilde)) - 0.5 * r * (1.0 + LOG_2PI)
    mean_map = b.T @ ((v / w) @ v.T)
    s = eig_sym(symmetrized(np.eye(r) - mean_map @ b)).eigenvalues
    log_s = np.log(s)
    mi = -0.5 * float(np.sum(log_s))
    bias = 0.5 * float(np.sum(s) - r - np.sum(log_s))
    return BiasDecomposition(mi, 0.5 * r * (1.0 + LOG_2PI), bias, primal)


def _reference_bias_identity(seed: int, suites: dict) -> list[tuple]:
    """The bias_identity suite's rows from the per-case loop the CLI ran before it stacked."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    d, r = suites["bias_d"], suites["bias_r"]
    thresholds = verify.THRESHOLDS
    rows = []
    for c_idx in range(suites["bias_cases"]):
        m = rng.standard_normal((d, d))
        sigma = symmetrized(m @ m.T + 0.5 * np.eye(d))
        bt = rng.standard_normal((d, r))
        bt *= 0.9 / np.linalg.svd(bt, compute_uv=False)[0]
        dec = _reference_decomposition(sigma, _reference_sqrt(sigma) @ bt)
        case = f"case{c_idx:03d}"
        split = dec.mutual_information - dec.latent_entropy - dec.implicit_bias
        rows.append((case, "decomposition_residual", abs(dec.info_loss - split),
                     thresholds["decomposition_residual"]))
        rows.append((case, "bias_negative_part", max(0.0, -dec.implicit_bias),
                     thresholds["bias_negative_part"]))
    return rows


def _bias_cases(rng, f, d, r):
    """An (F, d, d) stack of covariances and an (F, d, r) stack of contractions B̃."""
    m = rng.standard_normal((f, d, d))
    sigma = m @ m.transpose(0, 2, 1) + 0.5 * np.eye(d)
    bt = rng.standard_normal((f, d, r))
    bt *= rng.uniform(0.2, 0.95, (f, 1, 1)) / np.linalg.svd(bt, compute_uv=False)[:, :1, None]
    return sigma, bt


class TestBiasDecompositions:
    @pytest.mark.parametrize("d, r", [(4, 2), (5, 5), (9, 3)])
    def test_stack_equals_per_case_calls_bit_for_bit(self, d, r):
        sigma, bt = _bias_cases(np.random.default_rng(d + r), 12, d, r)
        decs = bias_decompositions(sigma, bt)
        assert len(decs) == 12
        for s, t, dec in zip(sigma, bt, decs):
            sym = symmetrized(s)
            b = spd_sqrt(sym) @ t
            assert dec == bias_decomposition(matched_generator(sym, b))
            assert dec == _reference_decomposition(sym, _reference_sqrt(sym) @ t)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_cli_rows_equal_the_per_case_loop(self, seed):
        suites = verify.DEFAULTS
        rows = list(verify._bias_identity(seed, suites, {}, verify.THRESHOLDS, []))
        assert len(rows) == 2 * suites["bias_cases"]
        assert rows == _reference_bias_identity(seed, suites)

    def test_failed_checks_name_their_case(self):
        sigma, bt = _bias_cases(np.random.default_rng(3), 4, 3, 2)
        over = bt.copy()
        over[2] *= 1.5 / np.linalg.svd(over[2], compute_uv=False)[0]  # B Bᵀ ⋠ Σ
        with pytest.raises(NotPositiveSemidefinite, match=r"^matrix 2 has eigenvalue -"):
            bias_decompositions(sigma, over)
        edge = bt.copy()
        edge[1] = np.eye(3)[:, :2]  # semi-orthonormal: S is singular
        with pytest.raises(DegenerateConditional, match=r"^case 1: conditional covariance"):
            bias_decompositions(sigma, edge)
        flat = sigma.copy()
        flat[3] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularCovariance, match=r"^case 3: target covariance"):
            bias_decompositions(flat, bt)
        with pytest.raises(DegenerateConditional, match=r"^conditional covariance"):
            bias_decompositions(sigma[1:2], edge[1:2])

    def test_shapes_are_checked(self):
        sigma, bt = _bias_cases(np.random.default_rng(4), 2, 3, 2)
        wide = np.ones((2, 3, 4))
        for s, t in [(sigma[0], bt[0]), (sigma, bt[:1]), (sigma[:, :2], bt), (sigma, wide)]:
            with pytest.raises(ValueError, match=r"\(F, d, d\) and \(F, d, r\) stacks"):
                bias_decompositions(s, t)

    def test_noise_maps_equal_per_pair_calls_bit_for_bit(self):
        sigma, bt = _bias_cases(np.random.default_rng(5), 6, 4, 3)
        bt[::2] /= np.linalg.svd(bt[::2], compute_uv=False)[:, :1, None]  # on the boundary
        b = np.stack([spd_sqrt(symmetrized(s)) @ t for s, t in zip(sigma, bt)])
        noise = lingauss._noise_maps(sigma, b)
        for s, bb, a in zip(sigma, b, noise):
            assert np.array_equal(a, matched_generator(symmetrized(s), bb).A)
            assert np.array_equal(a, _reference_sqrt(symmetrized(s - bb @ bb.T)))


class TestPairedCovariance:
    def test_direct_construction(self):
        gen = matched_generator(np.eye(2), np.eye(2))
        out = paired_covariance(gen, 0)
        e11 = np.outer([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(out[:2, :2], np.eye(2), atol=1e-12)
        assert np.allclose(out[:2, 2:], e11, atol=1e-12)
        assert np.allclose(out[2:, :2], e11, atol=1e-12)

    def test_zero_column(self):
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        gen = matched_generator(np.diag([1.0, 2.0]), b)
        assert np.allclose(paired_covariance(gen, 1)[:2, 2:], 0.0, atol=1e-15)

    def test_index_out_of_range(self):
        gen = matched_generator(np.eye(2), np.eye(2))
        with pytest.raises(IndexError):
            paired_covariance(gen, 2)

    def test_monte_carlo_coupling(self):
        rng = np.random.default_rng(15)
        gen = _random_matched(rng, 3, 2)
        target = paired_covariance(gen, 1)
        n = 100_000
        c1 = rng.standard_normal((n, 2))
        c2 = rng.standard_normal((n, 2))
        c2[:, 1] = c1[:, 1]
        x1 = c1 @ gen.B.T + rng.standard_normal((n, 3)) @ gen.A.T
        x2 = c2 @ gen.B.T + rng.standard_normal((n, 3)) @ gen.A.T
        st = np.hstack([x1, x2])
        emp = st.T @ st / n
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(emp - target) <= 3.0 * se)


class TestCrFrobeniusDivergence:
    def test_equal_columns_give_zero(self):
        b = np.tile(np.array([[1.0], [2.0]]), (1, 3))
        assert cr_frobenius_divergence(b) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case_scaled_orthogonal(self):
        b = np.array([[math.sqrt(2.0), 0.0], [0.0, 1.0]])
        assert cr_frobenius_divergence(b) == pytest.approx(5.0, abs=1e-12)

    def test_hand_case_orthonormal(self):
        assert cr_frobenius_divergence(np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_r1_undefined(self):
        with pytest.raises(UndefinedDivergence):
            cr_frobenius_divergence(np.ones((3, 1)))

    def test_bounded_by_gram_norm(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            b = rng.standard_normal((rng.integers(2, 6), rng.integers(2, 5)))
            bound = np.linalg.norm(b @ b.T) ** 2
            val = cr_frobenius_divergence(b)
            assert val <= bound + 1e-9
        # orthogonal columns attain the bound
        b = np.diag([2.0, 1.5, 1.0])[:, :2]
        assert cr_frobenius_divergence(b) == pytest.approx(
            np.linalg.norm(b @ b.T) ** 2, abs=1e-10
        )


class TestRankRTruncation:
    def test_diagonal(self):
        out = rank_r_truncation(np.diag([4.0, 1.0, 0.25]), 2)
        assert np.allclose(out, np.diag([4.0, 1.0, 0.0]), atol=1e-12)

    def test_full_rank_is_identity_map(self):
        rng = np.random.default_rng(17)
        m = _random_spd(rng, 4)
        out = rank_r_truncation(m, 4)
        assert np.allclose(out, m, atol=1e-10)

    def test_sandwich(self):
        rng = np.random.default_rng(18)
        m = _random_spd(rng, 5)
        t = rank_r_truncation(m, 2)
        w_t = np.linalg.eigvalsh(t)
        w_gap = np.linalg.eigvalsh(m - t)
        assert w_t.min() >= -1e-10
        assert w_gap.min() >= -1e-10

    def test_random_probe_optimality(self):
        rng = np.random.default_rng(19)
        m = _random_spd(rng, 5)
        t = rank_r_truncation(m, 2)
        best = np.linalg.norm(m - t) ** 2
        for _ in range(1000):
            w = rng.standard_normal((5, 2)) * rng.uniform(0.2, 1.5)
            cand = w @ w.T
            assert best <= np.linalg.norm(m - cand) ** 2 + 1e-12


def test_greedy_eigvec_match_breaks_ties_by_column_then_eigenvector():
    # |cosine| 1/√2 ties three ways: column 0 with eigenvectors 0 and 1, and
    # column 2 with eigenvector 0. The lowest pair (0, 0) goes first, so column
    # 2 is left with a zero cosine; column 1 is zero and takes what is next.
    b = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    perm, align = lingauss._greedy_eigvec_match(b[None], np.eye(4)[None])
    assert perm.tolist() == [[0, 1, 2]]
    assert align.tolist() == [[1 / math.sqrt(2), 0.0, 0.0]]


def _greedy_reference(b: np.ndarray, eigvecs: np.ndarray):
    """The loop over (|cosine|, -column, -eigenvector) that the argmax replaced."""
    r = b.shape[1]
    norms = np.linalg.norm(b, axis=0)
    cos = np.zeros((r, r))
    for i in range(r):
        if norms[i] > 0:
            cos[i] = np.abs(b[:, i] @ eigvecs[:, :r]) / norms[i]
    perm, align = [-1] * r, np.zeros(r)
    cols, eigs = list(range(r)), list(range(r))
    for _ in range(r):
        _, _, _, i, j = max((cos[i, j], -i, -j, i, j) for i in cols for j in eigs)
        perm[i], align[i] = j, cos[i, j]
        cols.remove(i)
        eigs.remove(j)
    return tuple(perm), align


def test_greedy_eigvec_match_equals_the_reference_loop():
    # The 600 cases run as one stack per (d, r) shape, each matched bit for bit.
    rng = np.random.default_rng(5)
    shapes = {}
    for case in range(600):
        d = int(rng.integers(1, 7))
        r = int(rng.integers(1, d + 1))
        if case % 3 == 0:
            b, q = rng.standard_normal((d, r)), np.linalg.qr(rng.standard_normal((d, d)))[0]
        else:  # small integer entries against the identity tie often
            b, q = rng.integers(-1, 2, (d, r)).astype(float), np.eye(d)
        if case % 3 == 2:
            b[:, rng.random(r) < 0.5] = 0.0
        shapes.setdefault((d, r), []).append((b, q))
    for cases in shapes.values():
        b, q = map(np.stack, zip(*cases))
        perms, aligns = lingauss._greedy_eigvec_match(b, q)
        for (b_one, q_one), perm, align in zip(cases, perms, aligns):
            want_perm, want_align = _greedy_reference(b_one, q_one)
            assert tuple(perm.tolist()) == want_perm
            assert align.tobytes() == want_align.tobytes()


class TestOptimizeGenerator:
    def test_infogan_identity_sigma(self):
        for seed in range(10):
            cfg = OptimizerConfig(objective="infogan")
            gen, rep = optimize_generator(np.eye(3), 1, cfg, seed)
            assert rep.orthonormality_residual <= 1e-4
            assert np.linalg.norm(gen.B) == pytest.approx(1.0, abs=1e-4)
            assert rep.history[-1] == pytest.approx(-0.5 * LOG_2PI, abs=1e-4)

    def test_cr_recovers_top_eigenstructure(self):
        sigma = np.diag([9.0, 4.0, 1.0])
        for seed in range(10):
            cfg = OptimizerConfig(objective="cr_frobenius")
            gen, rep = optimize_generator(sigma, 2, cfg, seed)
            assert np.all(rep.pca_alignment >= 0.999)
            assert sorted(rep.permutation) == [0, 1]
            target = np.array([9.0, 4.0])[list(rep.permutation)]
            assert np.all(rep.norm_errors <= 1e-3 * target)
            trunc = rank_r_truncation(sigma, 2)
            assert np.linalg.norm(gen.B @ gen.B.T - trunc) <= 1e-3

    def test_monotone_history(self):
        cfg = OptimizerConfig(objective="cr_frobenius")
        _, rep = optimize_generator(np.diag([5.0, 2.0, 0.5]), 2, cfg, seed=3)
        h = np.array(rep.history)
        assert np.all(np.diff(h) >= 0.0)

    def test_combined_weight_degenerations(self):
        sigma = np.diag([4.0, 2.0, 1.0])
        pure_info = optimize_generator(sigma, 2, OptimizerConfig(objective="infogan"), seed=5)
        comb_info = optimize_generator(
            sigma, 2, OptimizerConfig(objective="combined", lam=1.0, alpha=0.0), seed=5
        )
        assert np.array_equal(pure_info[0].B, comb_info[0].B)
        assert pure_info[1].history == comb_info[1].history

        pure_cr = optimize_generator(sigma, 2, OptimizerConfig(objective="cr_frobenius"), seed=5)
        comb_cr = optimize_generator(
            sigma, 2, OptimizerConfig(objective="combined", lam=0.0, alpha=1.0), seed=5
        )
        assert np.array_equal(pure_cr[0].B, comb_cr[0].B)
        assert pure_cr[1].history == comb_cr[1].history

    def test_result_is_matched(self):
        gen, _ = optimize_generator(
            np.diag([3.0, 1.0, 0.5]), 2, OptimizerConfig(objective="cr_frobenius")
        )
        assert is_distribution_matched(gen)

    def test_cr_with_r1_rejected(self):
        with pytest.raises(UndefinedDivergence):
            optimize_generator(
                np.diag([4.0, 1.0]), 1, OptimizerConfig(objective="cr_frobenius")
            )

    def test_non_pd_sigma_rejected(self):
        with pytest.raises(SingularCovariance):
            optimize_generator(
                np.diag([1.0, 0.0]), 1, OptimizerConfig(objective="infogan")
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(objective="nope")
        with pytest.raises(ValueError):
            OptimizerConfig(step_size=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(lam=-1.0)

    @pytest.mark.parametrize("field", ["step_size", "lam", "alpha"])
    def test_config_rejects_nan(self, field):
        with pytest.raises(ValueError):
            OptimizerConfig(**{field: math.nan})


def _reference_ascent(sigma, r, cfg, seed):
    """One run of the per-run loop that optimize_generators replaced.

    Returns (B̃, B, history, stop, backtracks).
    """
    w_info, w_cr = {"infogan": (1.0, 0.0), "cr_frobenius": (0.0, 1.0)}.get(
        cfg.objective, (cfg.lam, cfg.alpha)
    )
    root = spd_sqrt(sigma)
    const_info = -0.5 * r * (1.0 + LOG_2PI)

    def value(bt):
        total = 0.0
        if w_info != 0.0:
            total += w_info * (0.5 * float(np.sum(bt * bt)) + const_info)
        if w_cr != 0.0:
            b = root @ bt
            g = b.T @ b
            diag = g.diagonal()
            off_sq = float(np.sum(g * g) - np.sum(diag * diag))
            total += w_cr * (float(diag @ diag) - off_sq / (r - 1))
        return total

    def gradient(bt):
        grad = np.zeros_like(bt)
        if w_info != 0.0:
            grad += w_info * bt
        if w_cr != 0.0:
            b = root @ bt
            g = b.T @ b
            off = g.copy()
            off.flat[:: r + 1] = 0.0
            grad_b = 4.0 * (b * g.diagonal()) - (4.0 / (r - 1)) * (b @ off)
            grad += w_cr * (root @ grad_b)
        return grad

    bt = project_contraction(np.random.default_rng(seed).standard_normal((len(sigma), r)))
    f_cur = value(bt)
    history, stop, backtracks = [f_cur], "max_iters", 0
    for _ in range(cfg.max_iters):
        grad = gradient(bt)
        step = cfg.step_size
        while step >= cfg.step_size * 2.0**-40:
            cand = project_contraction(bt + step * grad)
            f_cand = value(cand)
            if f_cand > f_cur:
                break
            backtracks += 1
            if np.linalg.norm(cand - bt) <= (CONTRACTION_SLACK - 1.0) * np.linalg.norm(bt):
                step = 0.0  # a fixed point of the projected step: no step moves B̃
            else:
                step *= 0.5
        else:
            stop = "no_ascent_step"
            break
        delta = f_cand - f_cur
        bt, f_cur = cand, f_cand
        history.append(f_cur)
        if delta <= cfg.rel_tol * max(1.0, abs(f_cur)):
            stop = "rel_tol"
            break
    return bt, root @ bt, tuple(history), stop, backtracks


def _reference_report(sigma, bt, b):
    """The per-run report tail that the stacked one replaced.

    Returns (orthonormality residual, permutation, |cosine| per column, norm errors).
    """
    w, v = eig_sym(sigma)
    perm, align = _greedy_reference(b, v)
    residual = float(np.linalg.norm(bt.T @ bt - np.eye(bt.shape[1])))
    return residual, perm, align, np.abs(np.sum(b * b, axis=0) - w[list(perm)])


def _same_run(one, other) -> bool:
    """Whether two (generator, report) results agree bit for bit."""
    (gen_a, rep_a), (gen_b, rep_b) = one, other
    return (
        np.array_equal(gen_a.B, gen_b.B)
        and np.array_equal(gen_a.A, gen_b.A)
        and rep_a.history == rep_b.history
        and rep_a.orthonormality_residual == rep_b.orthonormality_residual
        and np.array_equal(rep_a.pca_alignment, rep_b.pca_alignment)
        and np.array_equal(rep_a.norm_errors, rep_b.norm_errors)
        and rep_a.permutation == rep_b.permutation
        and (rep_a.stop, rep_a.backtracks) == (rep_b.stop, rep_b.backtracks)
    )


class TestOptimizeGenerators:
    @pytest.mark.parametrize(
        "objective, settings",
        [
            ("infogan", {"max_iters": 5}),
            ("cr_frobenius", {"rel_tol": 1e-15, "max_iters": 60}),
            ("combined", {"lam": 1.0, "alpha": 0.5, "rel_tol": 1e-15, "max_iters": 60}),
        ],
    )
    def test_stack_equals_single_calls_bit_for_bit(self, objective, settings):
        # three distinct covariances, three seeds each; the settings make some
        # rows stop at rel_tol, some at max_iters and some in a failed line
        # search while the others still ascend
        m = np.random.default_rng(4).standard_normal((3, 3))
        sigmas = [
            np.eye(3),
            np.diag([9.0, 4.0, 1.0]),
            symmetrized(m @ m.T + 0.5 * np.eye(3)),
        ]
        # seeds repeat across covariances, and one (Σ, seed) run comes twice
        runs = [(sigma, seed) for sigma in sigmas for seed in range(3)] + [(sigmas[1], 0)]
        stacked = optimize_generators(runs, 2, OptimizerConfig(objective, **settings))
        assert {rep.stop for _, rep in stacked} == {"rel_tol", "no_ascent_step", "max_iters"}
        # a row leaves after its accepted and rejected rounds; some row stops
        # at a fixed point of the projected step while another still ascends
        rounds = [len(rep.history) - 1 + rep.backtracks for _, rep in stacked]
        fixed = [n for n, (_, rep) in zip(rounds, stacked) if rep.stop == "no_ascent_step"]
        assert min(fixed) < max(rounds)
        for (sigma, seed), result in zip(runs, stacked):
            single = optimize_generator(sigma, 2, OptimizerConfig(objective, **settings), seed)
            assert _same_run(result, single), (sigma.diagonal(), seed)

    @pytest.mark.parametrize(
        "objective, settings",
        [
            ("infogan", {}),
            ("cr_frobenius", {}),
            ("combined", {"lam": 0.7, "alpha": 0.3}),
            ("combined", {"lam": 0.0, "alpha": 0.0}),  # a flat objective: no step ascends
            ("cr_frobenius", {"rel_tol": 1e-15, "max_iters": 60}),
        ],
    )
    def test_single_run_equals_the_per_run_loop_bit_for_bit(self, objective, settings):
        m = np.random.default_rng(12).standard_normal((4, 4))
        for sigma in (np.eye(4), symmetrized(m @ m.T + 0.5 * np.eye(4))):
            for seed in range(3):
                cfg = OptimizerConfig(objective, **settings)
                gen, rep = optimize_generator(sigma, 2, cfg, seed)
                _, b, history, stop, backtracks = _reference_ascent(sigma, 2, cfg, seed)
                assert np.array_equal(gen.B, b)
                assert np.array_equal(gen.A, _reference_sqrt(symmetrized(sigma - b @ b.T)))
                assert rep.history == history
                assert (rep.stop, rep.backtracks) == (stop, backtracks)

    @pytest.mark.parametrize(
        "objective, d, r", [("cr_frobenius", 14, 12), ("infogan", 5, 3), ("infogan", 3, 1)]
    )
    def test_report_equals_the_per_run_tail_bit_for_bit(self, objective, d, r):
        # np.linalg.norm's dot product and a summed square round differently
        # on some cases: 3 of the 12 runs at r = 12, whose residual sums 144 cells.
        m = np.random.default_rng(d).standard_normal((4, d, d))
        runs = [(symmetrized(x @ x.T + 0.5 * np.eye(d)), seed) for x in m for seed in range(3)]
        settings = {"max_iters": 8}
        cfg = OptimizerConfig(objective, **settings)
        fits = optimize_generators(runs, r, cfg)
        for (sigma, seed), (gen, rep) in zip(runs, fits):
            bt, b, history, _, _ = _reference_ascent(sigma, r, cfg, seed)
            residual, perm, align, errors = _reference_report(sigma, bt, b)
            assert np.array_equal(gen.B, b) and rep.history == history
            assert rep.orthonormality_residual == residual
            assert rep.permutation == perm
            assert rep.pca_alignment.tobytes() == align.tobytes()
            assert rep.norm_errors.tobytes() == errors.tobytes()

    def test_empty_stack(self):
        assert optimize_generators([], 2, OptimizerConfig()) == []

    def test_max_iters_cap_is_reported(self):
        cfg = OptimizerConfig(objective="cr_frobenius", max_iters=3)
        _, rep = optimize_generator(np.diag([9.0, 4.0, 1.0]), 2, cfg)
        assert rep.stop == "max_iters"
        assert len(rep.history) - 1 == 3

    def test_fixed_point_reports_no_ascent_step(self):
        # on Σ = I the projected step maps a semi-orthonormal B̃ to itself up
        # to rounding, so its first rejected candidate ends the ascent
        cfg = OptimizerConfig(objective="infogan")
        _, rep = optimize_generator(np.eye(3), 2, cfg, seed=2)
        assert rep.stop == "no_ascent_step"
        assert rep.orthonormality_residual <= 1e-12
        assert rep.backtracks == 1

    def test_overshooting_candidate_halves_the_step(self):
        # On this spread spectrum the second step of seed 12 overshoots: six
        # candidates, each moving B̃ by over 60% of its Frobenius norm, fall
        # in objective before the seventh, at step_size·2⁻⁶, rises. In the
        # same stack the Σ = I run stops at a fixed point after one rejection.
        spread = np.diag([100.0, 10.0, 1.0, 0.1])
        runs = [(spread, 12), (np.eye(4), 0)]
        fits = optimize_generators(runs, 3, OptimizerConfig("cr_frobenius"))
        assert [(rep.stop, rep.backtracks) for _, rep in fits] == [
            ("rel_tol", 6), ("no_ascent_step", 1)
        ]
        for (sigma, seed), (gen, rep) in zip(runs, fits):
            _, b, history, stop, backtracks = _reference_ascent(
                sigma, 3, OptimizerConfig("cr_frobenius"), seed
            )
            assert np.array_equal(gen.B, b) and rep.history == history
            assert (rep.stop, rep.backtracks) == (stop, backtracks)

    def test_verify_stack_ends_at_its_fixed_points(self, monkeypatch):
        # verify's infogan runs reach semi-orthonormal B̃ within 10 accepted
        # steps, and each then leaves at its first rejected candidate, so the
        # stacked projection runs at most 11 times, the draws' included
        calls = []

        def counted(stack):
            calls.append(len(stack))
            return project_contraction(stack)

        monkeypatch.setattr(lingauss, "project_contraction", counted)
        ascents = []
        opt = cli._defaults(OptimizerConfig, "lam", "alpha")
        suites, thresholds = dict(verify.DEFAULTS), dict(verify.THRESHOLDS)
        checks = list(verify._semi_orthonormal(0, suites, opt, thresholds, ascents))
        assert all(value <= threshold for _, _, value, threshold in checks)
        assert len(calls) <= 11
        assert len(ascents) == suites["matrices"] * suites["seeds"] == calls[0]
        assert max(int(row[3]) for row in ascents) <= 1

    def test_default_cr_run_stops_at_rel_tol(self):
        cfg = OptimizerConfig(objective="cr_frobenius")
        _, rep = optimize_generator(np.diag([9.0, 4.0, 1.0]), 2, cfg)
        assert rep.stop == "rel_tol"
        gain = rep.history[-1] - rep.history[-2]
        assert gain <= cfg.rel_tol * max(1.0, abs(rep.history[-1]))

    def test_singular_sigma_names_its_run(self):
        runs = [(np.eye(2), 0), (np.diag([1.0, 0.0]), 1)]
        with pytest.raises(SingularCovariance, match=r"^run 1: target covariance"):
            optimize_generators(runs, 1, OptimizerConfig())

    def test_nearly_singular_sigma_names_its_run(self):
        # posterior could not invert this Σ, so no ascent may start on it
        runs = [(np.eye(2), 0), (np.diag([1.0, 1e-15]), 1)]
        with pytest.raises(SingularCovariance, match=r"^run 1: .* under 1e-14 times the max"):
            optimize_generators(runs, 1, OptimizerConfig())

    @pytest.mark.parametrize("diag, r", [((9.0, 4.0, 1.0), 2), ((9.0, 4.0), 2)],
                             ids=["r-below-d", "r-equals-d"])
    def test_fits_at_any_scale_of_sigma(self, diag, r):
        # the fitted B̃ ends on the contraction boundary, so Σ - BBᵀ has a zero
        # eigenvalue whose round-off grows with Σ
        scales = (1e-6, 1.0, 1e6, 1e8)
        runs = [(np.diag(c * np.asarray(diag)), 0) for c in scales]
        for objective in ("cr_frobenius", "infogan"):
            fits = optimize_generators(runs, r, OptimizerConfig(objective))
            assert all(is_distribution_matched(gen) for gen, _ in fits)
        # the infogan ascent over B̃ does not depend on Σ, so B = Σ^{1/2}B̃ scales by √c
        base = fits[1][0].B
        for c, (gen, _) in zip(scales, fits):
            assert np.abs(gen.B / math.sqrt(c) - base).max() <= 1e-12 * np.abs(base).max()

    def test_failed_svd_names_its_run(self, monkeypatch):
        # an SVD that fails on finite input: here, on any stack holding run 1's draw
        failing = np.random.default_rng(1).standard_normal((3, 2))

        def project(stack):
            if any(np.array_equal(m, failing) for m in stack):
                raise NumericFailure("SVD failed during contraction projection: no convergence")
            return project_contraction(stack)

        monkeypatch.setattr(lingauss, "project_contraction", project)
        sigma = np.diag([9.0, 4.0, 1.0])
        with pytest.raises(NumericFailure, match=r"^run 1: SVD failed"):
            optimize_generators([(sigma, 0), (sigma, 1), (sigma, 2)], 2, OptimizerConfig())

    @pytest.mark.parametrize("objective", ["cr_frobenius", "combined"])
    def test_overflowing_objective_names_its_run(self, objective):
        # the coupling objective grows as the square of Σ, past float64 at 1e160
        huge = np.diag([1e160, 1e159, 1e158])
        runs = [(np.diag([9.0, 4.0, 1.0]), 0), (huge, 1)]
        cfg = OptimizerConfig(objective)
        overflow = r"the ascent's objective or gradient overflows \(overflow encountered in "
        with pytest.raises(NumericFailure, match=f"^run 1: {overflow}"):
            optimize_generators(runs, 2, cfg)
        with pytest.raises(NumericFailure, match=f"^{overflow}"):
            optimize_generators(runs[1:], 2, cfg)

    def test_infogan_fit_past_1e154_raises_no_warning(self):
        # the infogan ascent does not overflow at this scale, and neither may the
        # norm behind its noise maps' PSD clamp
        sigma = np.diag([1e160, 1e159, 1e158])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = optimize_generators([(sigma, 0), (sigma, 1)], 2, OptimizerConfig("infogan"))
        assert all(math.isfinite(rep.history[-1]) for _, rep in fits)

    @pytest.mark.parametrize("scale", [9.0, 1e153, 6e153, 6.7e153])
    def test_largest_finite_cr_runs_equal_the_per_run_loop(self, scale):
        # up to about 6.7e153 every run of Σ = diag(λ, λ/10, λ/100) ends
        # finite, with the bits it had before overflow raised
        sigma = np.diag([scale, scale / 10, scale / 100])
        cfg = OptimizerConfig("cr_frobenius")
        fits = optimize_generators([(sigma, seed) for seed in range(3)], 2, cfg)
        for seed, (gen, rep) in enumerate(fits):
            _, b, history, stop, backtracks = _reference_ascent(sigma, 2, cfg, seed)
            assert math.isfinite(rep.history[-1])
            assert np.array_equal(gen.B, b) and rep.history == history
            assert (rep.stop, rep.backtracks) == (stop, backtracks)

    def test_runs_must_share_a_dimension(self):
        runs = [(np.eye(2), 0), (np.eye(3), 1)]
        with pytest.raises(ValueError, match="same dimension"):
            optimize_generators(runs, 1, OptimizerConfig())
