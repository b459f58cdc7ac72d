"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a headline property of the package at its stated
tolerance and prints a single summary line (visible under ``pytest -s``)
before asserting, so a full run reads as a pass/fail scoreboard:

    python3 -m pytest tests/test_acceptance.py -v -s
"""
import math
import time
import warnings

import numpy as np
import pytest

from disentlab.contrastive import (
    DiscreteDistributionFamily,
    js_identity_values,
    train_discriminator,
)
from disentlab.datasets import gen_circular_dsprites
from disentlab.linalg import spd_sqrt, symmetrized
from disentlab.lingauss import (
    LOG_2PI,
    LinearGenerator,
    OptimizerConfig,
    bias_decomposition,
    optimize_generator,
    posterior,
    rank_r_truncation,
)
from disentlab.metrics import (
    FactorVaeConfig,
    LinearEncoder,
    dhsic,
    factorvae_metric,
    spearman_rho,
)
from disentlab.selection import model_centrality, subsampled_centrality
from support import matched_generator, noisy_linear_pool

# Hand-checkable similarity table: cross scores A12=A21=0.9, A13=0.8,
# A31=0.2, A23=0.9, A32=0.7 symmetrize to B12=0.9, B13=0.5, B23=0.8,
# giving row means s=(0.7, 0.85, 0.65); the middle model wins.
HAND_SCORES = {(0, 1): 0.9, (1, 0): 0.9, (0, 2): 0.8, (2, 0): 0.2, (1, 2): 0.9, (2, 1): 0.7}

STUB_CFG = FactorVaeConfig(groups_per_factor=15, group_size=15, reference_samples=500)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")


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


def test_criterion_01_semi_orthonormal_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_resid, worst_gap = 0.0, 0.0
    for _ in range(10):
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        w = np.sort(rng.uniform(0.2, 5.0, 6))[::-1]
        w += np.linspace(0.05, 0.0, 6)  # strictly separates any near-ties
        sigma = symmetrized((q * w) @ q.T)
        for seed in range(10):
            _, rep = optimize_generator(sigma, 3, OptimizerConfig(objective="infogan"), seed=seed)
            worst_resid = max(worst_resid, rep.orthonormality_residual)
            worst_gap = max(worst_gap, abs(rep.history[-1] - (-1.5 * LOG_2PI)))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-4 and worst_gap <= 1e-4 and elapsed <= 30.0
    _report(
        1,
        "whitened code map reaches the semi-orthonormal optimum "
        f"(residual {worst_resid:.2e}, objective gap {worst_gap:.2e}, {elapsed:.1f}s)",
        ok,
    )
    assert worst_resid <= 1e-4
    assert worst_gap <= 1e-4
    assert elapsed <= 30.0


def test_criterion_02_pca_recovery():
    t0 = time.perf_counter()
    sigma = np.diag([9.0, 4.0, 1.0, 0.25, 0.04])
    trunc = rank_r_truncation(sigma, 2)
    worst_align, worst_norm_rel, worst_trunc = 1.0, 0.0, 0.0
    for seed in range(10):
        cfg = OptimizerConfig(objective="cr_frobenius")
        gen, rep = optimize_generator(sigma, 2, cfg, seed=seed)
        worst_align = min(worst_align, rep.pca_alignment.min())
        matched = np.array([9.0, 4.0])[list(rep.permutation)]
        worst_norm_rel = max(worst_norm_rel, (rep.norm_errors / matched).max())
        worst_trunc = max(worst_trunc, np.linalg.norm(gen.B @ gen.B.T - trunc))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_align >= 0.999
        and worst_norm_rel <= 1e-3
        and worst_trunc <= 1e-3
        and elapsed <= 30.0
    )
    _report(
        2,
        "contrastive optimum recovers the leading principal directions "
        f"(alignment {worst_align:.6f}, norm error {worst_norm_rel:.2e}, "
        f"truncation gap {worst_trunc:.2e}, {elapsed:.1f}s)",
        ok,
    )
    assert worst_align >= 0.999
    assert worst_norm_rel <= 1e-3
    assert worst_trunc <= 1e-3
    assert elapsed <= 30.0


def test_criterion_03_discriminator_objective_identity():
    # Families drawn with full support: softmax logit ascent converges
    # geometrically to interior optima, while boundary optima (zero cells)
    # are approached only at a polynomial rate and would need far more
    # iterations to close the gap this tightly.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    fams = []
    for _ in range(100):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(2, 9))
        p = rng.uniform(0.2, 1.0, (k, m))
        p /= p.sum(axis=1, keepdims=True)
        fams.append(DiscreteDistributionFamily(p))
    ascents = train_discriminator(fams)
    best, js, trained = js_identity_values(fams, [a.logits for a in ascents])
    log_k = np.array([math.log(fam.k) for fam in fams])
    worst_identity = float(np.abs(best - (js - log_k)).max())
    worst_training = float((best - trained).max())
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-12 and worst_training <= 1e-4 and elapsed <= 10.0
    _report(
        3,
        "optimal-discriminator objective equals the divergence identity "
        f"(identity gap {worst_identity:.2e}, training gap {worst_training:.2e}, {elapsed:.1f}s)",
        ok,
    )
    assert worst_identity <= 1e-12
    assert worst_training <= 1e-4
    assert elapsed <= 10.0


def test_criterion_04_information_decomposition():
    rng = np.random.default_rng(4)
    worst_resid, min_bias, worst_z = 0.0, math.inf, 0.0
    for _ in range(100):
        d, r = 4, 2
        m = rng.standard_normal((d, d))
        sigma = symmetrized(m @ m.T + 0.5 * np.eye(d))
        bt = rng.standard_normal((d, r))
        bt *= 0.9 / np.linalg.svd(bt, compute_uv=False)[0]
        gen = matched_generator(sigma, spd_sqrt(sigma) @ bt)
        dec = bias_decomposition(gen)
        worst_resid = max(
            worst_resid,
            abs(dec.info_loss - (dec.mutual_information - dec.latent_entropy - dec.implicit_bias)),
        )
        min_bias = min(min_bias, dec.implicit_bias)
        # Monte Carlo oracle for the closed-form loss: the optimal factorized
        # readout is the unit-variance Gaussian around the posterior mean.
        n = 100_000
        c = rng.standard_normal((n, r))
        z = rng.standard_normal((n, d))
        x = c @ gen.B.T + z @ gen.A.T
        w = posterior(gen)
        vals = -0.5 * r * LOG_2PI - 0.5 * ((c - x @ w.T) ** 2).sum(axis=1)
        se = vals.std(ddof=1) / math.sqrt(n)
        worst_z = max(worst_z, abs(vals.mean() - dec.info_loss) / se)
    ok = worst_resid <= 1e-10 and min_bias >= 0.0 and worst_z < 3.0
    _report(
        4,
        "information loss decomposes exactly with nonnegative bias "
        f"(residual {worst_resid:.2e}, min bias {min_bias:.4f}, worst MC z {worst_z:.2f})",
        ok,
    )
    assert worst_resid <= 1e-10
    assert min_bias >= 0.0
    assert worst_z < 3.0


def test_criterion_05_factorvae_metric_sanity():
    # x = B c + A z with B = diag(√λ) on the first 5 of 8 coordinates and A on
    # the other 3, so sample coordinate i < 5 is √λᵢ·cᵢ and the rest is noise
    lam = 0.8 ** np.arange(8)
    b, a = np.zeros((8, 5)), np.zeros((8, 8))
    b[np.arange(5), np.arange(5)] = np.sqrt(lam[:5])
    a[np.arange(5, 8), np.arange(5, 8)] = np.sqrt(lam[5:])
    gen = LinearGenerator(b, a, np.diag(lam))
    base = np.eye(5, 8) / np.sqrt(lam[:5, None])  # code i reads x_i/√λ_i = c_i
    perfect = factorvae_metric(gen, LinearEncoder(base), FactorVaeConfig(), 0).score
    # rows over the noise coordinates: W·B = 0, so the codes carry only noise
    noise = np.zeros((5, 8))
    noise[:, 5:] = np.random.default_rng(0).standard_normal((5, 3))
    chance = factorvae_metric(gen, LinearEncoder(noise), FactorVaeConfig(), 0).score
    rng = np.random.default_rng(5)
    transform_scores = []
    for _ in range(20):
        perm = rng.permutation(5)
        scales = rng.uniform(0.1, 10.0, 5)
        enc = LinearEncoder(scales[:, None] * base[perm])  # diag(s)·P·W
        transform_scores.append(factorvae_metric(gen, enc, FactorVaeConfig(), 0).score)
    invariant = all(score == 1.0 for score in transform_scores)
    ok = perfect == 1.0 and chance <= 0.3 and invariant
    _report(
        5,
        f"majority-vote metric sanity (perfect {perfect}, chance {chance:.3f}, "
        f"20 scale/permutation transforms all 1.0: {invariant})",
        ok,
    )
    assert perfect == 1.0
    assert chance <= 0.3
    assert invariant


def test_criterion_06_dhsic_properties():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # constant input has no bandwidth
        constant = abs(dhsic(np.ones((50, 3))))
    # Hand oracle for n=2, k=2: both coordinate kernels are [[1, e^-1], [e^-1, 1]]
    # (median pairwise distance 1), giving 2(1 - e^-1)^2/4 - ... = the frozen value.
    hand_gap = abs(dhsic(np.array([[0.0, 0.0], [1.0, 1.0]])) - 0.09989410022343201)
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        x = rng.standard_normal((1000, 2))
        dup = np.column_stack([x[:, 0], x[:, 0]])
        wins += dhsic(dup) > dhsic(x)
    ok = constant <= 1e-12 and hand_gap <= 1e-12 and wins >= 95
    _report(
        6,
        f"dependence score properties (constant {constant:.1e}, hand-case gap {hand_gap:.1e}, "
        f"duplicated-coordinate ordering {wins}/100)",
        ok,
    )
    assert constant <= 1e-12
    assert hand_gap <= 1e-12
    assert wins >= 95


def test_criterion_07_centrality_tracks_encoder_noise():
    # Pool calibration: majority votes barely react to map perturbations below
    # a few times the RMS entry, so at noise_scale=1 every model still scores
    # 1.0 and the ranking is pure jitter.  noise_scale=2.4 with an eigenvalue
    # ladder from 5.0 down to 0.45 staggers the level at which each factor's
    # votes flip, keeping the decline graded across the whole level grid; the
    # two softest factors (0.28, 0.18) flip within the first few levels so the
    # least-noisy models separate from the rest by more than the metric jitter.
    t0 = time.perf_counter()
    levels = np.arange(20) * 0.05
    band = list(5.0 * (0.45 / 5.0) ** (np.arange(10) / 9.0))
    sigma = np.diag(band + [0.28, 0.18] + [0.08, 0.05, 0.03, 0.015])
    rhos, medoids = [], []
    for seed in range(5):
        pool = noisy_linear_pool(sigma, 12, levels, seed=seed, noise_scale=2.4)
        cfg = FactorVaeConfig(groups_per_factor=40, group_size=35, reference_samples=2000)
        b = model_centrality(*pool, cfg, seed, threads=4)
        scores = b.sum(axis=1) / (b.shape[0] - 1)
        rhos.append(spearman_rho(scores, -levels))
        medoids.append(int(np.argmax(scores)))
    elapsed = time.perf_counter() - t0
    min_rho = min(rhos)
    medoids_ok = all(m in (0, 1, 2) for m in medoids)
    ok = min_rho >= 0.8 and medoids_ok and elapsed <= 300.0
    _report(
        7,
        "centrality ranks models by encoder noise "
        f"(min Spearman {min_rho:.3f} over 5 seeds, medoids {medoids}, {elapsed:.0f}s)",
        ok,
    )
    assert min_rho >= 0.8
    assert medoids_ok
    assert elapsed <= 300.0


def test_criterion_08_centrality_hand_case():
    pool = _tiny_pool(3)
    b = model_centrality(*pool, STUB_CFG, 0, metric=_stub_metric(*pool, HAND_SCORES))
    scores, _ = subsampled_centrality(b, fraction=1.0, trials=1, seed=0)
    selected = int(np.argmax(scores))
    # (0.9 + 0.8)/2 lands one ulp above 0.85 in binary floating point, so
    # "exact" here means to within one ulp of the decimal targets.
    scores_ok = np.allclose(scores, [0.7, 0.85, 0.65], rtol=0.0, atol=1e-15)
    ok = scores_ok and selected == 1
    _report(
        8,
        f"three-model hand case (scores {np.round(scores, 6).tolist()}, "
        f"selected index {selected})",
        ok,
    )
    assert scores_ok
    assert selected == 1
    # fraction 1.0 reproduces the full row means of B bit for bit
    assert np.allclose(b.sum(axis=1) / (b.shape[0] - 1), scores, rtol=0.0, atol=0.0)


def test_criterion_09_disc_dataset_geometry():
    images, factors = gen_circular_dsprites()
    images2, factors2 = gen_circular_dsprites()
    identical = (
        images.tobytes() == images2.tobytes() and factors.tobytes() == factors2.tobytes()
    )
    count_ok = images.shape == (1080, 64, 64) and images.dtype == np.uint8
    binary_ok = bool(np.isin(images, (0, 255)).all())
    # Integral disc centers occur exactly at radius zero or at the four axis
    # angles (every tenth step of the 40-angle grid); a radius-5 disc on an
    # integer center always covers 81 pixels.
    integral = (factors[:, 0] == 0) | (factors[:, 1] % 10 == 0)
    foreground = (images[integral] == 255).sum(axis=(1, 2))
    pixels_ok = bool((foreground == 81).all())
    ok = identical and count_ok and binary_ok and pixels_ok
    _report(
        9,
        f"disc dataset geometry (1080 binary 64x64 images: {count_ok and binary_ok}, "
        f"{int(integral.sum())} integral-center images all 81 px: {pixels_ok}, "
        f"repeat runs byte-identical: {identical})",
        ok,
    )
    assert count_ok
    assert binary_ok
    assert pixels_ok
    assert identical


def test_criterion_10_subsample_protocol():
    pool = _tiny_pool(6)
    rng = np.random.default_rng(7)
    table = {(i, j): float(rng.uniform(0.2, 1.0)) for i in range(6) for j in range(6) if i != j}
    b = model_centrality(*pool, STUB_CFG, 0, metric=_stub_metric(*pool, table))
    full = b.sum(axis=1) / (b.shape[0] - 1)
    scores, stderr = subsampled_centrality(b, fraction=1.0, trials=25, seed=0)
    full_ok = np.array_equal(scores, full) and np.array_equal(stderr, np.zeros(6))
    scores, stderr = subsampled_centrality(b, fraction=0.8, trials=100, seed=1)
    partial_ok = bool(np.all(np.abs(scores - full) <= 3.0 * stderr))
    ok = full_ok and partial_ok
    _report(
        10,
        "subsample protocol (fraction 1.0 reproduces full scores with zero stderr: "
        f"{full_ok}; fraction 0.8 means within 3 stderr: {partial_ok})",
        ok,
    )
    assert full_ok
    assert partial_ok
