"""Builders and readers the tests share, over the package's stacked cores.

The package computes noise maps, objectives and the JS identity's closed
forms on stacks; the one-case calls below are what the tests use as
fixtures and oracles. paired_covariance and cr_frobenius_divergence are the
pairwise definition of the coupling divergence, the reference of
lingauss._cr_values.
"""
import math
import re
import warnings
from pathlib import Path

import numpy as np

from disentlab.contrastive import DiscreteDistributionFamily
from disentlab.errors import NumericFailure, UndefinedDivergence
from disentlab.linalg import eig_sym, symmetrized
from disentlab.lingauss import (
    LinearGenerator,
    _cr_values,
    _noise_maps,
    _objectives,
    _pd_eig,
    is_distribution_matched,
    posterior,
)
from disentlab.metrics import LinearEncoder, _laplace_row_sums, _median_pair_distance


def matched_generator(sigma, b) -> LinearGenerator:
    """The distribution-matched generator of code map B: A = (Σ - B Bᵀ)^{1/2}, a one-pair stack."""
    b = np.asarray(b, dtype=float)
    return LinearGenerator(b, _noise_maps(symmetrized(sigma)[None], b[None])[0], sigma)


def infogan_objective(gen: LinearGenerator) -> float:
    """Recognition-term value of the generator in nats, both routes cross-checked.

    (1/2)·‖Σ^{-1/2} B‖_F² - (r/2)(1 + log 2π) and -(1/2)·tr(S) - (r/2)·log 2π
    with S = I - Bᵀ Σ⁻¹ B; the maximum over B Bᵀ ⪯ Σ is -(r/2)·log 2π, reached
    at semi-orthonormal B̃ = Σ^{-1/2} B.
    """
    sigma = gen.sigma[None]
    return float(_objectives(sigma, _pd_eig(sigma), gen.B[None])[0])


def js_divergence(family: DiscreteDistributionFamily) -> float:
    """Generalized Jensen-Shannon divergence: mean KL of each row to the mixture."""
    p = family.probs
    mix = p.mean(axis=0)
    mask = p > 0.0
    ratio = np.divide(p, mix[None, :], out=np.ones_like(p), where=mask)
    terms = np.where(mask, p * np.log(ratio, out=np.zeros_like(p), where=mask), 0.0)
    return float(terms.sum() / family.k)


def discriminator_probs(logits) -> np.ndarray:
    """Row-stochastic outputs of an (m, k) logit table; -inf logits give exact zeros.

    A row of only -inf logits reads uniform.
    """
    logits = np.asarray(logits, dtype=float)
    top = logits.max(axis=1, keepdims=True)
    safe = np.where(np.isneginf(top), 0.0, top)
    e = np.exp(logits - safe)
    total = e.sum(axis=1, keepdims=True)
    uniform = np.full(logits.shape[1], 1.0 / logits.shape[1])
    return np.where(total > 0.0, e / np.where(total > 0.0, total, 1.0), uniform)


def optimal_discriminator(family: DiscreteDistributionFamily) -> np.ndarray:
    """Logits (m, k) of the analytic maximizer H_i(x) = Q_i(x) / Σ_j Q_j(x) of the objective.

    Support points with zero total mass carry no objective weight; they get
    uniform rows.
    """
    p = family.probs
    z = p.sum(axis=0)
    if not np.any(z > 0.0):
        raise ValueError("family has empty effective support")
    m, k = family.support_size, family.k
    h = np.full((m, k), 1.0 / k)
    pos = z > 0.0
    h[pos] = (p[:, pos] / z[pos]).T
    logits = np.full((m, k), -np.inf)
    hot = h > 0.0
    logits[hot] = np.log(h[hot])
    return logits


def cross_entropy_objective(family: DiscreteDistributionFamily, logits) -> float:
    """(1/k) Σ_i Σ_x Q_i(x) log H_i(x) of an (m, k) logit table, -inf when mass meets a zero."""
    q = family.probs
    out = discriminator_probs(logits).T  # (k, m)
    if out.shape != q.shape:
        raise ValueError(f"logit table of shape {out.T.shape} does not match family")
    mask = q > 0.0
    if np.any(out[mask] <= 0.0):
        return -math.inf
    return float(np.sum(q[mask] * np.log(out[mask])) / family.k)


def noisy_linear_pool(
    sigma, r: int, noise_levels, seed=0, noise_scale=1.0
) -> tuple[list[LinearGenerator], list[LinearEncoder]]:
    """Pool sharing one exact top-r generator, with encoder noise per model: (generators, encoders).

    The generator's code map is the closed-form optimum (top-r eigenvectors
    scaled by their eigenvalues); model m's encoder perturbs the exact
    posterior-mean map W by noise_level·noise_scale·(‖W‖_F/√W.size)·G with
    G standard normal under a per-model seed. At noise_scale=1 a unit level
    matches the root-mean-square entry of W; majority-vote metrics barely
    react until the perturbation is a few times that, so pools meant to span
    a metric's dynamic range should raise noise_scale rather than stretch
    the level grid.
    """
    w, v = eig_sym(sigma)
    gen = matched_generator(sigma, v[:, :r] * np.sqrt(w[:r]))
    base = posterior(gen)
    scale = float(noise_scale) * float(np.linalg.norm(base)) / math.sqrt(base.size)
    encoders = []
    for m, level in enumerate(noise_levels):
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, m]))
        weight = base + float(level) * scale * noise_rng.standard_normal(base.shape)
        encoders.append(LinearEncoder(weight))
    return [gen] * len(encoders), encoders


def paired_covariance(gen: LinearGenerator, i: int) -> np.ndarray:
    """Covariance of a coupled sample pair sharing code coordinate i.

    Both marginals are Σ and the cross block is b⁽ⁱ⁾ b⁽ⁱ⁾ᵀ, the outer product
    of column i of B. Requires a distribution-matched generator (0-based i).
    """
    if not 0 <= i < gen.r:
        raise IndexError(f"code index {i} out of range for r={gen.r}")
    if not is_distribution_matched(gen):
        raise ValueError("generator is not distribution-matched (B Bᵀ + A Aᵀ != Σ)")
    d = gen.d
    col = gen.B[:, i : i + 1]
    cross = col @ col.T
    out = np.empty((2 * d, 2 * d))
    out[:d, :d] = gen.sigma
    out[d:, d:] = gen.sigma
    out[:d, d:] = cross
    out[d:, :d] = cross
    return out


def cr_frobenius_divergence(b) -> float:
    """Average squared Frobenius distance between coupled-pair covariances.

    Equals (1/(4(r-1))) · Σ_{i≠j} ‖C⁽ⁱ⁾ - C⁽ʲ⁾‖_F² over the 2d x 2d coupled
    covariances, which collapses to Σ_i ‖b⁽ⁱ⁾‖⁴ - (1/(r-1))·Σ_{i≠j}⟨b⁽ⁱ⁾,b⁽ʲ⁾⟩²
    because the diagonal blocks cancel. Both routes are evaluated, the
    collapsed one by lingauss._cr_values, and must agree; the collapsed
    value is returned.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"expected a d x r matrix, got shape {b.shape}")
    d, r = b.shape
    if r < 2:
        raise UndefinedDivergence(
            "the pairwise coupling divergence needs at least 2 code columns "
            "(normalization 1/(4(r-1)))"
        )
    value = float(_cr_values((b.T @ b)[None])[0])

    total = 0.0
    delta = np.zeros((2 * d, 2 * d))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            block = np.outer(b[:, i], b[:, i]) - np.outer(b[:, j], b[:, j])
            delta[:d, d:] = block
            delta[d:, :d] = block
            total += float(np.sum(delta * delta))
    direct = total / (4.0 * (r - 1))
    if abs(value - direct) > 1e-10 * max(1.0, abs(value)):
        raise NumericFailure(f"divergence cross-check failed: {value!r} vs {direct!r}")
    return value


def pgm_bytes(image) -> bytes:
    """One grayscale image as a binary PGM frame (P5, maxval 255): the reference writer."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"expected a 2-d uint8 image, got {image.dtype} shape {image.shape}")
    h, w = image.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes()


_PGM_HEADER = re.compile(rb"P5\n(\d+) (\d+)\n255\n")


def read_pgm(path) -> np.ndarray:
    """Every frame of a binary PGM in the layout pgm_bytes writes, stacked (frames, h, w).

    A file is one or more frames back to back, each P5, width height, 255,
    then its raster. A truncated frame or bytes after the last frame fail.
    """
    data = Path(path).read_bytes()
    frames, pos = [], 0
    while pos < len(data):
        header = _PGM_HEADER.match(data, pos)
        assert header, f"{path}: the bytes at offset {pos} do not start a P5 frame"
        w, h = int(header[1]), int(header[2])
        pos = header.end() + w * h
        assert pos <= len(data), f"{path}: the frame at offset {header.start()} is truncated"
        frames.append(np.frombuffer(data, np.uint8, w * h, header.end()).reshape(h, w))
    assert frames, f"{path} holds no frame"
    return np.stack(frames)


def reference_dhsic(samples) -> float:
    """dHSIC with the joint kernel summed on strided views of two (32, n) buffers.

    The package's medians and marginal sums, and the joint loop that
    metrics.dhsic ran before it moved to contiguous row chunks: each block of
    32 rows builds its exponents coordinate by coordinate in
    exponent[:size, :n - start] and adds its kernel sum as one term, so
    dhsic must return the same bits.
    """
    x = np.asarray(samples, dtype=float)
    n, k = x.shape
    cols = np.ascontiguousarray(x.T)
    h2 = np.empty(k)
    product_term = 1.0
    row_products = np.ones(n)
    for col in range(k):
        order = np.argsort(cols[col], kind="stable")
        xs = cols[col, order]
        h = _median_pair_distance(xs)
        if not h * h >= np.finfo(float).tiny:
            warnings.warn(f"coordinate {col} has zero median distance, or one whose square "
                          f"underflows ({h:.3g}); bandwidth set to 1.0")
            h = 1.0
        h2[col] = h * h
        sums = _laplace_row_sums(xs, h2[col])
        product_term *= sums.sum() / (n * n)
        row_products[order] *= sums / n
    exponent = np.empty((32, n))
    work = np.empty((32, n))
    joint = 0.0
    for start in range(0, n, 32):
        size = min(32, n - start)
        acc = exponent[:size, : n - start]
        tmp = work[:size, : n - start]
        acc.fill(0.0)
        for col in range(k):
            np.subtract(cols[col, start : start + size, None], cols[col, None, start:], out=tmp)
            np.abs(tmp, out=tmp)
            tmp *= -1.0 / h2[col]
            acc += tmp
        np.exp(acc, out=acc)
        joint += acc[:, :size].sum() + 2.0 * acc[:, size:].sum()
    return float(joint / (n * n) + product_term - 2.0 * row_products.mean())
