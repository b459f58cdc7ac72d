"""Builders and readers the tests share, over the package's stacked cores.

The package computes noise maps, objectives and the JS identity's closed
forms on stacks; the one-case calls below are what the tests use as
fixtures and oracles.
"""
import math
import re
from pathlib import Path

import numpy as np

from disentlab.contrastive import DiscreteDistributionFamily
from disentlab.linalg import SymMatrix, eig_sym
from disentlab.lingauss import LinearGenerator, _noise_maps, _objectives, _pd_eig, posterior
from disentlab.metrics import LinearEncoder
from disentlab.selection import ModelPool


def matched_generator(sigma: SymMatrix, b) -> LinearGenerator:
    """The distribution-matched generator of code map B: A = (Σ - B Bᵀ)^{1/2}, a one-pair stack."""
    b = np.asarray(b, dtype=float)
    return LinearGenerator(b, _noise_maps(sigma.entries[None], b[None])[0], sigma)


def infogan_objective(gen: LinearGenerator) -> float:
    """Recognition-term value of the generator in nats, both routes cross-checked.

    (1/2)·‖Σ^{-1/2} B‖_F² - (r/2)(1 + log 2π) and -(1/2)·tr(S) - (r/2)·log 2π
    with S = I - Bᵀ Σ⁻¹ B; the maximum over B Bᵀ ⪯ Σ is -(r/2)·log 2π, reached
    at semi-orthonormal B̃ = Σ^{-1/2} B.
    """
    sigma = gen.sigma.entries[None]
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


def noisy_linear_pool(sigma: SymMatrix, r: int, noise_levels, seed=0, noise_scale=1.0) -> ModelPool:
    """Pool sharing one exact top-r generator, with encoder noise per model.

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
    base = posterior(gen).mean_map
    scale = float(noise_scale) * float(np.linalg.norm(base)) / math.sqrt(base.size)
    entries = []
    for m, level in enumerate(noise_levels):
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, m]))
        weight = base + float(level) * scale * noise_rng.standard_normal(base.shape)
        entries.append((gen, LinearEncoder(weight), f"noise_{float(level):g}"))
    return ModelPool(tuple(entries))


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
