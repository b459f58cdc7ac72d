"""Unsupervised model selection over pools of (generator, encoder) pairs.

Every method reduces a pool to an N×N pair matrix and ranks models by its
off-diagonal row means, with subsampled standard errors, in a
SelectionReport. Centrality (arXiv 1906.06034) fills the matrix with
vote-metric cross-scores of each encoder against every other model's
generator and symmetrizes it: well-disentangled models land close together
while poor ones scatter. UDR (Duan et al. 2020) fills it with the
peakedness of pairwise code-relevance matrices (Lasso or Spearman). UDR's
Spearman variant and the cross-metric rank-correlation analysis both call
the one Spearman kernel in metrics.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .lasso import lasso_gram_fit
from .linalg import SymMatrix, eig_sym
from .lingauss import LinearGenerator, matched_generator, posterior
from .metrics import (
    LASSO_LAMBDA,
    Encoder,
    FactorVaeConfig,
    GeneratorSampler,
    LinearEncoder,
    _fractional_ranks,
    _rank_correlations,
    _standardize_columns,
    factorvae_metric,
)

UDR_EPS = 1e-12
UDR_VARIANTS = ("lasso", "spearman")


@dataclass(frozen=True)
class ModelPool:
    """(generator, encoder, label) triples sharing one code and one sample dimension."""

    entries: tuple[tuple[LinearGenerator, Encoder, str], ...]

    def __post_init__(self):
        entries = tuple((g, e, str(label)) for g, e, label in self.entries)
        if len(entries) < 2:
            raise ValueError(f"a pool needs at least 2 models, got {len(entries)}")
        dims = {e.code_dim for _, e, _ in entries}
        if len(dims) != 1:
            raise ValueError(f"encoders must share one code dimension, got {sorted(dims)}")
        dims = {g.d for g, _, _ in entries}
        if len(dims) != 1:
            raise ValueError(f"generators must share one sample dimension, got {sorted(dims)}")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, _, label in self.entries)

    def generator(self, i: int) -> LinearGenerator:
        return self.entries[i][0]

    def encoder(self, i: int) -> Encoder:
        return self.entries[i][1]


@dataclass(frozen=True)
class SelectionReport:
    """Per-model scores and standard errors; the selection is their argmax."""

    method: str
    scores: np.ndarray
    stderr: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        if scores.ndim != 1 or scores.size < 1:
            raise ValueError("scores must be a nonempty vector")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if stderr.shape != scores.shape:
            raise ValueError("stderr must align with scores")
        if not np.all(np.isfinite(stderr)):
            raise ValueError("stderr must be finite")
        if len(self.labels) != scores.size:
            raise ValueError("labels must align with scores")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "stderr", stderr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def selected(self) -> int:
        """Index of the highest score; ties go to the lowest index."""
        return int(np.argmax(self.scores))


def cross_score(enc: Encoder, gen: LinearGenerator, cfg: FactorVaeConfig) -> float:
    """Vote-metric score of encoder enc against groups generated by gen.

    The generator's own latent codes act as ground-truth factors, so the value
    measures how well enc recovers the code structure of gen.
    """
    return factorvae_metric(GeneratorSampler(gen), enc, cfg).score


def _pair_seed(master: int, i: int, j: int) -> int:
    return int(np.random.SeedSequence([master, i, j]).generate_state(1)[0])


def model_centrality(
    pool: ModelPool,
    cfg: FactorVaeConfig,
    metric=cross_score,
    threads: int = 1,
) -> np.ndarray:
    """Symmetrized cross-score matrix 0.5·(A + Aᵀ) of the pool, zero on the diagonal.

    A[i, j] scores encoder i against generator j. Each (i, j) evaluation
    runs under its own seed derived from (cfg.seed, i, j), so the matrix is
    identical for any evaluation order or thread count. Its off-diagonal row
    means are the centrality scores; subsampled_centrality ranks by them.
    """
    n = pool.size
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    a = np.zeros((n, n))

    def fill(share):
        for i, j in share:
            pair_cfg = replace(cfg, seed=_pair_seed(cfg.seed, i, j))
            a[i, j] = metric(pool.encoder(i), pool.generator(j), pair_cfg)

    # The calling thread takes one share itself: at threads=1 no worker
    # starts, and the work stays on the thread that receives signals.
    with ThreadPoolExecutor(max_workers=threads) as executor:
        shares = [executor.submit(fill, pairs[t::threads]) for t in range(1, threads)]
        fill(pairs[::threads])
        for share in shares:
            share.result()
    return 0.5 * (a + a.T)


def _subsampled_row_means(
    scores: np.ndarray, fraction: float, trials: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of off-diagonal row means over random subsets.

    Subset indices are sorted before summing, so fraction=1.0 walks each row
    in the same order as the full row mean and reproduces it bitwise; the
    all-trials-identical case is reported as exactly zero standard error.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    n = scores.shape[0]
    m = math.ceil(fraction * (n - 1))
    if m < 1:
        raise ValueError("subset size is zero")
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


def subsampled_centrality(
    pool: ModelPool,
    similarity: np.ndarray,
    fraction: float = 0.8,
    trials: int = 100,
    seed=0,
) -> SelectionReport:
    """Centrality scores where each row mean uses a random subset of the others.

    similarity is model_centrality's matrix for the pool; only the averaging
    is resampled, per model and per trial.
    """
    means, stderr = _subsampled_row_means(similarity, fraction, trials, seed)
    return SelectionReport("model_centrality", means, stderr, pool.labels)


# ---------------------------------------------------------------------------
# pairwise-relevance baselines


def _pool_relevance(
    encoders, samples: np.ndarray, variant: str, lasso_lambda: float
) -> np.ndarray:
    """(N, N, k, k) relevances; block [i, j] scores encoder j's codes for encoder i's.

    Each encoder runs once. Its codes are standardized (lasso) or ranked
    (spearman) into one (n, N·k) array, and one cross-product of that array
    serves every pair. Lasso: pair (i, j) regresses each code of i on the
    codes of j, so its Gram matrix is block (j, j) of ZᵀZ/n and its cross
    term block (j, i); all N(N-1)·k fits share one solver call. Spearman:
    |ρ| of every code pair from one _rank_correlations call, 0 for a
    constant code.
    """
    if variant not in UDR_VARIANTS:
        raise ValueError(f"variant must be one of {UDR_VARIANTS}, got {variant!r}")
    x = np.asarray(samples, dtype=float)
    n_models = len(encoders)
    k = encoders[0].code_dim
    n = x.shape[0]
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} samples for {k} codes, got {n}")
    cols = np.empty((n, n_models * k))
    for m, enc in enumerate(encoders):
        codes = enc.encode(x)
        if codes.shape[1] != k:
            raise ValueError(f"encoders disagree on code dimension: {k} vs {codes.shape[1]}")
        dead = [a for a in range(k) if np.ptp(codes[:, a]) == 0.0]
        if dead:
            warnings.warn(
                f"encoder {m} has zero-variance codes {dead}; "
                "their relevance rows/columns are zeroed"
            )
        block = cols[:, m * k:(m + 1) * k]
        if variant == "lasso":
            block[:] = _standardize_columns(codes)
        else:
            for a in range(k):
                block[:, a] = _fractional_ranks(codes[:, a])
    if variant == "spearman":
        rho = np.nan_to_num(np.abs(_rank_correlations(cols)))  # a constant code scores 0
        return rho.reshape(n_models, k, n_models, k).transpose(0, 2, 1, 3)
    blocks = (cols.T @ cols / n).reshape(n_models, k, n_models, k)
    others = [[i for i in range(n_models) if i != j] for j in range(n_models)]
    gram = np.stack([blocks[j, :, j] for j in range(n_models)])
    cross = np.stack([blocks[j][:, others[j]].reshape(k, -1) for j in range(n_models)])
    w = lasso_gram_fit(gram, cross, lasso_lambda)
    relevance = np.zeros((n_models, n_models, k, k))
    for j in range(n_models):
        relevance[others[j], j] = np.abs(w[j].reshape(k, n_models - 1, k).transpose(1, 2, 0))
    return relevance


def udr_relevance(
    q_i: Encoder,
    q_j: Encoder,
    samples: np.ndarray,
    variant: str = "lasso",
    lasso_lambda: float = LASSO_LAMBDA,
) -> np.ndarray:
    """k×k nonnegative relevance of q_j's codes for predicting q_i's codes.

    The lasso variant regresses each (standardized) code of q_i on all
    (standardized) codes of q_j; the spearman variant takes absolute rank
    correlations. Zero-variance codes produce zero rows/columns with a
    warning.
    """
    return _pool_relevance((q_i, q_j), samples, variant, lasso_lambda)[0, 1]


def udr_score(relevance):
    """Row/column peakedness of nonnegative k×k relevance matrices, in [0, 1].

    relevance is one (k, k) matrix or a (..., k, k) stack of them. The
    result has the leading shape: a float for one matrix, an array of one
    score per matrix for a stack. The reduction runs over a C-contiguous
    copy, so a matrix scores bit for bit the same alone, in a stack, or as
    a strided view.
    """
    r = np.ascontiguousarray(relevance, dtype=float)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {r.shape}")
    if np.any(r < 0.0):
        raise ValueError("relevance entries must be nonnegative")
    rows = (r.max(axis=-1) / (r.sum(axis=-1) + UDR_EPS)).mean(axis=-1)
    cols = (r.max(axis=-2) / (r.sum(axis=-2) + UDR_EPS)).mean(axis=-1)
    return 0.5 * (rows + cols)


def udr_pair_scores(
    pool: ModelPool,
    samples: np.ndarray,
    variant: str = "lasso",
    lasso_lambda: float = LASSO_LAMBDA,
) -> np.ndarray:
    """All-pairs relevance scores; entry (i, j) scores encoder i probed by j.

    The diagonal, each model against itself, is zero.
    """
    encoders = [pool.encoder(m) for m in range(pool.size)]
    pair_scores = udr_score(_pool_relevance(encoders, samples, variant, lasso_lambda))
    np.fill_diagonal(pair_scores, 0.0)
    return pair_scores


def udr_select(
    pool: ModelPool,
    pair_scores: np.ndarray,
    variant: str = "lasso",
    fraction: float = 1.0,
    trials: int = 1,
    seed=0,
) -> SelectionReport:
    """Rank pool models by their mean pairwise relevance score against the rest.

    pair_scores is udr_pair_scores' matrix for the pool; the averaging (and
    any subsampling) runs on top of it.
    """
    means, stderr = _subsampled_row_means(pair_scores, fraction, trials, seed)
    return SelectionReport(f"udr_{variant}", means, stderr, pool.labels)


def rank_correlation_analysis(metric_vectors) -> SymMatrix:
    """Pairwise rank correlation of named score vectors; NaN marks undefined cells."""
    vectors = [np.asarray(values, dtype=float) for _, values in metric_vectors]
    lengths = {v.shape for v in vectors}
    if len(lengths) != 1 or vectors[0].ndim != 1 or vectors[0].size < 2:
        raise ValueError(f"metric vectors must share one length of at least 2, got {lengths}")
    return SymMatrix(_rank_correlations(np.column_stack([_fractional_ranks(v) for v in vectors])))


def noisy_linear_pool(
    sigma: SymMatrix, r: int, noise_levels, seed=0, noise_scale=1.0
) -> ModelPool:
    """Pool sharing one exact top-r generator, with encoder noise per model.

    The generator's code map is the closed-form optimum (top-r eigenvectors
    scaled by their eigenvalues); model m's encoder perturbs the exact
    posterior-mean map W by noise_level·noise_scale·(‖W‖_F/√W.size)·G with
    G standard normal under a per-model seed.  At noise_scale=1 a unit level
    matches the root-mean-square entry of W; majority-vote metrics barely
    react until the perturbation is a few times that, so pools meant to span
    a metric's dynamic range should raise noise_scale rather than stretch
    the level grid.
    """
    noise_scale = float(noise_scale)
    if noise_scale < 0.0:
        raise ValueError(f"noise_scale must be nonnegative, got {noise_scale}")
    w, v = eig_sym(sigma)
    code_map = v[:, :r] * np.sqrt(w[:r])
    gen = matched_generator(sigma, code_map)
    base = posterior(gen).mean_map
    scale = noise_scale * float(np.linalg.norm(base)) / math.sqrt(base.size)
    entries = []
    for m, level in enumerate(noise_levels):
        level = float(level)
        if level < 0.0:
            raise ValueError(f"noise levels must be nonnegative, got {level}")
        noise_rng = np.random.default_rng(np.random.SeedSequence([seed, m]))
        weight = base + level * scale * noise_rng.standard_normal(base.shape)
        entries.append((gen, LinearEncoder(weight), f"noise_{level:g}"))
    return ModelPool(tuple(entries))
