"""Unsupervised model selection over pools of (generator, encoder) pairs.

A pool is two parallel lists, its generators and its encoders, and its
encoders share one code dimension; UDR reads only the encoders. Every
method reduces a pool to an N×N pair matrix and ranks models by its
off-diagonal row means, returned with their subsampled standard errors as
plain (scores, stderr) arrays; the selection is the argmax of the scores.
Centrality (arXiv 1906.06034) fills the matrix with vote-metric
cross-scores of each encoder against every other model's generator and
symmetrizes it: well-disentangled models land close together while poor
ones scatter. UDR (Duan et al. 2020) fills it with the
peakedness of pairwise code-relevance matrices (Lasso or Spearman). UDR's
Spearman variant and the cross-metric rank-correlation analysis both call
the one Spearman kernel in metrics.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .lasso import lasso_gram_fit
from .linalg import symmetrized
from .lingauss import LinearGenerator
from .metrics import (
    LASSO_LAMBDA,
    FactorVaeConfig,
    LinearEncoder,
    _fractional_ranks,
    _rank_correlations,
    _standardize_columns,
    factorvae_metric,
)

UDR_EPS = 1e-12
UDR_VARIANTS = ("lasso", "spearman")


def cross_score(
    enc: LinearEncoder, gen: LinearGenerator, cfg: FactorVaeConfig, seed: int
) -> float:
    """Vote-metric score of encoder enc against groups generated by gen, drawn under seed.

    The generator's own latent codes act as ground-truth factors, so the value
    measures how well enc recovers the code structure of gen.
    """
    return factorvae_metric(gen, enc, cfg, seed).score


def _pair_seed(master: int, i: int, j: int) -> int:
    return int(np.random.SeedSequence([master, i, j]).generate_state(1)[0])


def model_centrality(
    generators,
    encoders,
    cfg: FactorVaeConfig,
    seed: int,
    metric=cross_score,
    threads: int = 1,
) -> np.ndarray:
    """Symmetrized cross-score matrix 0.5·(A + Aᵀ) of a pool, zero on the diagonal.

    Model m of the pool is (generators[m], encoders[m]). A[i, j] is
    metric(encoders[i], generators[j], cfg, s), where s is the pair's own
    seed derived from (seed, i, j), so the matrix is identical for any
    evaluation order or thread count. Its off-diagonal row means are the
    centrality scores; subsampled_centrality ranks by them.
    """
    n = len(encoders)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    a = np.zeros((n, n))

    def fill(share):
        for i, j in share:
            a[i, j] = metric(encoders[i], generators[j], cfg, _pair_seed(seed, i, j))

    # The calling thread takes one share itself, so the work stays on the
    # thread that receives signals. At threads=1 it takes every pair, and
    # neither an executor nor concurrent.futures is loaded. No more shares
    # are made than there are pairs.
    threads = min(threads, len(pairs))
    if threads == 1:
        fill(pairs)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as executor:
            shares = [executor.submit(fill, pairs[t::threads]) for t in range(1, threads)]
            fill(pairs[::threads])
            for share in shares:
                share.result()
    return symmetrized(a)


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
    # Draw j from the n - 1 others of row i, then skip i: the stream of
    # rng.choice over the others themselves.
    subsets = np.array([
        [rng.choice(n - 1, size=m, replace=False) for _ in range(n)] for _ in range(trials)
    ])
    subsets += subsets >= np.arange(n)[:, None]
    subsets.sort(axis=2)
    # A sum over the contiguous last axis rounds as the 1-D sum of one row.
    per_trial = np.take_along_axis(scores[None], subsets, axis=2).sum(axis=2) / m
    identical = np.all(per_trial == per_trial[0], axis=0)
    means = np.where(identical, per_trial[0], per_trial.mean(axis=0))
    stderr = np.where(identical, 0.0, per_trial.std(axis=0) / math.sqrt(trials))
    return means, stderr


def subsampled_centrality(
    similarity: np.ndarray, fraction: float = 1.0, trials: int = 1, seed=0
) -> tuple[np.ndarray, np.ndarray]:
    """Centrality scores and standard errors: each row mean over a random subset of the others.

    similarity is model_centrality's matrix for the pool; only the averaging
    is resampled, per model and per trial.
    """
    return _subsampled_row_means(similarity, fraction, trials, seed)


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
    q_i: LinearEncoder,
    q_j: LinearEncoder,
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
    encoders,
    samples: np.ndarray,
    variant: str = "lasso",
    lasso_lambda: float = LASSO_LAMBDA,
) -> np.ndarray:
    """All-pairs relevance scores of a pool; entry (i, j) scores encoder i probed by j.

    The diagonal, each model against itself, is zero.
    """
    pair_scores = udr_score(_pool_relevance(encoders, samples, variant, lasso_lambda))
    np.fill_diagonal(pair_scores, 0.0)
    return pair_scores


def udr_select(
    pair_scores: np.ndarray, fraction: float = 1.0, trials: int = 1, seed=0
) -> tuple[np.ndarray, np.ndarray]:
    """Each model's mean pairwise relevance score against the rest, and its standard error.

    pair_scores is udr_pair_scores' matrix for the pool; the averaging (and
    any subsampling) runs on top of it.
    """
    return _subsampled_row_means(pair_scores, fraction, trials, seed)


def rank_correlation_analysis(metric_vectors) -> np.ndarray:
    """Pairwise rank correlation of named score vectors, symmetrized; NaN marks undefined cells."""
    vectors = [np.asarray(values, dtype=float) for _, values in metric_vectors]
    lengths = {v.shape for v in vectors}
    if len(lengths) != 1 or vectors[0].ndim != 1 or vectors[0].size < 2:
        raise ValueError(f"metric vectors must share one length of at least 2, got {lengths}")
    return symmetrized(
        _rank_correlations(np.column_stack([_fractional_ranks(v) for v in vectors]))
    )
