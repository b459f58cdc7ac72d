"""Disentanglement and sample-quality metrics over encoded factor datasets.

The vote-based factor metric, Lasso-importance disentanglement (DCI), the
kernel independence score dHSIC, inception score, and reverse KL all operate
on plain arrays plus a small Encoder interface, so closed-form linear models
and table fixtures exercise the same code paths. Spearman rank correlation
and a covariance-update coordinate-descent Lasso solver are shared
statistical kernels.
"""
from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .contrastive import DiscreteDistributionFamily, js_divergence
from .errors import DegenerateEncoder, NumericFailure
from .lingauss import LinearGenerator, posterior

LASSO_TOL = 1e-10
LASSO_MAX_ITERS = 100_000
_ZERO_STD_TOL = 1e-15
# Rows of the joint-kernel buffers in dhsic: two (block, n) float64 arrays.
_DHSIC_BLOCK = 32


# ---------------------------------------------------------------------------
# datasets and encoders


@dataclass(frozen=True)
class FactorDataset:
    """Samples paired row-by-row with finite ground-truth factor values."""

    samples: np.ndarray  # (n, p)
    factors: np.ndarray  # (n, k_hat)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        f = np.asarray(self.factors, dtype=float)
        if s.ndim != 2 or f.ndim != 2:
            raise ValueError("samples and factors must be 2-d arrays")
        if s.shape[0] != f.shape[0] or s.shape[0] < 1:
            raise ValueError(
                f"need equal, positive row counts, got {s.shape[0]} and {f.shape[0]}"
            )
        for name, m in (("samples", s), ("factors", f)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} hold non-finite entries")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "factors", f)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_dim(self) -> int:
        return self.samples.shape[1]

    @property
    def n_factors(self) -> int:
        return self.factors.shape[1]

    def save(self, directory) -> None:
        """Write samples.csv and factors.csv with aligned row indices."""
        directory = Path(directory)
        _write_matrix_csv(directory / "samples.csv", "x", self.samples)
        _write_matrix_csv(directory / "factors.csv", "c", self.factors)

    @classmethod
    def load(cls, directory) -> "FactorDataset":
        directory = Path(directory)
        samples = _read_matrix_csv(directory / "samples.csv")
        factors = _read_matrix_csv(directory / "factors.csv")
        return cls(samples, factors)


def _write_matrix_csv(path: Path, prefix: str, m: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"{prefix}{j}" for j in range(m.shape[1])])
        for row in m:
            writer.writerow([f"{v:.17g}" for v in row])


def _read_matrix_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.asarray([[float(v) for v in row] for row in rows[1:]], dtype=float)


class Encoder:
    """Deterministic map from sample vectors to code vectors."""

    @property
    def code_dim(self) -> int:
        raise NotImplementedError

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Encode a batch of samples, one row per sample."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearEncoder(Encoder):
    """Codes are weight @ sample; rows of weight define the code dimensions."""

    weight: np.ndarray  # (k, p)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weight must be a k x p matrix, got shape {w.shape}")
        object.__setattr__(self, "weight", w)

    @classmethod
    def from_generator(cls, gen: LinearGenerator) -> "LinearEncoder":
        """The generator's own posterior-mean map x -> Bᵀ Σ⁻¹ x."""
        return cls(posterior(gen).mean_map)

    @property
    def code_dim(self) -> int:
        return self.weight.shape[0]

    def encode(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weight.T


@dataclass(frozen=True)
class FunctionEncoder(Encoder):
    """Wraps an arbitrary batch map, e.g. a table lookup over test fixtures."""

    fn: object  # callable (n, p) -> (n, k)
    dim: int

    @property
    def code_dim(self) -> int:
        return self.dim

    def encode(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if out.ndim != 2 or out.shape[1] != self.dim:
            raise ValueError(f"encoder map returned shape {out.shape}, expected (n, {self.dim})")
        return out


@dataclass(frozen=True)
class PseudoNoiseEncoder(Encoder):
    """Codes that depend on the sample bytes only through a hash.

    Deterministic across runs yet statistically unrelated to any factor: the
    chance-level fixture for vote-based metrics.
    """

    dim: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.dim <= 8:
            raise ValueError(f"code dimension must be in 1..8, got {self.dim}")

    @property
    def code_dim(self) -> int:
        return self.dim

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        key = str(self.seed).encode()
        out = np.empty((x.shape[0], self.dim))
        for i in range(x.shape[0]):
            digest = hashlib.blake2b(
                x[i].tobytes(), digest_size=8 * self.dim, key=key
            ).digest()
            out[i] = np.frombuffer(digest, dtype="<u8") / 2.0**64
        return out


@dataclass(frozen=True)
class TransformedEncoder(Encoder):
    """Base encoder with its codes permuted and rescaled."""

    base: Encoder
    permutation: tuple[int, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        k = self.base.code_dim
        if sorted(self.permutation) != list(range(k)):
            raise ValueError(f"permutation must rearrange 0..{k - 1}")
        if len(self.scales) != k:
            raise ValueError(f"expected {k} scales, got {len(self.scales)}")

    @property
    def code_dim(self) -> int:
        return self.base.code_dim

    def encode(self, x: np.ndarray) -> np.ndarray:
        codes = self.base.encode(x)
        return codes[:, self.permutation] * np.asarray(self.scales)


# ---------------------------------------------------------------------------
# group samplers for the vote-based metric


class GroupSampler:
    """Sampling interface producing reference batches and fixed-factor groups."""

    @property
    def n_factors(self) -> int:
        raise NotImplementedError

    def sample_reference(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n unconstrained samples, one row each."""
        raise NotImplementedError

    def sample_groups(
        self, factor: int, groups: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """(groups, size, p) samples; each group shares one value of the factor.

        The random stream is consumed group by group, so the result equals
        that many successive single-group draws from the same generator.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class GeneratorSampler(GroupSampler):
    """Groups drawn from a linear generator, its latent codes as ground truth."""

    gen: LinearGenerator

    @property
    def n_factors(self) -> int:
        return self.gen.r

    def _push(self, c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((c.shape[0], self.gen.d))
        return c @ self.gen.B.T + z @ self.gen.A.T

    def sample_reference(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._push(rng.standard_normal((n, self.gen.r)), rng)

    def sample_groups(
        self, factor: int, groups: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        # Per group the stream holds the codes, the fixed-factor value, then z.
        r, d = self.gen.r, self.gen.d
        draw = rng.standard_normal((groups, size * r + 1 + size * d))
        c = draw[:, : size * r].reshape(groups * size, r)
        c[:, factor] = np.repeat(draw[:, size * r], size)
        z = draw[:, size * r + 1 :].reshape(groups * size, d)
        return (c @ self.gen.B.T + z @ self.gen.A.T).reshape(groups, size, d)

    def sample_group(self, factor: int, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_groups(factor, 1, size, rng)[0]


@dataclass(frozen=True)
class SyntheticFactorSampler(GroupSampler):
    """Uniform factors on [-1, 1] pushed through an arbitrary map (default: identity)."""

    k: int
    transform: object = None  # callable (n, k) -> (n, p)

    @property
    def n_factors(self) -> int:
        return self.k

    def _push(self, f: np.ndarray) -> np.ndarray:
        if self.transform is None:
            return f
        return np.asarray(self.transform(f), dtype=float)

    def sample_reference(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._push(rng.uniform(-1.0, 1.0, size=(n, self.k)))

    def sample_groups(
        self, factor: int, groups: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        # Per group the stream holds the factors, then the fixed-factor value.
        draw = rng.uniform(-1.0, 1.0, size=(groups, size * self.k + 1))
        f = draw[:, : size * self.k].reshape(groups * size, self.k)
        f[:, factor] = np.repeat(draw[:, size * self.k], size)
        return self._push(f).reshape(groups, size, -1)

    def sample_group(self, factor: int, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_groups(factor, 1, size, rng)[0]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class MetricReport:
    """Named scalar score with optional per-dimension breakdown and pair matrix."""

    name: str
    score: float
    detail: tuple[tuple[str, float], ...] = ()
    matrix: np.ndarray | None = None


# ---------------------------------------------------------------------------
# vote-based factor metric


@dataclass(frozen=True)
class FactorVaeConfig:
    """Sample counts for the vote-based metric evaluation."""

    groups_per_factor: int = 100
    group_size: int = 100
    reference_samples: int = 10_000
    variance_floor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name in ("groups_per_factor", "group_size", "reference_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.variance_floor > 0.0:
            raise ValueError("variance_floor must be positive")


def factorvae_metric(
    sampler: GroupSampler, enc: Encoder, cfg: FactorVaeConfig
) -> MetricReport:
    """Majority-vote factor classification accuracy from argmin-variance votes.

    Per group (one factor fixed), every member is encoded, each code dimension
    is normalized by its reference-batch variance, and the group votes for the
    dimension with the smallest normalized variance. A majority classifier
    maps each vote to the factor it most frequently co-occurs with; the score
    is that classifier's accuracy. Dimensions whose reference variance falls
    below the floor are excluded from voting.

    All groups of one factor are drawn and encoded in one batch. For a
    generator sampler that batch holds G·S·(r+1+d) normals plus the (G·S, p)
    samples and their codes, about 8 MB at G = S = 100, r = 12, d = 16.
    """
    k_hat = sampler.n_factors
    k = enc.code_dim
    if k < k_hat:
        raise ValueError(f"encoder has {k} codes but {k_hat} factors need votes")
    rng = np.random.default_rng(cfg.seed)
    ref_codes = enc.encode(sampler.sample_reference(cfg.reference_samples, rng))
    ref_var = ref_codes.var(axis=0)
    active = ref_var >= cfg.variance_floor
    if not np.any(active):
        raise DegenerateEncoder(
            f"all {k} code dimensions fall below the variance floor {cfg.variance_floor}"
        )
    groups, size = cfg.groups_per_factor, cfg.group_size
    votes = np.zeros((k, k_hat))
    for factor in range(k_hat):
        stack = sampler.sample_groups(factor, groups, size, rng)
        codes = enc.encode(stack.reshape(groups * size, -1)).reshape(groups, size, k)
        ratio = np.full((groups, k), np.inf)
        ratio[:, active] = codes.var(axis=1)[:, active] / ref_var[active]
        votes[:, factor] = np.bincount(ratio.argmin(axis=1), minlength=k)
    score = float(votes.max(axis=1).sum() / votes.sum())
    majority = votes.argmax(axis=1)
    per_factor = np.zeros(k_hat)
    for j in range(k):
        per_factor[majority[j]] += votes[j, majority[j]]
    detail = tuple(
        (f"factor_{i}_accuracy", float(per_factor[i] / cfg.groups_per_factor))
        for i in range(k_hat)
    )
    return MetricReport("factorvae", score, detail, votes)


def metric_matrix_reduction(m: np.ndarray, normalized: bool = True) -> float:
    """Sum of the top k̂ row maxima of a k×k̂ score matrix, optionally / k̂."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    k, k_hat = m.shape
    if k < k_hat:
        raise ValueError(f"need at least as many codes as factors, got {k} < {k_hat}")
    row_max = np.sort(m.max(axis=1))[::-1]
    total = float(row_max[:k_hat].sum())
    return total / k_hat if normalized else total


# ---------------------------------------------------------------------------
# Lasso-importance disentanglement


def _standardize_columns(m: np.ndarray) -> np.ndarray:
    centered = m - m.mean(axis=0)
    std = centered.std(axis=0)
    out = np.zeros_like(centered)
    live = std > _ZERO_STD_TOL
    out[:, live] = centered[:, live] / std[live]
    return out


def dci_disentanglement(
    ds: FactorDataset, enc: Encoder, lasso_lambda: float = 0.01
) -> MetricReport:
    """Disentanglement from Lasso relevance: D_i = 1 - H(W_i), H in base k̂.

    R[i, j] is the absolute Lasso coefficient of code i when regressing
    (standardized) factor j on all (standardized) codes; W normalizes each
    code's row. Codes with an all-zero relevance row carry no information and
    are excluded from the average with a warning.
    """
    k_hat = ds.n_factors
    if k_hat < 2:
        raise ValueError("need at least 2 factors for a meaningful entropy base")
    codes = enc.encode(ds.samples)
    k = codes.shape[1]
    if ds.n < 10 * k:
        raise ValueError(f"need at least {10 * k} rows to regress {k} codes, got {ds.n}")
    x = _standardize_columns(codes)
    y = _standardize_columns(ds.factors)
    relevance = np.abs(lasso_fit(x, y, lasso_lambda))
    row_sum = relevance.sum(axis=1)
    live = row_sum > 0.0
    if not np.any(live):
        raise DegenerateEncoder("every code has zero relevance to every factor")
    if not np.all(live):
        dead = [i for i in range(k) if not live[i]]
        warnings.warn(f"codes {dead} have all-zero relevance rows and are excluded")
    w = relevance[live] / row_sum[live, None]
    entropy = np.where(w > 0.0, -w * np.log(np.where(w > 0.0, w, 1.0)), 0.0).sum(axis=1)
    per_code = 1.0 - entropy / math.log(k_hat)
    score = float(per_code.mean())
    live_idx = [i for i in range(k) if live[i]]
    detail = tuple(
        (f"code_{i}_disentanglement", float(d)) for i, d in zip(live_idx, per_code)
    )
    return MetricReport("dci", score, detail, relevance)


# ---------------------------------------------------------------------------
# independence and sample-quality scores


def _pair_ends(xs: np.ndarray, t: float) -> np.ndarray:
    """For each i, the first j with xs[j] - xs[i] > t, over sorted xs and rounded differences.

    searchsorted against the rounded xs + t finds the end up to rounding at
    the boundary; the steps after it move each end until it agrees with the
    rounded differences themselves, which are the values np.median sorts.
    """
    n = xs.size
    ends = np.searchsorted(xs, xs + t, side="right")
    while (step := xs[ends - 1] - xs > t).any():  # the last j counted is too far
        ends -= step
    while (step := (ends < n) & (xs[np.minimum(ends, n - 1)] - xs <= t)).any():
        ends += step  # the first j left out is near enough
    return ends


def _pairs_within(xs: np.ndarray, ends: np.ndarray) -> int:
    """Number of pairs i < j counted by _pair_ends."""
    return int(ends.sum()) - xs.size * (xs.size + 1) // 2


def _median_pair_distance(xs: np.ndarray) -> float:
    """np.median of |xᵢ - xⱼ| over i < j for sorted finite xs, without forming the pairs.

    Non-negative float64 values order as their bit patterns do, so a bisection
    over the bits of t finds the smallest t with more than `rank` pairs at
    distance <= t: the rank-th smallest distance, exactly. An even pair count
    also takes the smallest distance above it, and the two are averaged as
    np.median averages them.
    """
    pairs = xs.size * (xs.size - 1) // 2
    rank = (pairs - 1) // 2
    lo, hi = 0, int(np.float64(xs[-1] - xs[0]).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if _pairs_within(xs, _pair_ends(xs, np.int64(mid).view(np.float64))) > rank:
            hi = mid
        else:
            lo = mid + 1
    low = float(np.int64(lo).view(np.float64))
    if pairs % 2:
        return low
    ends = _pair_ends(xs, low)
    if _pairs_within(xs, ends) > rank + 1:
        return low
    above = ends < xs.size
    high = float((xs[ends[above]] - xs[above]).min())
    return (low + high) / 2


def _laplace_row_sums(xs: np.ndarray, h2: float) -> np.ndarray:
    """Σⱼ exp(-|xᵢ - xⱼ| / h2) for each i of sorted xs, in O(n).

    The sum over j <= i obeys s_i = 1 + exp(-(xᵢ - xᵢ₋₁)/h2)·s_{i-1}, and the
    sum over j >= i the mirror recursion; every factor is at most 1. Chaining
    rounded factors costs accuracy: at n=3000 the sums are within about 1e-14
    relative of direct summation, not 3e-16.
    """

    def step(s: float, d: float) -> float:
        return 1.0 + d * s

    decay = np.exp(-np.diff(xs) / h2).tolist()
    below = np.fromiter(accumulate(decay, step, initial=1.0), float, xs.size)
    above = np.fromiter(accumulate(decay[::-1], step, initial=1.0), float, xs.size)
    return below + above[::-1] - 1.0


def dhsic(samples: np.ndarray) -> float:
    """Kernel independence score of the columns of an n×k sample matrix.

    Per coordinate the kernel is exp(-|xᵢ - xⱼ| / h²) with h the median of
    the pairwise distances of that coordinate; a zero median falls back to
    bandwidth 1.0 with a warning. Returns the three-term estimator
    (1/n²)ΣᵢⱼΠ K + (1/n^{2k})Π Σᵢⱼ K - (2/n^{k+1})Σᵢ Π Σⱼ K.

    No n×n array is formed: the medians come from selection over each sorted
    coordinate, the marginal sums from O(n) recursions, and the joint kernel
    from blocks of _DHSIC_BLOCK rows, so memory is O(n·block) and time
    O(n²·k). Non-finite samples raise ValueError.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ValueError(f"need an n x k matrix with n >= 2, k >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples hold non-finite entries")
    n, k = x.shape
    cols = np.ascontiguousarray(x.T)
    h2 = np.empty(k)
    product_term = 1.0
    row_products = np.ones(n)
    for col in range(k):
        order = np.argsort(cols[col], kind="stable")
        xs = cols[col, order]
        h = _median_pair_distance(xs)
        if h == 0.0:
            warnings.warn(f"coordinate {col} has zero median distance; bandwidth set to 1.0")
            h = 1.0
        h2[col] = h * h
        sums = _laplace_row_sums(xs, h2[col])
        product_term *= sums.sum() / (n * n)
        row_products[order] *= sums / n
    # Σᵢⱼ over the upper block triangle: each diagonal block once, the blocks
    # right of it twice.
    exponent = np.empty((_DHSIC_BLOCK, n))
    work = np.empty((_DHSIC_BLOCK, n))
    joint = 0.0
    for start in range(0, n, _DHSIC_BLOCK):
        size = min(_DHSIC_BLOCK, n - start)
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
    t1 = joint / (n * n)
    t3 = 2.0 * row_products.mean()
    return float(t1 + product_term - t3)


def inception_score(p: np.ndarray) -> float:
    """exp(mean KL(row ‖ column mean)) of an n×L row-stochastic matrix.

    The exponent is the generalized Jensen-Shannon divergence of the rows.
    """
    return math.exp(js_divergence(DiscreteDistributionFamily(p)))


def reverse_kl(gen_counts, true_counts, smoothing: float = 1e-9) -> float:
    """KL(generated label law ‖ true label law) after additive count smoothing."""
    g = np.asarray(gen_counts, dtype=float)
    t = np.asarray(true_counts, dtype=float)
    if g.shape != t.shape or g.ndim != 1:
        raise ValueError("count vectors must share one length")
    if np.any(g < 0.0) or np.any(t < 0.0) or g.sum() <= 0.0 or t.sum() <= 0.0:
        raise ValueError("counts must be nonnegative with a positive total each")
    g = g + smoothing
    t = t + smoothing
    g /= g.sum()
    t /= t.sum()
    return float(np.sum(g * np.log(g / t)))


# ---------------------------------------------------------------------------
# statistical kernels


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    average = starts + (counts + 1) / 2.0
    return average[inverse]


def spearman_rho(a, b) -> float:
    """Pearson correlation of fractional ranks; NaN when either side is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    ra = _fractional_ranks(a)
    rb = _fractional_ranks(b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        return math.nan
    return float(da @ db) / denom


def lasso_gram_fit(
    gram: np.ndarray,
    cross: np.ndarray,
    lam: float,
    max_iters: int = LASSO_MAX_ITERS,
    tol: float = LASSO_TOL,
) -> np.ndarray:
    """Lasso weights for a stack of designs, each shared by several targets.

    gram (P, q, q) holds XᵀX/n of each design and cross (P, q, T) holds XᵀY/n
    of its T targets; the result (P, q, T) minimizes (1/2n)‖y - Xw‖² + λ‖w‖₁
    for every (design, target) pair. Covariance-update coordinate descent
    (Friedman, Hastie & Tibshirani 2010, §2.2) keeps g = Xᵀ(y - Xw)/n, so a
    sweep costs O(q²) per fit whatever n is. Coordinates are visited in
    order and a zero column (zero Gram diagonal) is never moved. Each fit is
    frozen after the first sweep whose largest |Δw| is below tol; a fit still
    running after max_iters sweeps raises NumericFailure.
    """
    gram = np.asarray(gram, dtype=float)
    cross = np.asarray(cross, dtype=float)
    if cross.ndim != 3 or gram.shape != (cross.shape[0], cross.shape[1], cross.shape[1]):
        raise ValueError(f"incompatible shapes {gram.shape} and {cross.shape}")
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    p, q, t = cross.shape
    out = np.zeros((p * t, q))
    # One row per (design, target) fit; rows are dropped as their fits converge.
    fit = np.arange(p * t)
    design = fit // t
    grad = cross.transpose(0, 2, 1).reshape(p * t, q).copy()
    w = np.zeros((p * t, q))
    diag = np.diagonal(gram, axis1=1, axis2=2)[design]
    scale = np.where(diag > 0.0, diag, np.inf)
    gram_cols = np.ascontiguousarray(gram.transpose(0, 2, 1))
    worst = np.full(p * t, np.inf)
    for _ in range(max_iters):
        if fit.size == 0:
            break
        worst = np.zeros(fit.size)
        for j in range(q):
            rho = grad[:, j] + diag[:, j] * w[:, j]
            shrunk = np.abs(rho) - lam
            new = np.where(shrunk > 0.0, np.copysign(shrunk, rho), 0.0) / scale[:, j]
            delta = new - w[:, j]
            w[:, j] = new
            grad -= gram_cols[design, j] * delta[:, None]
            np.maximum(worst, np.abs(delta), out=worst)
        done = worst < tol
        if np.any(done):
            out[fit[done]] = w[done]
            keep = ~done
            fit, design, grad, w, diag, scale, worst = (
                a[keep] for a in (fit, design, grad, w, diag, scale, worst)
            )
    if fit.size:
        raise NumericFailure(
            f"coordinate descent left {fit.size} of {p * t} fits unconverged after "
            f"{max_iters} sweeps; largest final |Δw| {worst.max():.3g} (tol {tol:g})"
        )
    return out.reshape(p, t, q).transpose(0, 2, 1)


def lasso_fit(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    max_iters: int = LASSO_MAX_ITERS,
    tol: float = LASSO_TOL,
) -> np.ndarray:
    """Coordinate-descent minimizer of (1/2n)‖y - Xw‖² + λ‖w‖₁.

    Columns are used exactly as given — no internal standardization — so the
    univariate closed form w = soft(xᵀy/n, λ)/(xᵀx/n) holds verbatim. A y of
    shape (n, T) gives weights (q, T), one fit per column, solved together.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim not in (1, 2) or x.shape[0] != y.shape[0] or x.shape[0] < 1:
        raise ValueError(f"incompatible shapes {x.shape} and {y.shape}")
    n, q = x.shape
    cross = (x.T @ y / n).reshape(1, q, -1)
    w = lasso_gram_fit((x.T @ x / n)[None], cross, lam, max_iters, tol)[0]
    return w[:, 0] if y.ndim == 1 else w
