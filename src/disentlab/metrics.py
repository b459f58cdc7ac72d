"""Disentanglement metrics of linear encoders.

The vote-based factor metric scores a LinearEncoder against groups drawn
from a linear generator, forming its codes from the latent draws.
Lasso-importance disentanglement (DCI) and the kernel independence score
dHSIC work on plain arrays: the encoder's codes of a factor dataset. One
Spearman kernel over columns of fractional ranks serves spearman_rho,
UDR-Spearman and the rank-correlation analysis, and one Lasso solver
(lasso.py) serves DCI and UDR-Lasso.
"""
from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateEncoder
from .lasso import lasso_fit
from .lingauss import LinearGenerator, posterior

LASSO_LAMBDA = 0.01  # the λ of DCI and UDR-Lasso unless a config sets it
_ZERO_STD_TOL = 1e-15
# Rows per block of dhsic's joint kernel sum; each block's sum is one group
# of the total, so this fixes the result's bits.
_DHSIC_BLOCK = 32
# Most doubles per row chunk of a dhsic joint block (512 KiB), which stays in
# cache across the coordinates.
_DHSIC_CHUNK = 65536
# Points per block of the marginal kernel sums in dhsic.
_LAPLACE_BLOCK = 64


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

    def csv_files(self) -> dict[str, bytes]:
        """samples.csv and factors.csv with aligned row indices, by file name."""
        return {"samples.csv": _matrix_csv("x", self.samples),
                "factors.csv": _matrix_csv("c", self.factors)}

    def save(self, directory) -> None:
        """Write the files of csv_files into an existing directory."""
        for name, data in self.csv_files().items():
            (Path(directory) / name).write_bytes(data)

    @classmethod
    def load(cls, directory) -> "FactorDataset":
        directory = Path(directory)
        samples = _read_matrix_csv(directory / "samples.csv")
        factors = _read_matrix_csv(directory / "factors.csv")
        return cls(samples, factors)


def _matrix_csv(prefix: str, m: np.ndarray) -> bytes:
    # "%.17g" formats exactly as f"{v:.17g}" does, one row per C call.
    row = ",".join(["%.17g"] * m.shape[1])
    header = ",".join(f"{prefix}{j}" for j in range(m.shape[1]))
    body = "\n".join([row % tuple(values) for values in m.tolist()])
    return f"{header}\n{body}\n".encode()


def _read_matrix_csv(path: Path) -> np.ndarray:
    """The rows below the header line, parsed correctly rounded by np.loadtxt.

    np.loadtxt would skip a blank line and only warn on a file without data
    rows, so both are rejected here first; a ragged row, an unparsable cell
    or a '#' in a cell (comments=None) raise from np.loadtxt itself.
    """
    text = path.read_text()
    if "\n\n" in text:
        raise ValueError(f"{path.name} holds a blank line")
    if not text.partition("\n")[2]:
        raise ValueError(f"{path.name} holds no data rows")
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2, comments=None)


@dataclass(frozen=True)
class LinearEncoder:
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
        return cls(posterior(gen))

    @property
    def code_dim(self) -> int:
        return self.weight.shape[0]

    def encode(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weight.T


# ---------------------------------------------------------------------------
# group sampler for the vote-based metric


@dataclass(frozen=True)
class GeneratorSampler:
    """Groups drawn from a linear generator, its latent codes as ground truth.

    factorvae_metric forms its codes from the latent draws without forming
    samples; these methods draw the samples of the same random stream.
    """

    gen: LinearGenerator

    def sample_reference(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n unconstrained samples, one row each."""
        c, z = _latent_reference(self.gen.r, self.gen.d, n, rng)
        return c @ self.gen.B.T + z @ self.gen.A.T

    def sample_groups(
        self, factor: int, groups: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """(groups, size, d) samples; each group shares one value of the factor.

        The random stream is consumed group by group, so the result equals
        that many successive single-group draws from the same generator.
        """
        r, d = self.gen.r, self.gen.d
        c, fixed, z = next(_latent_groups(r, d, groups, size, rng))
        c[:, :, factor] = fixed[:, None]
        x = c.reshape(-1, r) @ self.gen.B.T + z.reshape(-1, d) @ self.gen.A.T
        return x.reshape(groups, size, d)

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

    def __post_init__(self):
        for name in ("groups_per_factor", "group_size", "reference_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.variance_floor > 0.0:
            raise ValueError("variance_floor must be positive")


def factorvae_metric(
    gen: LinearGenerator, enc: LinearEncoder, cfg: FactorVaeConfig, seed: int
) -> MetricReport:
    """Majority-vote factor classification accuracy from argmin-variance votes.

    Per group (one factor fixed), every member is encoded, each code dimension
    is normalized by its reference-batch variance, and the group votes for the
    dimension with the smallest normalized variance. A majority classifier
    maps each vote to the factor it most frequently co-occurs with; the score
    is that classifier's accuracy. Dimensions whose reference variance falls
    below the floor are excluded from voting.

    The codes weight·(B c + A z) are formed straight from the latent draws,
    through the k×r map W·B and the k×d map W·A, without forming samples.
    The draws, from default_rng(seed), are the reference batch of
    _latent_reference, then the groups of _latent_groups for one factor at a
    time. Within a group the fixed
    factor adds the same amount to every code, so its column of W·B is
    zeroed: the variance is unchanged and the group mean stays near zero,
    which makes the one-pass variance E[x²] - E[x]² safe. At G = S = 100,
    r = 12, d = 16 and 10,000 reference samples a call peaks at about 4 MiB
    of allocations: one (G, S·(r+d)+1) draw buffer and two (G, S, k) code
    buffers, reused by every factor.
    """
    weight = enc.weight
    r, d, k = gen.r, gen.d, enc.code_dim
    if k < r:
        raise ValueError(f"encoder has {k} codes but {r} factors need votes")
    rng = np.random.default_rng(seed)
    wb = weight @ gen.B
    wa_t = np.ascontiguousarray((weight @ gen.A).T)
    c, z = _latent_reference(r, d, cfg.reference_samples, rng)
    ref_codes = c @ wb.T
    ref_codes += z @ wa_t
    del c, z  # the reference draw is freed before the variance and the group buffers
    ref_var = ref_codes.var(axis=0)
    del ref_codes
    active = ref_var >= cfg.variance_floor
    if not np.any(active):
        raise DegenerateEncoder(
            f"all {k} code dimensions fall below the variance floor {cfg.variance_floor}"
        )
    groups, size = cfg.groups_per_factor, cfg.group_size
    # (r, groups, k) normalized variances; inactive codes never win the argmin.
    ratio = np.full((r, groups, k), np.inf)
    codes = np.empty((groups, size, k))
    part = np.empty_like(codes)
    ones = np.ones((1, size))
    for factor, (c, _, z) in enumerate(_latent_groups(r, d, groups, size, rng)):
        wb_t = wb.T.copy()
        wb_t[factor] = 0.0
        np.matmul(c, wb_t, out=codes)
        codes += np.matmul(z, wa_t, out=part)
        # matmul and einsum reduce the middle axis several times faster than .sum(axis=1)
        mean = np.matmul(ones, codes)[:, 0] / size
        var = np.einsum("gsk,gsk->gk", codes, codes) / size - mean * mean
        np.divide(var, ref_var, out=ratio[factor], where=active)
    choice = ratio.argmin(axis=2) + k * np.arange(r)[:, None]
    votes = np.bincount(choice.ravel(), minlength=k * r).reshape(r, k).T.astype(float)
    score = float(votes.max(axis=1).sum() / votes.sum())
    per_factor = np.bincount(votes.argmax(axis=1), weights=votes.max(axis=1), minlength=r)
    detail = tuple(
        (f"factor_{i}_accuracy", float(per_factor[i] / cfg.groups_per_factor))
        for i in range(r)
    )
    return MetricReport("factorvae", score, detail, votes)


def _latent_reference(r: int, d: int, n: int, rng: np.random.Generator):
    """Codes c (n, r) and noise z (n, d) of n reference draws: all codes, then all noise."""
    draw = rng.standard_normal(n * (r + d))
    return draw[: n * r].reshape(n, r), draw[n * r :].reshape(n, d)


def _latent_groups(r: int, d: int, groups: int, size: int, rng: np.random.Generator):
    """For each of the r factors in turn, views (c, fixed, z) of its groups' latent draws.

    c is (groups, size, r) with the fixed factor's column left as drawn,
    fixed (groups,) holds that factor's value per group and z is
    (groups, size, d): the stream of GeneratorSampler.sample_groups, which
    takes the first yield, drawn into one buffer that every factor reuses,
    so each yield overwrites the last.
    """
    # Per group the stream holds the codes, the fixed-factor value, then z.
    draw = np.empty((groups, size * r + 1 + size * d))
    c = draw[:, : size * r].reshape(groups, size, r)
    fixed = draw[:, size * r]
    z = draw[:, size * r + 1 :].reshape(groups, size, d)
    for _ in range(r):
        rng.standard_normal(out=draw)
        yield c, fixed, z


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
    ds: FactorDataset, enc: LinearEncoder, lasso_lambda: float = LASSO_LAMBDA
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
# kernel independence score


def _beyond(xs: np.ndarray, i: np.ndarray, j: np.ndarray, t: float) -> np.ndarray:
    """Whether each rounded difference xs[j] - xs[i] exceeds t."""
    return xs[j] - xs[i] > t


def _pair_ends(xs: np.ndarray, t: float) -> np.ndarray:
    """For each i, the first j with xs[j] - xs[i] > t, over sorted xs and rounded differences.

    searchsorted against the rounded xs + t finds the end up to rounding at
    the boundary. Rounded differences never decrease along a row, so a row
    whose guess is off is bisected over the rest of its row on that side:
    (i, guess - 1] if the guess counted a j too far, since j = i is always
    within, and (guess, n] if it left out a j near enough. The ends are
    those of moving one index per pass, which the rounded differences the
    median sorts define.
    """
    n = xs.size
    ends = np.searchsorted(xs, xs + t, side="right")
    xs = np.append(xs, np.inf)  # index n counts as beyond every row
    rows = np.arange(n)
    # Each row's end e is bracketed as lo < e <= hi: xs[lo] - xs[i] <= t and
    # xs[hi] - xs[i] > t.
    lo, hi = ends - 1, ends.copy()
    down = _beyond(xs, rows, lo, t)
    lo[down], hi[down] = rows[down], lo[down]
    up = ~_beyond(xs, rows, hi, t)
    lo[up], hi[up] = hi[up], n
    wide = np.flatnonzero(hi - lo > 1)
    while wide.size:
        mid = (lo[wide] + hi[wide]) // 2
        far = _beyond(xs, wide, mid, t)
        lo[wide[~far]], hi[wide[far]] = mid[~far], mid[far]
        wide = wide[hi[wide] - lo[wide] > 1]
    return hi


def _pairs_within(xs: np.ndarray, ends: np.ndarray) -> int:
    """Number of pairs i < j counted by _pair_ends."""
    return int(ends.sum()) - xs.size * (xs.size + 1) // 2


def _median_pair_distance(xs: np.ndarray) -> float:
    """np.median of |xᵢ - xⱼ| over i < j for sorted finite xs, listing O(n) pairs.

    A bracket (lo, hi] of distances is narrowed until it holds at most 4·n
    pairs and still holds the middle pair(s) np.median reads; those pairs
    are then listed, row by row from _pair_ends, and the middle rank(s)
    picked by np.partition (Croux & Rousseeuw 1992). The first count is at
    t = 0; each later one at t halfway between the bit patterns of the
    smallest and largest distance in the bracket, which non-negative
    float64 values order as they do, so the search takes at most 64 counts
    and a bracket of one repeated distance ends it at once. An even pair
    count averages the two middle distances as np.median does.
    """
    n = xs.size
    pairs = n * (n - 1) // 2
    rank = (pairs - 1) // 2
    top = rank + 1 - pairs % 2  # the upper middle rank; rank itself for an odd count
    # ends and pair counts at lo, below every distance, and at hi, above them all
    lo_ends, lo_count = np.arange(1, n + 1), 0
    hi_ends, hi_count = np.full(n, n), pairs
    t = 0.0
    while True:
        ends = _pair_ends(xs, t)
        count = _pairs_within(xs, ends)
        if count > top:
            hi_ends, hi_count = ends, count
        elif count <= rank:
            lo_ends, lo_count = ends, count
        else:  # exactly rank + 1 pairs at distance <= t: the middle pair straddles t
            return (_largest_within(xs, ends) + _smallest_beyond(xs, ends)) / 2
        least, most = _smallest_beyond(xs, lo_ends), _largest_within(xs, hi_ends)
        if least == most:
            return least
        if hi_count - lo_count <= 4 * n:
            break
        low_bits, high_bits = (int(b) for b in np.array([least, most]).view(np.int64))
        t = float(np.int64(low_bits + (high_bits - low_bits) // 2).view(np.float64))
    counts = hi_ends - lo_ends
    i = np.repeat(np.arange(n), counts)
    j = np.arange(hi_count - lo_count) + np.repeat(lo_ends - (np.cumsum(counts) - counts), counts)
    k = rank - lo_count  # the middle rank among the listed pairs
    middle = np.partition(xs[j] - xs[i], [k, k + top - rank])
    if top == rank:
        return float(middle[k])
    return float((middle[k] + middle[k + 1]) / 2)


def _smallest_beyond(xs: np.ndarray, ends: np.ndarray) -> float:
    """The smallest pair distance not counted by _pair_ends' ends."""
    left = np.flatnonzero(ends < xs.size)
    return float((xs[ends[left]] - xs[left]).min())


def _largest_within(xs: np.ndarray, ends: np.ndarray) -> float:
    """The largest pair distance counted by _pair_ends' ends."""
    left = np.flatnonzero(ends > np.arange(1, xs.size + 1))
    return float((xs[ends[left] - 1] - xs[left]).max())


def _laplace_row_sums(xs: np.ndarray, h2: float) -> np.ndarray:
    """Σⱼ exp(-|xᵢ - xⱼ| / h2) for each i of sorted xs, in O(n·b + n²/b) for blocks of b.

    Per block of _LAPLACE_BLOCK consecutive points the sum splits three ways:
    the block's own points, summed directly; the points before it, which for
    sorted xs factor as exp(-(xᵢ - x_first)/h2)·Σⱼ exp(-(x_first - xⱼ)/h2)
    with x_first the block's first point; and the mirror sum over the points
    after it, anchored on the block's last point. Every factor is computed
    from one difference of xs, none is chained, so the sums are as accurate
    as direct summation (within 4e-16 relative at n=3000). A recursion over
    the n-1 rounded neighbour factors drifted to 1e-14.
    """
    n = xs.size
    sums = np.empty(n)
    for start in range(0, n, _LAPLACE_BLOCK):
        block = xs[start : start + _LAPLACE_BLOCK]
        stop = start + block.size
        first, last = block[0], block[-1]
        own = np.exp(-np.abs(block[:, None] - block) / h2).sum(axis=1)
        before = np.exp((xs[:start] - first) / h2).sum()
        after = np.exp((last - xs[stop:]) / h2).sum()
        sums[start:stop] = (
            own + np.exp((first - block) / h2) * before + np.exp((block - last) / h2) * after
        )
    return sums


def dhsic(samples: np.ndarray) -> float:
    """Kernel independence score of the columns of an n×k sample matrix.

    Per coordinate the kernel is exp(-|xᵢ - xⱼ| / h²) with h the median of
    the pairwise distances of that coordinate; a median whose square is zero
    or subnormal gets bandwidth 1.0 and a warning. Returns the three-term estimator
    (1/n²)ΣᵢⱼΠ K + (1/n^{2k})Π Σᵢⱼ K - (2/n^{k+1})Σᵢ Π Σⱼ K.

    No n×n array is formed: each median comes from a bracket of pair
    distances narrowed until it holds O(n) pairs, which are then listed and
    selected from (_median_pair_distance); the marginal sums come from
    anchored blocks (_laplace_row_sums), and the joint kernel from blocks of
    _DHSIC_BLOCK rows, so memory is O(n·block) and time O(n²·k). Each block's
    kernel sum is one term of the total. Its exponents are built in a
    contiguous (block, n - start) array, one chunk of at most _DHSIC_CHUNK
    doubles at a time, so the four elementwise passes per coordinate run on
    contiguous, cache-sized arrays: on strided views of a (block, n) buffer
    numpy took about twice as long. Non-finite samples raise ValueError, as
    does a coordinate whose range or squared median distance overflows: its
    kernel would read NaN or all ones.
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
        # Python floats overflow to inf without a warning
        if not math.isfinite(float(xs[-1]) - float(xs[0])):
            raise ValueError(f"coordinate {col} spans {xs[0]:.3g} to {xs[-1]:.3g}, "
                             "so its pair distances overflow")
        h = _median_pair_distance(xs)
        if not math.isfinite(h * h):
            raise ValueError(f"coordinate {col} has median pair distance {h:.3g}, "
                             "whose square overflows")
        if not h * h >= np.finfo(float).tiny:  # h² divides every kernel exponent
            warnings.warn(f"coordinate {col} has zero median distance, or one whose square "
                          f"underflows ({h:.3g}); bandwidth set to 1.0")
            h = 1.0
        h2[col] = h * h
        sums = _laplace_row_sums(xs, h2[col])
        product_term *= sums.sum() / (n * n)
        row_products[order] *= sums / n
    # Σᵢⱼ over the upper block triangle: each diagonal block once, the blocks
    # right of it twice.
    rows = max(1, min(_DHSIC_BLOCK, _DHSIC_CHUNK // n))
    block_buf = np.empty(_DHSIC_BLOCK * n)
    chunk_buf = np.empty(rows * n)
    joint = 0.0
    for start in range(0, n, _DHSIC_BLOCK):
        size = min(_DHSIC_BLOCK, n - start)
        block = block_buf[: size * (n - start)].reshape(size, n - start)
        for top in range(0, size, rows):
            acc = block[top : top + rows]
            tmp = chunk_buf[: acc.size].reshape(acc.shape)
            first = start + top
            for col in range(k):
                out = acc if col == 0 else tmp  # 0 + t is t, and exp(±0) is 1
                np.subtract(cols[col, first : first + acc.shape[0], None], cols[col, None, start:],
                            out=out)
                np.abs(out, out=out)
                out *= -1.0 / h2[col]
                if col:
                    acc += tmp
            np.exp(acc, out=acc)
        joint += block[:, :size].sum() + 2.0 * block[:, size:].sum()
    t1 = joint / (n * n)
    t3 = 2.0 * row_products.mean()
    return float(t1 + product_term - t3)


# ---------------------------------------------------------------------------
# statistical kernels


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    average = starts + (counts + 1) / 2.0
    return average[inverse]


def _rank_correlations(ranks: np.ndarray) -> np.ndarray:
    """Spearman ρ of each column pair of (n, m) fractional ranks; NaN for a constant column.

    Centered ranks are multiples of 1/2, so for n below about 2e5 every
    cross-product is exact and a pair's ρ has the same bits in any m.
    """
    centered = ranks - ranks.mean(axis=0)
    c = centered.T @ centered
    ss = np.diagonal(c)
    denom = np.sqrt(np.outer(ss, ss))
    return np.divide(c, denom, out=np.full_like(c, np.nan), where=denom > 0.0)


def spearman_rho(a, b) -> float:
    """Pearson correlation of fractional ranks; NaN when either side is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    ranks = np.column_stack([_fractional_ranks(a), _fractional_ranks(b)])
    return float(_rank_correlations(ranks)[0, 1])
