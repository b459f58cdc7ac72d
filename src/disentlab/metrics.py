"""Disentanglement metrics over encoded factor datasets.

The vote-based factor metric, Lasso-importance disentanglement (DCI) and the
kernel independence score dHSIC all operate on plain arrays plus a small
Encoder interface, so closed-form linear models and table fixtures exercise
the same code paths. One Spearman kernel over columns of fractional ranks
serves spearman_rho, UDR-Spearman and the rank-correlation analysis, and one
covariance-update coordinate-descent Lasso solver serves DCI and UDR-Lasso.
"""
from __future__ import annotations

import hashlib
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateEncoder, NumericFailure
from .lingauss import LinearGenerator, posterior

LASSO_LAMBDA = 0.01  # the λ of DCI and UDR-Lasso unless a config sets it
LASSO_TOL = 1e-10
LASSO_MAX_ITERS = 100_000
# Largest |c - G·w - λ·s| on the active set, relative to max|c|, that the
# lasso's exact finish accepts; a solve on a nearly singular block misses it.
_KKT_RTOL = 1e-12
_ZERO_STD_TOL = 1e-15
# Rows of the joint-kernel buffers in dhsic: two (block, n) float64 arrays.
_DHSIC_BLOCK = 32
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

    def sample_reference(self, n: int, rng: np.random.Generator) -> np.ndarray:
        c, z = _latent_reference(self.gen.r, self.gen.d, n, rng)
        return c @ self.gen.B.T + z @ self.gen.A.T

    def sample_groups(
        self, factor: int, groups: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        r, d = self.gen.r, self.gen.d
        c, fixed, z = next(_latent_groups(r, d, groups, size, rng))
        c[:, :, factor] = fixed[:, None]
        x = c.reshape(-1, r) @ self.gen.B.T + z.reshape(-1, d) @ self.gen.A.T
        return x.reshape(groups, size, d)

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

    Groups are drawn, encoded and reduced one factor at a time. A linear
    encoder of a generator's samples forms its codes straight from the latent
    draws (_linear_group_variances); any other pair goes through
    sample_groups and encode. Both routes consume the same random stream and
    differ only in rounding, so their votes differ only where two normalized
    variances agree to about 1e-15. At G = S = 100, r = 12, d = 16 and
    10,000 reference samples a linear-route call peaks at about 4 MiB of
    allocations: one (G, S·(r+d)+1) draw buffer and two (G, S, k) code
    buffers, reused by every factor.
    """
    k_hat = sampler.n_factors
    k = enc.code_dim
    if k < k_hat:
        raise ValueError(f"encoder has {k} codes but {k_hat} factors need votes")
    rng = np.random.default_rng(cfg.seed)
    if isinstance(sampler, GeneratorSampler) and isinstance(enc, LinearEncoder):
        ref_codes, variances = _linear_group_variances(sampler.gen, enc.weight, cfg, rng)
    else:
        ref_codes, variances = _encoded_group_variances(sampler, enc, cfg, rng)
    ref_var = ref_codes.var(axis=0)
    del ref_codes
    active = ref_var >= cfg.variance_floor
    if not np.any(active):
        raise DegenerateEncoder(
            f"all {k} code dimensions fall below the variance floor {cfg.variance_floor}"
        )
    # (k_hat, groups, k) normalized variances; inactive codes never win the argmin.
    ratio = np.full((k_hat, cfg.groups_per_factor, k), np.inf)
    for factor, var in enumerate(variances):
        np.divide(var, ref_var, out=ratio[factor], where=active)
    choice = ratio.argmin(axis=2) + k * np.arange(k_hat)[:, None]
    votes = np.bincount(choice.ravel(), minlength=k * k_hat).reshape(k_hat, k).T.astype(float)
    score = float(votes.max(axis=1).sum() / votes.sum())
    per_factor = np.bincount(votes.argmax(axis=1), weights=votes.max(axis=1), minlength=k_hat)
    detail = tuple(
        (f"factor_{i}_accuracy", float(per_factor[i] / cfg.groups_per_factor))
        for i in range(k_hat)
    )
    return MetricReport("factorvae", score, detail, votes)


def _encoded_group_variances(
    sampler: GroupSampler, enc: Encoder, cfg: FactorVaeConfig, rng: np.random.Generator
):
    """Reference codes now; then, lazily, each factor's (groups, k) code variances."""
    ref_codes = enc.encode(sampler.sample_reference(cfg.reference_samples, rng))
    groups, size = cfg.groups_per_factor, cfg.group_size

    def variances():
        for factor in range(sampler.n_factors):
            stack = sampler.sample_groups(factor, groups, size, rng)
            codes = enc.encode(stack.reshape(groups * size, -1))
            yield codes.reshape(groups, size, -1).var(axis=1)

    return ref_codes, variances()


def _linear_group_variances(
    gen: LinearGenerator, weight: np.ndarray, cfg: FactorVaeConfig, rng: np.random.Generator
):
    """_encoded_group_variances for codes weight·(B c + A z), without forming samples.

    The codes come from the latent draws through the k×r map W·B and the k×d
    map W·A. Within a group the fixed factor adds the same amount to every
    code, so its column of W·B is zeroed: the variance is unchanged and the
    group mean stays near zero, which makes the one-pass variance
    E[x²] - E[x]² safe. The draws come from _latent_reference and
    _latent_groups.
    """
    r, d = gen.r, gen.d
    wb = weight @ gen.B
    wa_t = np.ascontiguousarray((weight @ gen.A).T)
    c, z = _latent_reference(r, d, cfg.reference_samples, rng)
    ref_codes = c @ wb.T
    ref_codes += z @ wa_t
    groups, size = cfg.groups_per_factor, cfg.group_size

    def variances():
        codes = np.empty((groups, size, weight.shape[0]))
        part = np.empty_like(codes)
        ones = np.ones((1, size))
        for factor, (c, _, z) in enumerate(_latent_groups(r, d, groups, size, rng)):
            wb_t = wb.T.copy()
            wb_t[factor] = 0.0
            np.matmul(c, wb_t, out=codes)
            codes += np.matmul(z, wa_t, out=part)
            # matmul and einsum reduce the middle axis several times faster than .sum(axis=1)
            mean = np.matmul(ones, codes)[:, 0] / size
            yield np.einsum("gsk,gsk->gk", codes, codes) / size - mean * mean

    return ref_codes, variances()


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
    ds: FactorDataset, enc: Encoder, lasso_lambda: float = LASSO_LAMBDA
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
    the boundary. Rounded differences never decrease along a row, so an end
    that is off is bracketed by galloping from the guess in steps of 1, 2,
    4, … and then found by bisecting the bracket: an end m places off takes
    O(log m) passes, each one comparison over the rows still searching. The
    ends are those of moving one index per pass, which the rounded
    differences the median sorts define.
    """
    n = xs.size
    ends = np.searchsorted(xs, xs + t, side="right")
    xs = np.append(xs, np.inf)  # index n counts as beyond every row
    rows = np.arange(n)
    # Each row's end e is bracketed as lo < e <= hi: xs[lo] - xs[i] <= t and
    # xs[hi] - xs[i] > t. A guess that counted a j too far moves down; one
    # that left out a j near enough moves up.
    lo, hi = ends - 1, ends.copy()
    down = np.flatnonzero(_beyond(xs, rows, lo, t))
    hi[down] = lo[down]
    up = np.flatnonzero(~_beyond(xs, rows, hi, t))
    lo[up] = hi[up]
    width = 1
    while down.size:  # j = i is within, so a probe never passes row i
        probe = np.maximum(hi[down] - width, down)
        far = _beyond(xs, down, probe, t)
        lo[down[~far]], hi[down[far]] = probe[~far], probe[far]
        down, width = down[far], 2 * width
    width = 1
    while up.size:
        probe = np.minimum(lo[up] + width, n)
        far = _beyond(xs, up, probe, t)
        lo[up[~far]], hi[up[far]] = probe[~far], probe[far]
        up, width = up[~far], 2 * width
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
    _DHSIC_BLOCK rows, so memory is O(n·block) and time O(n²·k). Non-finite
    samples raise ValueError.
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


def _kkt_finish(cols, target, lam, sign, diag):
    """Exact lasso fits for given sign patterns, and whether each certifies.

    cols (F, q, q) holds each fit's Gram columns, target (F, q) its cross
    term c and sign (F, q) its pattern s. The active block G_AA·w_A =
    c_A - λ·s_A is solved in one batched call, with the inactive coordinates
    padded by identity; a fit whose padded matrix is exactly singular gets
    NaN weights and does not certify.
    """
    active = sign != 0.0
    q = sign.shape[1]
    pad = np.where(active[:, :, None] & active[:, None, :], cols.transpose(0, 2, 1), np.eye(q))
    rhs = np.where(active, target - lam * sign, 0.0)[:, :, None]
    try:
        exact = np.linalg.solve(pad, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        exact = np.full(sign.shape, np.nan)
        for f in range(sign.shape[0]):
            try:
                exact[f] = np.linalg.solve(pad[f], rhs[f])[:, 0]
            except np.linalg.LinAlgError:
                pass
    exact = np.where(active, exact, 0.0)
    resid = target - (cols * exact[:, :, None]).sum(axis=1)
    kkt = np.where(
        active,
        np.abs(resid - lam * sign) <= _KKT_RTOL * np.abs(target).max(axis=1, keepdims=True),
        (np.abs(resid) <= lam) | (diag <= 0.0),
    )
    return exact, np.all(kkt & (np.sign(exact) == sign), axis=1)


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
    order and a zero column (zero Gram diagonal) is never moved.

    Coordinate descent finds the sign pattern s long before its weights
    settle, so after each sweep that leaves a fit's pattern unchanged the fit
    is finished exactly: with A its nonzero coordinates, w_A solves
    G_AA·w_A = c_A - λ·s_A (_kkt_finish). The fit stops with that solution
    when it certifies itself: sign(w_A) = s_A, the active equations hold to
    _KKT_RTOL·max|c|, and |c - G·w| ≤ λ on every other live coordinate. A
    fit that never certifies (a singular G_AA, say) stops after the first
    sweep whose largest |Δw| is below tol; a fit still running after
    max_iters sweeps raises NumericFailure. Every step acts on each fit
    alone, so a fit gives the same bits alone or in any stack.
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
    target = cross.transpose(0, 2, 1).reshape(p * t, q)
    grad = target.copy()
    w = np.zeros((p * t, q))
    # cols[f, j] is column j of fit f's Gram matrix, gathered once per compaction.
    cols = np.ascontiguousarray(gram.transpose(0, 2, 1))[fit // t]
    diag = np.diagonal(cols, axis1=1, axis2=2).copy()
    scale = np.where(diag > 0.0, diag, np.inf)
    # Sign pattern before the sweep, and the last pattern the finish rejected.
    sign = np.zeros((p * t, q))
    rejected = np.full((p * t, q), np.nan)
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
            grad -= cols[:, j] * delta[:, None]
            np.maximum(worst, np.abs(delta), out=worst)
        done = worst < tol
        previous, sign = sign, np.sign(w)
        # A rejected pattern is rejected again, so a fit tries each pattern once.
        stable = np.flatnonzero(
            np.all(sign == previous, axis=1) & np.any(sign != rejected, axis=1)
        )
        if stable.size:
            exact, certified = _kkt_finish(
                cols[stable], target[fit[stable]], lam, sign[stable], diag[stable]
            )
            w[stable[certified]] = exact[certified]
            done[stable[certified]] = True
            rejected[stable[~certified]] = sign[stable[~certified]]
        if np.any(done):
            out[fit[done]] = w[done]
            keep = ~done
            fit, cols, grad, w, diag, scale, sign, rejected, worst = (
                a[keep] for a in (fit, cols, grad, w, diag, scale, sign, rejected, worst)
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
