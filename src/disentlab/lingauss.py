"""Linear-Gaussian generator laboratory.

Generators take the form x = B c + A z with codes c ~ N(0, I_r) and noise
z ~ N(0, I_d). Under the exact matching constraint B Bᵀ + A Aᵀ = Σ the
mutual-information objective and the pairwise-coupling divergence both have
closed forms in B alone, and projected gradient ascent over B̃ = Σ^{-1/2} B
recovers their maximizers: any semi-orthonormal B̃ for the mutual-information
objective, and the top-r eigenstructure of Σ for the coupling divergence.
The codes' posterior-mean map Bᵀ Σ⁻¹ is the exact encoder of a generator,
and an ascent's report carries its objective values as its history, of which
the last is the final objective.
"""
from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditional,
    NumericFailure,
    SingularCovariance,
    UndefinedDivergence,
)
from .linalg import (
    CONTRACTION_SLACK,
    PSD_CLAMP_TOL,
    Eigendecomposition,
    eig_sym,
    frobenius_norm,
    project_contraction,
    spd_sqrt,
    sqrt_from_eig,
    symmetrized,
)

LOG_2PI = math.log(2.0 * math.pi)

# Relative Frobenius tolerance for the matching constraint B Bᵀ + A Aᵀ = Σ.
MATCHED_RTOL = 1e-8

# Below this minimum eigenvalue the conditional covariance counts as singular
# and the mutual information diverges.
_SINGULAR_S_TOL = 1e-12

OBJECTIVES = ("infogan", "cr_frobenius", "combined")


def _dimension(obj: dict, key: str) -> int:
    """An integer or integral float under `key`; booleans and fractions raise ValueError."""
    value = obj[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value % 1 == 0:
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LinearGenerator:
    """Linear Gaussian generator x = B c + A z with target covariance sigma.

    Construction symmetrizes sigma (see linalg.symmetrized) and freezes its
    storage, so its entries are exactly symmetric and safe to share between
    threads.
    """

    B: np.ndarray
    A: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.B, dtype=float)
        a = np.asarray(self.A, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"B must be a d x r matrix, got shape {b.shape}")
        d, r = b.shape
        if r < 1 or r > d:
            raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
        if a.shape != (d, d):
            raise ValueError(f"A must be {d} x {d}, got shape {a.shape}")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (d, d):
            raise ValueError(f"sigma must be {d} x {d}, got shape {sigma.shape}")
        sigma = symmetrized(sigma)
        sigma.flags.writeable = False
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.B.shape[0]

    @property
    def r(self) -> int:
        return self.B.shape[1]

    def to_dict(self) -> dict:
        """Row-major JSON-ready dictionary."""
        return {
            "d": self.d,
            "r": self.r,
            "B": [float(v) for v in self.B.ravel()],
            "A": [float(v) for v in self.A.ravel()],
            "sigma": [float(v) for v in self.sigma.ravel()],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LinearGenerator":
        d, r = _dimension(obj, "d"), _dimension(obj, "r")
        b = np.asarray(obj["B"], dtype=float).reshape(d, r)
        a = np.asarray(obj["A"], dtype=float).reshape(d, d)
        return cls(b, a, np.asarray(obj["sigma"], dtype=float).reshape(d, d))


@dataclass(frozen=True)
class TheoremReport:
    """Optimizer outcome summary against the known closed-form maximizers."""

    orthonormality_residual: float
    pca_alignment: np.ndarray
    norm_errors: np.ndarray
    permutation: tuple[int, ...]
    history: tuple[float, ...]
    # The stop rule that ended the ascent: "rel_tol" (the last accepted step
    # gained at most rel_tol·max(1, |f|)), "no_ascent_step" (a rejected
    # candidate lay within rounding of B̃, which is then a fixed point of the
    # projected step, or the line search halved the step below
    # step_size·2⁻⁴⁰) or "max_iters".
    stop: str
    backtracks: int  # candidates the line search rejected


@dataclass(frozen=True)
class OptimizerConfig:
    objective: str = "infogan"
    lam: float = 1.0  # weight of the mutual-information term in "combined"
    alpha: float = 1.0  # weight of the coupling-divergence term in "combined"
    step_size: float = 0.1
    max_iters: int = 100_000
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if not self.step_size > 0:  # written so that nan fails
            raise ValueError("step_size must be positive")
        if not (self.lam >= 0 and self.alpha >= 0):
            raise ValueError("objective weights must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _named(label: str, i: int, size: int) -> str:
    """The prefix naming case i of a stack in an error message; a one-case stack names none."""
    return f"{label} {i}: " if size > 1 else ""


def _pd_eig(sigma: np.ndarray, label: str = "case") -> Eigendecomposition:
    """Eigendecomposition of each target covariance in an (F, d, d) stack; each must be invertible.

    Raises SingularCovariance when a smallest eigenvalue is not positive or
    falls below 1e-14 times the largest, naming the first such case.
    """
    w, v = eig = eig_sym(sigma)
    low = (w[:, -1] <= 0.0) | (w[:, -1] <= 1e-14 * w[:, 0])
    if low.any():
        i = int(np.argmax(low))
        nearly = f", under 1e-14 times the max {w[i, 0]:.6e}" if w[i, -1] > 0.0 else ""
        raise SingularCovariance(
            f"{_named(label, i, low.size)}target covariance must be positive definite "
            f"(min eigenvalue {w[i, -1]:.6e}{nearly})"
        )
    return eig


def _noise_maps(sigma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A = (Σ - B Bᵀ)^{1/2} of each (Σ, B) pair in an (F, d, d), (F, d, r) stack.

    One eigh call covers every residual. B Bᵀ ⪯ Σ must hold up to round-off,
    judged against PSD_CLAMP_TOL·max(1, ‖Σ‖_F) per case; spd_sqrt names the
    first case where it fails.
    """
    residual = symmetrized(sigma - b @ b.transpose(0, 2, 1))
    tol = PSD_CLAMP_TOL * np.maximum(1.0, frobenius_norm(sigma))
    return spd_sqrt(residual, tol)


def is_distribution_matched(gen: LinearGenerator) -> bool:
    """Whether ‖B Bᵀ + A Aᵀ - Σ‖_F ≤ MATCHED_RTOL·‖Σ‖_F, at any scale.

    B and A are first divided by 2^e and Σ by 4^e, where 2^e just exceeds
    the largest |entry| of B and A and e is never below 0. Scaling by powers
    of two is exact outside the subnormal range, so the scaled gap cannot
    overflow and any model whose unscaled gap is finite gets the same answer.
    """
    e = max(0, int(np.frexp(max(np.abs(gen.B).max(), np.abs(gen.A).max()))[1]))
    b, a = np.ldexp(gen.B, -e), np.ldexp(gen.A, -e)
    sigma = np.ldexp(gen.sigma, -2 * e)
    gap_norm, norm = frobenius_norm(np.stack([b @ b.T + a @ a.T - sigma, sigma]))
    return bool(gap_norm <= MATCHED_RTOL * norm)


def _posterior(eig: Eigendecomposition, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean maps Bᵀ Σ⁻¹ and symmetrized covariances I - Bᵀ Σ⁻¹ B of c | x, one per case."""
    w, v = eig
    mean_map = b.transpose(0, 2, 1) @ ((v / w[:, None, :]) @ v.transpose(0, 2, 1))
    cov = np.eye(b.shape[2]) - mean_map @ b
    return mean_map, symmetrized(cov)


def posterior(gen: LinearGenerator) -> np.ndarray:
    """The r×d map Bᵀ Σ⁻¹ from a generated sample x to the mean of its codes.

    For a matched generator, c | x is Gaussian with mean Bᵀ Σ⁻¹ x and
    covariance S = I - Bᵀ Σ⁻¹ B.
    """
    return _posterior(_pd_eig(gen.sigma[None]), gen.B[None])[0][0]


def _objectives(sigma: np.ndarray, eig: Eigendecomposition, b: np.ndarray) -> np.ndarray:
    """The recognition objective of each case of a stack, checked by two routes.

    (1/2)·‖Σ^{-1/2} B‖_F² - (r/2)(1 + log 2π) from the eigendecomposition and
    -(1/2)·tr(S) - (r/2)·log 2π from a solve with Σ must agree to 1e-10.
    """
    w, v = eig
    f, r = len(b), b.shape[2]
    b_tilde = (v / np.sqrt(w)[:, None, :]) @ (v.transpose(0, 2, 1) @ b)
    primal = 0.5 * (b_tilde * b_tilde).reshape(f, -1).sum(axis=1) - 0.5 * r * (1.0 + LOG_2PI)
    trace_s = r - (b * np.linalg.solve(sigma, b)).reshape(f, -1).sum(axis=1)
    dual = -0.5 * trace_s - 0.5 * r * LOG_2PI
    off = np.abs(primal - dual) > 1e-10 * np.maximum(1.0, np.abs(primal))
    if off.any():
        i = int(np.argmax(off))
        raise NumericFailure(
            f"{_named('case', i, f)}objective cross-check failed: "
            f"{float(primal[i])!r} vs {float(dual[i])!r}"
        )
    return primal


def _decompositions(
    sigma: np.ndarray, eig: Eigendecomposition, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bias decomposition of each case of a stack, from its Σ eigendecomposition."""
    r = b.shape[2]
    losses = _objectives(sigma, eig, b)
    w = eig_sym(_posterior(eig, b)[1]).eigenvalues  # one eigh for every S
    singular = w[:, -1] < _SINGULAR_S_TOL
    if singular.any():
        i = int(np.argmax(singular))
        raise DegenerateConditional(
            f"{_named('case', i, singular.size)}conditional covariance is singular "
            f"(min eigenvalue {w[i, -1]:.6e}); mutual information diverges at this limit"
        )
    log_w = np.log(w)
    mis = -0.5 * log_w.sum(axis=1)
    biases = 0.5 * (w.sum(axis=1) - r - log_w.sum(axis=1))
    entropy = np.full(len(b), 0.5 * r * (1.0 + LOG_2PI))
    return mis, entropy, biases, losses


def bias_decompositions(sigma, b_tilde) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """bias_decomposition of the matched generator B = Σ^{1/2} B̃ of each case of a stack.

    Returns four (F,) arrays: mutual_information, latent_entropy,
    implicit_bias and info_loss, as bias_decomposition defines them.
    sigma is an (F, d, d) stack, symmetrized on entry as LinearGenerator does, and
    b_tilde an (F, d, r) stack with 1 <= r <= d. Each Σ is decomposed once,
    and that one eigendecomposition gives Σ^{1/2}, both routes of the
    objective's cross-check and the posterior; B Bᵀ ⪯ Σ is checked through
    the noise maps, and one eigh covers every S. A failed check names its
    case when the stack holds more than one. Each case comes out bit for bit
    as bias_decomposition of the generator with B = spd_sqrt(Σ) @ B̃.
    """
    sigma = np.asarray(sigma, dtype=float)
    b_tilde = np.asarray(b_tilde, dtype=float)
    f, d, r = b_tilde.shape if b_tilde.ndim == 3 else (0, 0, 0)
    if sigma.shape != (f, d, d) or not 1 <= r <= d:
        raise ValueError(
            "expected (F, d, d) and (F, d, r) stacks with 1 <= r <= d, "
            f"got {sigma.shape} and {b_tilde.shape}"
        )
    sigma = symmetrized(sigma)
    eig = _pd_eig(sigma)
    b = sqrt_from_eig(eig) @ b_tilde
    _noise_maps(sigma, b)
    return _decompositions(sigma, eig, b)


def bias_decomposition(gen: LinearGenerator) -> tuple[float, float, float, float]:
    """Split the recognition objective into information and bias terms, in nats.

    Returns mutual_information = -(1/2)·log det S, latent_entropy =
    (r/2)(1 + log 2π), implicit_bias = KL(N(0,S) ‖ N(0,I)) ≥ 0, and
    info_loss = mutual_information - latent_entropy - implicit_bias, which
    equals the recognition objective (1/2)·‖Σ^{-1/2} B‖_F² - (r/2)(1 + log 2π).

    A singular S (the semi-orthonormal optimum) makes the mutual information
    diverge, which raises DegenerateConditional.
    """
    sigma = gen.sigma[None]
    return tuple(float(a[0]) for a in _decompositions(sigma, _pd_eig(sigma), gen.B[None]))


def _cr_values(g: np.ndarray) -> np.ndarray:
    """Σ_i G_ii² - (1/(r-1))·Σ_{i≠j} G_ij² of each Gram in an (F, r, r) stack."""
    f, r = g.shape[:2]
    diag = g.diagonal(axis1=1, axis2=2)
    sq = g * g
    off_sq = sq.reshape(f, -1).sum(axis=1) - sq.diagonal(axis1=1, axis2=2).sum(axis=1)
    return (diag[:, None, :] @ diag[:, :, None])[:, 0, 0] - off_sq / (r - 1)


def rank_r_truncation(sigma: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r PSD approximation, symmetrized: keep the top r eigencomponents."""
    if not 1 <= r <= len(sigma):
        raise ValueError(f"need 1 <= r <= {len(sigma)}, got {r}")
    w, v = eig_sym(sigma)
    kept = np.clip(w[:r], 0.0, None)
    return symmetrized((v[:, :r] * kept) @ v[:, :r].T)


def _greedy_eigvec_match(b: np.ndarray, eigvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy column-to-eigenvector assignment by descending |cosine|, per case of a stack.

    b is (F, d, r) and eigvecs (F, d, d). Ties break toward the lowest
    (column, eigenvector) index pair. Returns the (F, r) permutations and each
    column's |cosine| with its eigenvector. Each column's cosines come from a
    vector-matrix product of its own, so a case gets the same bits in any stack.
    """
    f, _, r = b.shape
    norms = np.linalg.norm(b, axis=1)[:, :, None]
    dots = (b.transpose(0, 2, 1)[:, :, None, :] @ eigvecs[:, None, :, :r])[:, :, 0, :]
    cos = np.divide(np.abs(dots), norms, out=np.zeros_like(dots), where=norms > 0)
    # argmax takes the first maximum in row-major order, which is the tie rule
    free = cos.copy()
    perm = np.empty((f, r), dtype=int)
    cases = np.arange(f)
    for _ in range(r):
        i, j = np.divmod(free.reshape(f, -1).argmax(axis=1), r)
        perm[cases, i] = j
        free[cases, i, :] = -np.inf
        free[cases, :, j] = -np.inf
    return perm, np.take_along_axis(cos, perm[:, :, None], axis=2)[:, :, 0]


@contextlib.contextmanager
def _finite_ascent(runs: list, r: int, cfg: OptimizerConfig):
    """Raise NumericFailure on an overflow, an invalid value or a failed SVD in the block.

    An overflow or invalid value raises at once, so every SVD sees finite input. A stack of
    more than one names the first run that fails alone; no run's bits depend on its stack.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, NumericFailure) as exc:
        if len(runs) > 1:
            for i, one in enumerate(runs):
                try:
                    optimize_generators([one], r, cfg)
                except NumericFailure as alone:
                    raise NumericFailure(f"run {i}: {alone}") from exc
        if isinstance(exc, NumericFailure):
            raise
        raise NumericFailure(f"the ascent's objective or gradient overflows ({exc})") from exc


def optimize_generators(
    runs: Sequence[tuple[np.ndarray, int]], r: int, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray, list[TheoremReport]]:
    """Projected gradient ascent of many (Σ, seed) runs at once.

    Each run ascends over B = Σ^{1/2} B̃ with B̃ a contraction, from a draw of
    its own seed. The objective, step size, rel_tol and max_iters of cfg are
    shared. Returns the (F, d, r) stack of code maps B, the (F, d, d) stack
    of noise maps A and one report per run; every run's B, A and report are
    bit for bit those of optimize_generator(Σ, r, cfg, seed).

    A run's ascent reads its seed and, when the coupling divergence has a
    nonzero weight, its Σ: the mutual-information gradient in B̃ is B̃ itself.
    Runs that agree on what their ascent reads share one ascent: by seed
    alone when the coupling weight is 0, else by seed and the bytes of the
    symmetrized Σ. Each run takes its ascent's history, stop, backtracks,
    final B̃ and orthonormality residual; B = Σ^{1/2} B̃, A, the alignments
    and the norm errors are its own.

    The ascents run together in one stack, one row each, with one stacked SVD
    per round. Each round evaluates the objective and its gradient at every
    row's candidate in one call, and one masked update lands them: a row
    whose candidate rises takes it with its gradient and a fresh step, and
    any other row keeps its B̃ and gradient and halves its own step. A
    rejected candidate within 16 ulp of its B̃ (‖cand - B̃‖_F at most
    (CONTRACTION_SLACK - 1)·‖B̃‖_F) ends its ascent at once: B̃ is then a fixed
    point of the projected step, and since the contraction set is convex it
    is one for every step size. A row leaves the stack when its own stop
    rule fires. Every run's Σ is decomposed in one stacked eigh call, which
    also gives its square root. The results come from one stacked residual
    eigh for the noise maps, and the reports match every run's columns to
    its eigenvectors in one greedy pass over the stack. A singular Σ, a
    failed SVD and an objective or gradient that overflows float64, which
    raises NumericFailure, each name their run when the stack holds more
    than one.
    """
    runs = list(runs)
    if not runs:
        return np.empty((0, 0, r)), np.empty((0, 0, 0)), []
    d = len(runs[0][0])
    if any(np.shape(sigma) != (d, d) for sigma, _ in runs):
        raise ValueError(f"every run's target covariance must be {d} x {d}, the same dimension")
    sigmas = symmetrized(np.stack([sigma for sigma, _ in runs]))  # (F, d, d)
    eig = _pd_eig(sigmas, "run")
    roots = sqrt_from_eig(eig)
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= {d}, got r={r}")
    if cfg.objective == "infogan":
        w_info, w_cr = 1.0, 0.0
    elif cfg.objective == "cr_frobenius":
        w_info, w_cr = 0.0, 1.0
    else:
        w_info, w_cr = cfg.lam, cfg.alpha
    if w_cr != 0.0 and r < 2:
        raise UndefinedDivergence(
            "the pairwise coupling divergence needs r >= 2 code columns"
        )

    # Each run takes ascent ascent_of[run]; ascent k starts from the seed and
    # square root of run first[k], the first run that takes it.
    keys = [seed if w_cr == 0.0 else (seed, sigma.tobytes())
            for sigma, (_, seed) in zip(sigmas, runs)]
    ascents: dict = {}
    ascent_of = np.array([ascents.setdefault(key, len(ascents)) for key in keys])
    first = np.unique(ascent_of, return_index=True)[1]
    n = len(first)

    root = roots[first]  # the rows still ascending
    const_info = -0.5 * r * (1.0 + LOG_2PI)

    def evaluate(bt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The objective and its gradient in B̃ for each row.

        Each is 0 plus its nonzero-weight terms in turn, info then CR; a term
        of weight 0 is left out, so r = 1 infogan never divides by r - 1.
        """
        value, grad = np.zeros(len(bt)), np.zeros(bt.shape)
        if w_info != 0.0:
            sq = (bt * bt).reshape(len(bt), -1).sum(axis=1)
            value = value + w_info * (0.5 * sq + const_info)
            grad = grad + w_info * bt
        if w_cr != 0.0:
            b = root @ bt
            g = b.transpose(0, 2, 1) @ b
            diag = g.diagonal(axis1=1, axis2=2)
            off = g.copy()
            off.reshape(len(off), -1)[:, :: r + 1] = 0.0
            grad_b = 4.0 * (b * diag[:, None, :]) - (4.0 / (r - 1)) * (b @ off)
            value = value + w_cr * _cr_values(g)
            grad = grad + w_cr * (root @ grad_b)
        return value, grad

    # The running stack: row k holds ascent[k]. A row leaves when its ascent stops.
    ascent = np.arange(n)
    draws = [np.random.default_rng(runs[i][1]).standard_normal((d, r)) for i in first]
    with _finite_ascent(runs, r, cfg):
        bt = project_contraction(np.stack(draws))
        f_cur, grad = evaluate(bt)
        step = np.full((n, 1, 1), cfg.step_size)  # each row's own step
        min_step = cfg.step_size * 2.0 ** -40
        rounding = CONTRACTION_SLACK - 1.0
        histories = [[v] for v in f_cur.tolist()]
        backtracks = [0] * n
        stops = [""] * n
        final: list = [None] * n  # each ascent's last B̃
        while ascent.size:
            cand = project_contraction(bt + step * grad)
            f_cand, grad_cand = evaluate(cand)
            up = f_cand > f_cur
            old = f_cur.tolist()
            pick = up[:, None, None]
            bt = np.where(pick, cand, bt)
            grad = np.where(pick, grad_cand, grad)
            f_cur = np.where(up, f_cand, f_cur)
            step = np.where(pick, cfg.step_size, 0.5 * step)
            leaving = []
            rows = zip(ascent.tolist(), up.tolist(), f_cand.tolist(), step.ravel().tolist())
            for k, (i, took, new, next_step) in enumerate(rows):
                if took:
                    histories[i].append(new)
                    if new - old[k] <= cfg.rel_tol * max(1.0, abs(new)):
                        stops[i] = "rel_tol"
                    elif len(histories[i]) > cfg.max_iters:
                        stops[i] = "max_iters"
                    else:
                        continue
                else:
                    backtracks[i] += 1
                    # A candidate that moved B̃ by more than rounding may rise at
                    # a shorter step. Each norm is a call of this row's own, so
                    # the test does not depend on the stack.
                    moved = np.linalg.norm(cand[k] - bt[k])
                    if next_step >= min_step and moved > rounding * np.linalg.norm(bt[k]):
                        continue
                    stops[i] = "no_ascent_step"
                final[i] = bt[k]
                leaving.append(k)
            if leaving:
                keep = np.ones(ascent.size, dtype=bool)
                keep[leaving] = False
                ascent, bt, f_cur, grad, step, root = (
                    a[keep] for a in (ascent, bt, f_cur, grad, step, root)
                )

    final = np.stack(final)
    # np.linalg.norm's Frobenius norm is a dot product, which no stacked sum
    # matches bit for bit at every r, so each ascent's residual keeps its own call.
    gaps = final.transpose(0, 2, 1) @ final - np.eye(r)
    residuals = [float(np.linalg.norm(gap)) for gap in gaps]
    maps = roots @ final[ascent_of]
    noise = _noise_maps(sigmas, maps)
    perms, aligns = _greedy_eigvec_match(maps, eig.eigenvectors)
    w_matched = np.take_along_axis(eig.eigenvalues, perms, axis=1)
    norm_errors = np.abs(np.sum(maps * maps, axis=1) - w_matched)
    reports = [
        TheoremReport(
            orthonormality_residual=residuals[i],
            pca_alignment=align,
            norm_errors=errors,
            permutation=tuple(perm),
            history=tuple(histories[i]),
            stop=stops[i],
            backtracks=backtracks[i],
        )
        for i, perm, align, errors in zip(ascent_of.tolist(), perms.tolist(), aligns, norm_errors)
    ]
    return maps, noise, reports


def optimize_generator(
    sigma: np.ndarray, r: int, cfg: OptimizerConfig, seed: int = 0
) -> tuple[LinearGenerator, TheoremReport]:
    """Projected gradient ascent over B = Σ^{1/2} B̃ with B̃ a contraction.

    The one-run case of optimize_generators, from a draw of seed. The
    matching constraint is enforced by construction: each candidate B̃ is
    clipped back into the contraction set, and the returned generator carries
    A = (Σ - B Bᵀ)^{1/2}. Backtracking line search keeps the objective
    non-decreasing across accepted steps. The run stops when an accepted
    step gains at most rel_tol·max(1, |f|), when no ascent step exists (a
    rejected candidate equals B̃ up to rounding, as at the maximizers, which
    are exact fixed points of the projected step), or at max_iters; the
    report's stop names which, and its backtracks counts the rejected
    candidates. The one run's B and A come back as a LinearGenerator.
    """
    (b,), (a,), (report,) = optimize_generators([(sigma, seed)], r, cfg)
    return LinearGenerator(b, a, sigma), report
