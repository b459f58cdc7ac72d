"""Linear-Gaussian generator laboratory.

Generators take the form x = B c + A z with codes c ~ N(0, I_r) and noise
z ~ N(0, I_d). Under the exact matching constraint B Bᵀ + A Aᵀ = Σ the
mutual-information objective and the pairwise-coupling divergence both have
closed forms in B alone, and projected gradient ascent over B̃ = Σ^{-1/2} B
recovers their maximizers: any semi-orthonormal B̃ for the mutual-information
objective, and the top-r eigenstructure of Σ for the coupling divergence.
"""
from __future__ import annotations

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
from .linalg import PSD_CLAMP_TOL, SymMatrix, eig_sym, project_contraction, spd_sqrt

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
    """Linear Gaussian generator x = B c + A z with target covariance sigma."""

    B: np.ndarray
    A: np.ndarray
    sigma: SymMatrix

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
        if self.sigma.dim != d:
            raise ValueError(f"sigma must be {d} x {d}, got dim {self.sigma.dim}")
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "A", a)

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
            "sigma": [float(v) for v in self.sigma.entries.ravel()],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "LinearGenerator":
        d, r = _dimension(obj, "d"), _dimension(obj, "r")
        b = np.asarray(obj["B"], dtype=float).reshape(d, r)
        a = np.asarray(obj["A"], dtype=float).reshape(d, d)
        sigma = SymMatrix(np.asarray(obj["sigma"], dtype=float).reshape(d, d))
        return cls(b, a, sigma)


@dataclass(frozen=True)
class ConditionalGaussian:
    """Conditional law of the codes given a sample: c | x ~ N(mean_map @ x, cov)."""

    mean_map: np.ndarray  # r x d
    cov: SymMatrix  # r x r, eigenvalues in [0, 1] for matched generators


@dataclass(frozen=True)
class BiasDecomposition:
    """Split of the recognition objective into information and bias terms.

    All quantities are in nats. The identity
    info_loss == mutual_information - latent_entropy - implicit_bias
    holds whenever the conditional covariance is nonsingular.
    """

    mutual_information: float
    latent_entropy: float
    implicit_bias: float
    info_loss: float


@dataclass(frozen=True)
class TheoremReport:
    """Optimizer outcome summary against the known closed-form maximizers."""

    objective_value: float
    orthonormality_residual: float
    pca_alignment: np.ndarray
    norm_errors: np.ndarray
    permutation: tuple[int, ...]
    history: tuple[float, ...]
    # The stop rule that ended the ascent: "rel_tol" (the last accepted step
    # gained less than rel_tol), "no_ascent_step" (a line search rejected every
    # step down to step_size·2⁻⁴⁰) or "max_iters".
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
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if not self.step_size > 0:  # written so that nan fails
            raise ValueError("step_size must be positive")
        if not (self.lam >= 0 and self.alpha >= 0):
            raise ValueError("objective weights must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _pd_eig(sigma: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a target covariance that must be invertible.

    Raises SingularCovariance when the smallest eigenvalue is not positive or
    falls below 1e-14 times the largest.
    """
    w, v = eig_sym(sigma)
    if w[-1] <= 0.0 or w[-1] <= 1e-14 * w[0]:
        nearly = f", under 1e-14 times the max {w[0]:.6e}" if w[-1] > 0.0 else ""
        raise SingularCovariance(
            "target covariance must be positive definite "
            f"(min eigenvalue {w[-1]:.6e}{nearly})"
        )
    return w, v


def matched_generator(sigma: SymMatrix, b) -> LinearGenerator:
    """Build the distribution-matched generator for the given code map B.

    The noise map is A = (Σ - B Bᵀ)^{1/2}, which requires B Bᵀ ⪯ Σ up to round-off.
    """
    b = np.asarray(b, dtype=float)
    residual = SymMatrix(sigma.entries - b @ b.T)
    a = spd_sqrt(residual, PSD_CLAMP_TOL * max(1.0, float(np.linalg.norm(sigma.entries))))
    return LinearGenerator(b, a.entries, sigma)


def is_distribution_matched(gen: LinearGenerator) -> bool:
    gap = gen.B @ gen.B.T + gen.A @ gen.A.T - gen.sigma.entries
    return bool(np.linalg.norm(gap) <= MATCHED_RTOL * np.linalg.norm(gen.sigma.entries))


def posterior(gen: LinearGenerator) -> ConditionalGaussian:
    """Closed-form conditional law of the codes given a generated sample.

    For a matched generator, c | x is Gaussian with mean Bᵀ Σ⁻¹ x and
    covariance S = I - Bᵀ Σ⁻¹ B.
    """
    w, v = _pd_eig(gen.sigma)
    mean_map = gen.B.T @ ((v / w) @ v.T)
    cov = SymMatrix(np.eye(gen.r) - mean_map @ gen.B)
    return ConditionalGaussian(mean_map, cov)


def infogan_objective(gen: LinearGenerator) -> float:
    """Recognition-term value of the generator in nats.

    Two closed forms are computed through independent routes and must agree:
    (1/2)·‖Σ^{-1/2} B‖_F² - (r/2)(1 + log 2π) and
    -(1/2)·tr(S) - (r/2)·log 2π with S = I - Bᵀ Σ⁻¹ B.
    Their maximum over B Bᵀ ⪯ Σ is -(r/2)·log 2π, reached exactly at
    semi-orthonormal B̃ = Σ^{-1/2} B.
    """
    r = gen.r
    w, v = _pd_eig(gen.sigma)
    b_tilde = (v / np.sqrt(w)) @ (v.T @ gen.B)
    primal = 0.5 * float(np.sum(b_tilde * b_tilde)) - 0.5 * r * (1.0 + LOG_2PI)

    trace_s = r - float(np.sum(gen.B * np.linalg.solve(gen.sigma.entries, gen.B)))
    dual = -0.5 * trace_s - 0.5 * r * LOG_2PI
    if abs(primal - dual) > 1e-10 * max(1.0, abs(primal)):
        raise NumericFailure(
            f"objective cross-check failed: {primal!r} vs {dual!r}"
        )
    return primal


def bias_decomposition(gen: LinearGenerator) -> BiasDecomposition:
    """Split the recognition objective into information and bias terms.

    mutual_information = -(1/2)·log det S, latent_entropy = (r/2)(1 + log 2π),
    implicit_bias = KL(N(0,S) ‖ N(0,I)) ≥ 0, and
    info_loss = mutual_information - latent_entropy - implicit_bias, which
    equals infogan_objective(gen).

    A singular S (the semi-orthonormal optimum) makes the mutual information
    diverge, which raises DegenerateConditional.
    """
    r = gen.r
    loss = infogan_objective(gen)
    entropy = 0.5 * r * (1.0 + LOG_2PI)
    w = eig_sym(posterior(gen).cov).eigenvalues
    if w[-1] < _SINGULAR_S_TOL:
        raise DegenerateConditional(
            f"conditional covariance is singular (min eigenvalue {w[-1]:.6e}); "
            "mutual information diverges at this limit"
        )
    log_w = np.log(w)
    mi = -0.5 * float(np.sum(log_w))
    bias = 0.5 * float(np.sum(w) - r - np.sum(log_w))
    return BiasDecomposition(mi, entropy, bias, loss)


def paired_covariance(gen: LinearGenerator, i: int) -> SymMatrix:
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
    out[:d, :d] = gen.sigma.entries
    out[d:, d:] = gen.sigma.entries
    out[:d, d:] = cross
    out[d:, :d] = cross
    return SymMatrix(out)


def _cr_values(g: np.ndarray) -> np.ndarray:
    """Σ_i G_ii² - (1/(r-1))·Σ_{i≠j} G_ij² of each Gram in an (F, r, r) stack."""
    f, r = g.shape[:2]
    diag = g.diagonal(axis1=1, axis2=2)
    sq = g * g
    off_sq = sq.reshape(f, -1).sum(axis=1) - sq.diagonal(axis1=1, axis2=2).sum(axis=1)
    return (diag[:, None, :] @ diag[:, :, None])[:, 0, 0] - off_sq / (r - 1)


def cr_frobenius_divergence(b) -> float:
    """Average squared Frobenius distance between coupled-pair covariances.

    Equals (1/(4(r-1))) · Σ_{i≠j} ‖C⁽ⁱ⁾ - C⁽ʲ⁾‖_F² over the 2d x 2d coupled
    covariances, which collapses to Σ_i ‖b⁽ⁱ⁾‖⁴ - (1/(r-1))·Σ_{i≠j}⟨b⁽ⁱ⁾,b⁽ʲ⁾⟩²
    because the diagonal blocks cancel. Both routes are evaluated and must
    agree; the collapsed value is returned.
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


def rank_r_truncation(sigma: SymMatrix, r: int) -> SymMatrix:
    """Best rank-r PSD approximation: keep the top r eigencomponents."""
    if not 1 <= r <= sigma.dim:
        raise ValueError(f"need 1 <= r <= {sigma.dim}, got {r}")
    w, v = eig_sym(sigma)
    kept = np.clip(w[:r], 0.0, None)
    return SymMatrix((v[:, :r] * kept) @ v[:, :r].T)


def _greedy_eigvec_match(b: np.ndarray, eigvecs: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy column-to-eigenvector assignment by descending |cosine|.

    Ties break toward the lowest (column, eigenvector) index pair. Returns
    (permutation, |cosine| per column).
    """
    r = b.shape[1]
    norms = np.linalg.norm(b, axis=0)
    cos = np.zeros((r, r))
    for i in range(r):
        if norms[i] > 0:
            cos[i] = np.abs(b[:, i] @ eigvecs[:, :r]) / norms[i]
    perm = [-1] * r
    align = np.zeros(r)
    free_cols = list(range(r))
    free_eigs = list(range(r))
    for _ in range(r):
        _, _, _, i, j = max(
            (cos[i, j], -i, -j, i, j) for i in free_cols for j in free_eigs
        )
        perm[i] = j
        align[i] = cos[i, j]
        free_cols.remove(i)
        free_eigs.remove(j)
    return tuple(perm), align


def _project_runs(stack: np.ndarray, run: np.ndarray) -> np.ndarray:
    """project_contraction of an (F, d, r) stack whose rows are runs; a failed SVD names its run."""
    try:
        return project_contraction(stack)
    except NumericFailure:
        for i, m in zip(run.tolist(), stack):
            try:
                project_contraction(m)
            except NumericFailure as exc:
                raise NumericFailure(f"run {i}: {exc}") from exc
        raise


def optimize_generators(
    runs: Sequence[tuple[SymMatrix, int]], r: int, cfg: OptimizerConfig
) -> list[tuple[LinearGenerator, TheoremReport]]:
    """Projected gradient ascent of many (Σ, seed) runs at once, one result per run.

    Each run ascends over B = Σ^{1/2} B̃ with B̃ a contraction, from a draw of
    its own seed; cfg.seed is not read. The objective, step size, rel_tol and
    max_iters of cfg are shared. Every run's history, B, A and report are bit
    for bit those of optimize_generator(Σ, r, cfg) at that seed.

    All runs ascend together in one (F, d, r) stack, with one stacked SVD
    per round. Each row keeps its own step: a rejected candidate halves it,
    and an accepted one resets it and takes a fresh gradient. A row leaves
    the stack when its own stop rule fires. Σ's eigendecomposition and
    square root are taken once per distinct Σ, and each accepted candidate's
    Σ^{1/2}B̃ and Gram are reused for the next gradient. A failed SVD names
    its run, and so does a singular Σ when the stack holds more than one.
    """
    runs = list(runs)
    f = len(runs)
    if f == 0:
        return []
    # eigenvalues, eigenvectors and square root of each distinct Σ, by its bytes
    keys = [sigma.entries.tobytes() for sigma, _ in runs]
    spectra: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for i, ((sigma, _), key) in enumerate(zip(runs, keys)):
        if key not in spectra:
            try:
                w_sigma, v_sigma = _pd_eig(sigma)
            except SingularCovariance as exc:
                if f == 1:
                    raise
                raise SingularCovariance(f"run {i}: {exc}") from exc
            spectra[key] = w_sigma, v_sigma, spd_sqrt(sigma).entries
    d = runs[0][0].dim
    if any(sigma.dim != d for sigma, _ in runs):
        raise ValueError("every run's target covariance must have the same dimension")
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

    root = np.stack([spectra[key][2] for key in keys])  # (F, d, d)
    const_info = -0.5 * r * (1.0 + LOG_2PI)

    def cr_parts(bt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B = Σ^{1/2}B̃ and its Gram BᵀB for each row."""
        b = root @ bt
        return b, b.transpose(0, 2, 1) @ b

    # Each objective and gradient is 0.0 plus its weighted terms in turn; a
    # term of weight 0 is left out, and a weight of 1 multiplies nothing.
    def weighted(w: float, x: np.ndarray) -> np.ndarray:
        return x if w == 1.0 else w * x

    def value(bt: np.ndarray, g) -> np.ndarray:
        terms = []
        if w_info != 0.0:
            sq = (bt * bt).reshape(len(bt), -1).sum(axis=1)
            terms.append(weighted(w_info, 0.5 * sq + const_info))
        if w_cr != 0.0:
            terms.append(weighted(w_cr, _cr_values(g)))
        return sum(terms, 0.0) if terms else np.zeros(len(bt))

    def gradient(bt: np.ndarray, b, g) -> np.ndarray:
        terms = []
        if w_info != 0.0:
            terms.append(weighted(w_info, bt))
        if w_cr != 0.0:
            diag = g.diagonal(axis1=1, axis2=2)
            off = g.copy()
            off.reshape(len(off), -1)[:, :: r + 1] = 0.0
            grad_b = 4.0 * (b * diag[:, None, :]) - (4.0 / (r - 1)) * (b @ off)
            terms.append(weighted(w_cr, root @ grad_b))
        return sum(terms, 0.0) if terms else np.zeros(bt.shape)

    # The running stack: row k holds run[k]. A row leaves when its run stops.
    run = np.arange(f)
    draws = np.stack([np.random.default_rng(seed).standard_normal((d, r)) for _, seed in runs])
    bt = _project_runs(draws, run)
    b, g = cr_parts(bt) if w_cr != 0.0 else (None, None)
    f_cur = value(bt, g)
    grad = gradient(bt, b, g)
    step = np.full((f, 1, 1), cfg.step_size)  # each row's own step
    min_step = cfg.step_size * 2.0 ** -40
    histories = [[v] for v in f_cur.tolist()]
    backtracks = [0] * f
    stops = [""] * f
    final: list = [None] * f  # each run's last B̃
    while run.size:
        cand = _project_runs(bt + step * grad, run)
        b_cand, g_cand = cr_parts(cand) if w_cr != 0.0 else (None, None)
        f_cand = value(cand, g_cand)
        up = f_cand > f_cur
        moved = up.tolist()
        old = f_cur.tolist()
        if all(moved):  # the common round: every row steps, so none needs a mask
            bt, b, g, f_cur = cand, b_cand, g_cand, f_cand
            step[:] = cfg.step_size
        else:
            pick = up[:, None, None]
            bt = np.where(pick, cand, bt)
            if w_cr != 0.0:
                b, g = np.where(pick, b_cand, b), np.where(pick, g_cand, g)
            f_cur = np.where(up, f_cand, f_cur)
            step = np.where(pick, cfg.step_size, 0.5 * step)
            halved = step.ravel().tolist()
        if any(moved):  # a row that backtracked keeps its B̃, and so its gradient
            grad = gradient(bt, b, g)
        leaving = []
        for k, (i, took, new) in enumerate(zip(run.tolist(), moved, f_cand.tolist())):
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
                if halved[k] >= min_step:
                    continue
                stops[i] = "no_ascent_step"
            final[i] = bt[k]
            leaving.append(k)
        if leaving:
            keep = np.ones(run.size, dtype=bool)
            keep[leaving] = False
            run, bt, f_cur, grad, step, root = (
                a[keep] for a in (run, bt, f_cur, grad, step, root)
            )
            if w_cr != 0.0:
                b, g = b[keep], g[keep]

    results = []
    for (sigma, _), key, history, bt, stop, rejected in zip(
        runs, keys, histories, final, stops, backtracks
    ):
        w_sigma, v_sigma, root = spectra[key]
        b = root @ bt
        gen = matched_generator(sigma, b)
        ortho = float(np.linalg.norm(bt.T @ bt - np.eye(r)))
        perm, align = _greedy_eigvec_match(b, v_sigma)
        sq_norms = np.sum(b * b, axis=0)
        norm_errors = np.abs(sq_norms - w_sigma[list(perm)])
        report = TheoremReport(
            objective_value=history[-1],
            orthonormality_residual=ortho,
            pca_alignment=align,
            norm_errors=norm_errors,
            permutation=perm,
            history=tuple(history),
            stop=stop,
            backtracks=rejected,
        )
        results.append((gen, report))
    return results


def optimize_generator(
    sigma: SymMatrix, r: int, cfg: OptimizerConfig
) -> tuple[LinearGenerator, TheoremReport]:
    """Projected gradient ascent over B = Σ^{1/2} B̃ with B̃ a contraction.

    The one-run case of optimize_generators, seeded by cfg.seed. The matching
    constraint is enforced by construction: each candidate B̃ is clipped back
    into the contraction set, and the returned generator carries
    A = (Σ - B Bᵀ)^{1/2}. Backtracking line search keeps the objective
    non-decreasing across accepted steps. The run stops when the relative
    objective change drops below rel_tol, when no ascent step exists (the
    maximizers are exact fixed points of the projected step), or at
    max_iters; the report's stop names which, and its backtracks counts the
    rejected candidates.
    """
    return optimize_generators([(sigma, cfg.seed)], r, cfg)[0]
