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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditional,
    NumericFailure,
    SingularCovariance,
    UndefinedDivergence,
)
from .linalg import SymMatrix, eig_sym, project_contraction, spd_sqrt

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
    history: tuple[float, ...] = ()


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
    """Eigendecomposition of a covariance that must be invertible.

    Raises SingularCovariance when the smallest eigenvalue is not positive or
    falls below 1e-14 times the largest.
    """
    w, v = eig_sym(sigma)
    if w[-1] <= 0.0 or w[-1] <= 1e-14 * w[0]:
        raise SingularCovariance(
            f"covariance is singular or nearly so (min eigenvalue {w[-1]:.6e})"
        )
    return w, v


def matched_generator(sigma: SymMatrix, b) -> LinearGenerator:
    """Build the distribution-matched generator for the given code map B.

    The noise map is A = (Σ - B Bᵀ)^{1/2}, which requires B Bᵀ ⪯ Σ.
    """
    b = np.asarray(b, dtype=float)
    residual = SymMatrix(sigma.entries - b @ b.T)
    a = spd_sqrt(residual)
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


def _cr_value_from_gram(g: np.ndarray) -> float:
    r = g.shape[0]
    diag = g.diagonal()
    off_sq = float(np.sum(g * g) - np.sum(diag * diag))
    return float(diag @ diag) - off_sq / (r - 1)


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
    value = _cr_value_from_gram(b.T @ b)

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


def optimize_generator(
    sigma: SymMatrix, r: int, cfg: OptimizerConfig
) -> tuple[LinearGenerator, TheoremReport]:
    """Projected gradient ascent over B = Σ^{1/2} B̃ with B̃ a contraction.

    The matching constraint is enforced by construction: each candidate B̃ is
    clipped back into the contraction set, and the returned generator carries
    A = (Σ - B Bᵀ)^{1/2}. Backtracking line search keeps the objective
    non-decreasing across accepted steps; the run stops when the relative
    objective change drops below rel_tol, when no ascent step exists (the
    maximizers are exact fixed points of the projected step), or at max_iters.
    """
    w_sigma, v_sigma = eig_sym(sigma)
    if w_sigma[-1] <= 0.0:
        raise SingularCovariance(
            f"target covariance must be positive definite (min eigenvalue {w_sigma[-1]:.6e})"
        )
    d = sigma.dim
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

    root = spd_sqrt(sigma).entries
    const_info = -0.5 * r * (1.0 + LOG_2PI)

    def value(bt: np.ndarray) -> float:
        total = 0.0
        if w_info != 0.0:
            total += w_info * (0.5 * float(np.sum(bt * bt)) + const_info)
        if w_cr != 0.0:
            b = root @ bt
            total += w_cr * _cr_value_from_gram(b.T @ b)
        return total

    def gradient(bt: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(bt)
        if w_info != 0.0:
            grad += w_info * bt
        if w_cr != 0.0:
            b = root @ bt
            g = b.T @ b
            diag = g.diagonal()
            off = g.copy()
            off.flat[:: r + 1] = 0.0
            grad_b = 4.0 * (b * diag) - (4.0 / (r - 1)) * (b @ off)
            grad += w_cr * (root @ grad_b)
        return grad

    rng = np.random.default_rng(cfg.seed)
    bt = project_contraction(rng.standard_normal((d, r)))
    f_cur = value(bt)
    history = [f_cur]
    min_step = cfg.step_size * 2.0 ** -40

    for _ in range(cfg.max_iters):
        grad = gradient(bt)
        step = cfg.step_size
        accepted = False
        while step >= min_step:
            cand = project_contraction(bt + step * grad)
            f_cand = value(cand)
            if f_cand > f_cur:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        delta = f_cand - f_cur
        bt, f_cur = cand, f_cand
        history.append(f_cur)
        if delta <= cfg.rel_tol * max(1.0, abs(f_cur)):
            break

    b = root @ bt
    gen = matched_generator(sigma, b)
    ortho = float(np.linalg.norm(bt.T @ bt - np.eye(r)))
    perm, align = _greedy_eigvec_match(b, v_sigma)
    sq_norms = np.sum(b * b, axis=0)
    norm_errors = np.abs(sq_norms - w_sigma[list(perm)])
    report = TheoremReport(
        objective_value=f_cur,
        orthonormality_residual=ortho,
        pca_alignment=align,
        norm_errors=norm_errors,
        permutation=perm,
        history=tuple(history),
    )
    return gen, report
