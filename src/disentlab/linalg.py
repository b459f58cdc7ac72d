"""Symmetric-matrix kernels shared by every other module.

A symmetric matrix is a plain float array. Each covariance is symmetrized
once, where it enters the library, and the kernels below read it as given.
Everything here targets small dense matrices (dimensions up to a few dozen),
so the implementations prefer robustness and deterministic output over speed.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotPositiveSemidefinite, NumericFailure

# Eigenvalues in [-PSD_CLAMP_TOL·max(1, ‖sigma‖_F), 0) of sigma - B @ B.T are
# round-off, clamped to zero when lingauss forms the noise map A = (Σ - B Bᵀ)^{1/2};
# anything lower is an error.
PSD_CLAMP_TOL = 1e-10

# Singular values within a few ulp above 1 count as already contractive, which
# keeps project_contraction exactly idempotent on its own output (a clipped
# product can re-factor with a top singular value 1-2 ulp above 1). The same
# 16 ulp, CONTRACTION_SLACK - 1, bound the projection's rounding of a whole
# matrix: lingauss stops an ascent whose candidate moves B̃ by no more.
CONTRACTION_SLACK = 1.0 + 16.0 * np.finfo(float).eps

# Components below this magnitude do not anchor the eigenvector sign rule.
_SIGN_EPS = 1e-12


def symmetrized(m) -> np.ndarray:
    """(M + Mᵀ)/2 of a matrix, or of each matrix in a stack, formed as M/2 + Mᵀ/2.

    Halving first cannot overflow where M + Mᵀ would, and outside the
    subnormal range it gives the same bits as halving the sum. An entry
    whose mirror has the same bits is kept as it is, so a symmetric matrix,
    subnormals included, comes back unchanged and the map is idempotent.
    """
    a = np.asarray(m, dtype=float)
    t = np.swapaxes(a, -1, -2)
    return np.where(a.view(np.int64) == t.view(np.int64), a, 0.5 * a + 0.5 * t)


class Eigendecomposition(NamedTuple):
    """Eigenvalues sorted descending with matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_sym(m) -> Eigendecomposition:
    """Full eigendecomposition of a symmetric matrix, or of each matrix in a stack.

    m is an (n, n) array or a (..., n, n) stack of symmetric matrices, of
    which only the lower triangles are read. Eigenvalues come out descending along
    the last axis. Each eigenvector's sign is fixed so that its first
    component of noticeable magnitude is positive, making outputs
    deterministic for tests. A stack is one eigh call, and each matrix in it
    comes out bit for bit as it would alone.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"symmetric eigensolver failed: {exc}") from exc
    w = w[..., ::-1].copy()
    v = v[..., ::-1]
    # The first anchor of each column; a column with none anchors at row 0.
    pivot = np.argmax(np.abs(v) > _SIGN_EPS, axis=-2)
    flip = np.take_along_axis(v, pivot[..., None, :], axis=-2) < 0
    return Eigendecomposition(w, np.where(flip, -v, v))


def sqrt_from_eig(eig: Eigendecomposition) -> np.ndarray:
    """V·diag(√max(w, 0))·Vᵀ, symmetrized, of one eigendecomposition or a stack of them."""
    w, v = eig
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return symmetrized(root)


def frobenius_norm(m):
    """Frobenius norm of a matrix, or of each matrix in a (..., m, n) stack, at any scale.

    Each matrix is first divided by a power of two near its largest |entry|,
    which is exact, so no square overflows (Blue 1978): the norm is inf only
    where it passes float64's max, and then without a warning.
    """
    a = np.asarray(m, dtype=float)
    scale = np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(-2, -1)))[1] - 1)
    with np.errstate(over="ignore"):
        return np.linalg.norm(a / scale[..., None, None], axis=(-2, -1)) * scale


def spd_sqrt(m, tol=PSD_CLAMP_TOL):
    """Symmetric PSD square root R with R @ R == m (up to round-off).

    Eigenvalues in [-tol, 0) are clamped to zero; anything below that is
    rejected as genuinely not PSD. An (F, n, n) stack gives a stack of roots, each bit for bit its
    own matrix's, from one eigh call; tol is then a scalar or one value per
    matrix, and a rejected matrix in a stack of more than one is named by
    its index.
    """
    w, v = eig = eig_sym(m)
    lowest = np.reshape(w[..., -1], -1)
    low = lowest < -np.reshape(tol, -1)
    if low.any():
        i = int(np.argmax(low))
        which = f" {i}" if low.size > 1 else ""
        raise NotPositiveSemidefinite(
            f"matrix{which} has eigenvalue {lowest[i]:.6e} below the PSD clamp tolerance"
        )
    return sqrt_from_eig(eig)


def project_contraction(b_tilde) -> np.ndarray:
    """Clip the singular values of a matrix, or of each matrix in a stack, to at most 1.

    This is the Frobenius-nearest contraction: singular vectors are kept and
    singular values above 1 are replaced by 1. Inputs that are already
    contractive are returned unchanged, which makes the map exactly
    idempotent. A (..., m, n) stack is one SVD call, and each matrix in it
    comes out bit for bit as it would alone.
    """
    b = np.asarray(b_tilde, dtype=float)
    if b.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {b.shape}")
    try:
        u, s, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"SVD failed during contraction projection: {exc}") from exc
    clip = s[..., 0] > CONTRACTION_SLACK
    count = np.count_nonzero(clip)
    if not count:
        return b
    clipped = (u * np.minimum(s, 1.0)[..., None, :]) @ vt
    return clipped if count == clip.size else np.where(clip[..., None, None], clipped, b)
