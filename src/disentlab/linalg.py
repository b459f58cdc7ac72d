"""Symmetric-matrix kernels shared by every other module.

Everything here targets small dense matrices (dimensions up to a few dozen),
so the implementations prefer robustness and deterministic output over speed.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotPositiveSemidefinite, NumericFailure

# Eigenvalues in [-PSD_CLAMP_TOL·max(1, ‖sigma‖_F), 0) of sigma - B @ B.T are
# round-off, clamped to zero by matched_generator; anything lower is an error.
PSD_CLAMP_TOL = 1e-10

# Singular values within a few ulp above 1 count as already contractive, which
# keeps project_contraction exactly idempotent on its own output (a clipped
# product can re-factor with a top singular value 1-2 ulp above 1).
_CONTRACTION_SLACK = 1.0 + 16.0 * np.finfo(float).eps

# Components below this magnitude do not anchor the eigenvector sign rule.
_SIGN_EPS = 1e-12


class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes via (M + M.T)/2 and freezes the storage, so the
    entries are exactly symmetric and safe to share between threads.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        a = 0.5 * (a + a.T)
        a.flags.writeable = False
        self.entries = a

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.entries if not copy else self.entries.copy()
        return self.entries.astype(dtype)

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


class Eigendecomposition(NamedTuple):
    """Eigenvalues sorted descending with matching orthonormal column vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_sym(m: SymMatrix) -> Eigendecomposition:
    """Full eigendecomposition of a symmetric matrix, descending eigenvalues.

    Each eigenvector's sign is fixed so that its first component of noticeable
    magnitude is positive, making outputs deterministic for tests.
    """
    try:
        w, v = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"symmetric eigensolver failed: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for col in range(v.shape[1]):
        anchors = np.flatnonzero(np.abs(v[:, col]) > _SIGN_EPS)
        pivot = anchors[0] if anchors.size else 0
        if v[pivot, col] < 0:
            v[:, col] = -v[:, col]
    return Eigendecomposition(w, v)


def spd_sqrt(m: SymMatrix, tol: float = PSD_CLAMP_TOL) -> SymMatrix:
    """Symmetric PSD square root R with R @ R == m (up to round-off).

    Eigenvalues in [-tol, 0) are clamped to zero; anything below that is
    rejected as genuinely not PSD.
    """
    w, v = eig_sym(m)
    if w[-1] < -tol:
        raise NotPositiveSemidefinite(
            f"matrix has eigenvalue {w[-1]:.6e} below the PSD clamp tolerance"
        )
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return SymMatrix(root)


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
    if s.shape[-1] == 0:
        return b
    clip = s[..., 0] > _CONTRACTION_SLACK
    count = np.count_nonzero(clip)
    if not count:
        return b
    clipped = (u * np.minimum(s, 1.0)[..., None, :]) @ vt
    return clipped if count == clip.size else np.where(clip[..., None, None], clipped, b)
