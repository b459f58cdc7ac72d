"""Shared oracle for the lasso solver's tests."""
import numpy as np
import pytest

from disentlab.metrics import LASSO_TOL, lasso_gram_fit


def _plain_coordinate_descent(gram, cross, lam, tol=LASSO_TOL):
    """Covariance-update coordinate descent with no exact finish.

    Each fit sweeps until its largest |Δw| is below tol, as lasso_gram_fit
    did before it solved the KKT system of a stable sign pattern.
    """
    p, q, t = cross.shape
    g = np.repeat(gram, t, axis=0)
    grad = cross.transpose(0, 2, 1).reshape(p * t, q).copy()
    w = np.zeros_like(grad)
    diag = np.diagonal(g, axis1=1, axis2=2)
    scale = np.where(diag > 0.0, diag, np.inf)
    running = np.ones(p * t, dtype=bool)
    while running.any():
        worst = np.zeros(p * t)
        for j in range(q):
            rho = grad[:, j] + diag[:, j] * w[:, j]
            new = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0) / scale[:, j]
            delta = np.where(running, new - w[:, j], 0.0)
            w[:, j] += delta
            grad -= g[:, :, j] * delta[:, None]
            worst = np.maximum(worst, np.abs(delta))
        running &= worst >= tol
    return w.reshape(p, t, q).transpose(0, 2, 1)


def _kkt_violation(gram, cross, lam, w):
    """Largest KKT violation of each (design, target) fit, shape (P, T).

    Active coordinates need c - G·w = λ·sign(w); inactive live ones need
    |c - G·w| ≤ λ. Zero columns (zero Gram diagonal) carry no condition.
    """
    resid = cross - gram @ w
    live = np.diagonal(gram, axis1=1, axis2=2)[:, :, None] > 0.0
    active = np.abs(resid - lam * np.sign(w))
    inactive = np.where(live, np.abs(resid) - lam, 0.0)
    return np.where(w != 0.0, active, np.maximum(inactive, 0.0)).max(axis=1)


@pytest.fixture(scope="session")
def kkt_violation():
    return _kkt_violation


@pytest.fixture(scope="session")
def lasso_oracle():
    """Check a stack of lasso fits against the KKT conditions and the plain solver.

    Every fit meets KKT to kkt_tol, agrees with plain coordinate descent to
    1e-8, and equals its own one-design, one-target call bit for bit.
    """

    def check(gram, cross, lam, w, kkt_tol=1e-12):
        assert _kkt_violation(gram, cross, lam, w).max() <= kkt_tol
        assert np.abs(w - _plain_coordinate_descent(gram, cross, lam)).max() <= 1e-8
        p, _, t = cross.shape
        for d in range(p):
            for k in range(t):
                alone = lasso_gram_fit(gram[d:d + 1], cross[d:d + 1, :, k:k + 1], lam)
                assert np.array_equal(alone[0, :, 0], w[d, :, k])

    return check
