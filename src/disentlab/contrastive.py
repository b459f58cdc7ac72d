"""Contrastive discrimination over finite distribution families.

Over a finite family of k discrete distributions, the k-way discrimination
objective has the analytic maximum d_JS - log k where d_JS is the generalized
Jensen-Shannon divergence, attained at the normalized-density discriminator;
a plain gradient ascent on the logits verifies the identity numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

# One row of stochastic-matrix probabilities may deviate from 1 by round-off.
_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistributionFamily:
    """k probability distributions over a shared finite support of size m."""

    probs: np.ndarray  # (k, m), row-stochastic

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"probs must be a k x m matrix, got shape {p.shape}")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        sums = p.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            worst = float(np.abs(sums - 1.0).max())
            raise ValueError(f"rows must sum to 1 within {_ROW_SUM_TOL}, worst deviation {worst:.3e}")
        object.__setattr__(self, "probs", p)

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    @property
    def support_size(self) -> int:
        return self.probs.shape[1]

    def to_csv(self) -> str:
        lines = [f"{self.k},{self.support_size}"]
        for row in self.probs:
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DiscreteDistributionFamily":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        k, m = (int(v) for v in lines[0].split(","))
        if len(lines) != k + 1:
            raise ValueError(f"expected {k} probability rows, got {len(lines) - 1}")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        p = np.asarray(rows, dtype=float)
        if p.shape != (k, m):
            raise ValueError(f"expected shape {(k, m)}, got {p.shape}")
        return cls(p)


@dataclass(frozen=True)
class SoftmaxDiscriminator:
    """k-way discriminator over a finite support, stored as logits."""

    logits: np.ndarray  # (m, k)

    def __post_init__(self):
        l = np.asarray(self.logits, dtype=float)
        if l.ndim != 2:
            raise ValueError(f"logits must be an m x k table, got shape {l.shape}")
        object.__setattr__(self, "logits", l)

    @property
    def probs(self) -> np.ndarray:
        """Row-stochastic outputs; -inf logits give exact zeros."""
        top = self.logits.max(axis=1, keepdims=True)
        safe = np.where(np.isneginf(top), 0.0, top)
        e = np.exp(self.logits - safe)
        total = e.sum(axis=1, keepdims=True)
        uniform = np.full(self.logits.shape[1], 1.0 / self.logits.shape[1])
        return np.where(total > 0.0, e / np.where(total > 0.0, total, 1.0), uniform)


def js_divergence(family: DiscreteDistributionFamily) -> float:
    """Generalized Jensen-Shannon divergence: mean KL of each row to the mixture."""
    p = family.probs
    mix = p.mean(axis=0)
    mask = p > 0.0
    ratio = np.divide(p, mix[None, :], out=np.ones_like(p), where=mask)
    terms = np.where(mask, p * np.log(ratio, out=np.zeros_like(p), where=mask), 0.0)
    return float(terms.sum() / family.k)


def optimal_discriminator(family: DiscreteDistributionFamily) -> SoftmaxDiscriminator:
    """Analytic maximizer H_i(x) = Q_i(x) / Σ_j Q_j(x) of the discrimination objective.

    Support points with zero total mass carry no objective weight; they get
    uniform rows.
    """
    p = family.probs
    z = p.sum(axis=0)
    if not np.any(z > 0.0):
        raise ValueError("family has empty effective support")
    m, k = family.support_size, family.k
    h = np.full((m, k), 1.0 / k)
    pos = z > 0.0
    h[pos] = (p[:, pos] / z[pos]).T
    logits = np.full((m, k), -np.inf)
    hot = h > 0.0
    logits[hot] = np.log(h[hot])
    return SoftmaxDiscriminator(logits)


def cross_entropy_objective(
    family: DiscreteDistributionFamily, h: SoftmaxDiscriminator
) -> float:
    """(1/k) Σ_i Σ_x Q_i(x) log H_i(x), with a -inf sentinel when mass meets a zero."""
    q = family.probs
    out = h.probs.T  # (k, m)
    if out.shape != q.shape:
        raise ValueError(f"discriminator shape {h.logits.shape} does not match family")
    mask = q > 0.0
    if np.any(out[mask] <= 0.0):
        return -math.inf
    return float(np.sum(q[mask] * np.log(out[mask])) / family.k)


def train_discriminator(
    family: DiscreteDistributionFamily,
    iters: int = 30_000,
    step: float = 0.5,
) -> SoftmaxDiscriminator:
    """Full-batch gradient ascent on the logits of the discrimination objective.

    Deterministic: logits start at zero and the gradient is exact. Stops
    early once the gradient is numerically zero; raises NumericFailure if the
    objective decreases persistently (which a correct gradient cannot do at
    this step size).
    """
    q = family.probs
    k = family.k
    z = q.sum(axis=0)  # (m,)
    qt = q.T  # (m, k)
    logits = np.zeros((family.support_size, k))
    last = -math.inf
    drops = 0
    for it in range(iters):
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)
        h = e / e.sum(axis=1, keepdims=True)
        grad = (qt - z[:, None] * h) / k
        if np.abs(grad).max() < 1e-12:
            break
        logits += step * grad
        if it % 50 == 0:
            disc = SoftmaxDiscriminator(logits)
            val = cross_entropy_objective(family, disc)
            if val < last - 1e-9:
                drops += 1
                if drops >= 5:
                    raise NumericFailure(
                        f"discrimination objective diverged ({last!r} -> {val!r})"
                    )
            else:
                drops = 0
            last = val
    return SoftmaxDiscriminator(logits)
