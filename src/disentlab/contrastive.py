"""Contrastive discrimination over finite distribution families.

Over a finite family of k discrete distributions, the k-way discrimination
objective has the analytic maximum d_JS - log k where d_JS is the generalized
Jensen-Shannon divergence, attained at the normalized-density discriminator;
a gradient ascent on the logits, each support point at its own 1/L step,
verifies the identity numerically.

train_discriminator runs that ascent for many families at once, in one
padded (F, k_max, m_max) stack that drops each family when its own stop rule
fires. Every family's logits and step count are bit for bit those of a call
with that family alone, and per family it returns how its ascent ended:
steps taken, final max|grad|, and whether it converged or hit the step cap.
js_identity_values then gives both sides of the identity and the trained
objective for the whole list in one call, one stack per (k, m) shape.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

# One row of stochastic-matrix probabilities may deviate from 1 by round-off.
_ROW_SUM_TOL = 1e-12

# train_discriminator's default step, 1/L for each support point's own objective.
# The objective is Σ_x (z_x/k)·f_x over support points x, z_x ≤ k the point's
# total mass and f_x = Σ_i (q_ix/z_x) log p_i the cross-entropy of its output
# row p against its normalized mass. f_x depends on x's logits alone, and its
# Hessian there is -(diag p - ppᵀ), the covariance of a one-hot draw from p,
# whose variance along a unit direction is at most ½. So L ≤ ½ for every
# point of every family, and an ascent on each f_x at step 1/L = 2 rises
# monotonically with the largest guaranteed gain per step (Nesterov 2004,
# §2.1; one constant per block as in Nesterov 2012).
DISCRIMINATOR_STEP = 2.0


@dataclass(frozen=True)
class DiscreteDistributionFamily:
    """k probability distributions over a shared finite support of size m."""

    probs: np.ndarray  # (k, m), row-stochastic

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"probs must be a k x m matrix, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
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


def _softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    """Softmax along the class axis of a stack; each slice along it needs one finite logit."""
    e = np.exp(logits - logits.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _stack_objective(q: np.ndarray, k: np.ndarray | int, out: np.ndarray) -> np.ndarray:
    """(1/k) Σ_i Σ_x Q_i(x) log H_i(x) of every family in (F, k, m) stacks of masses and outputs.

    Each family's cells are summed in (class, point) order; cells without
    mass add nothing, and a family whose mass meets a zero output reads -inf.
    """
    mass = q > 0.0
    hit = mass & (out > 0.0)
    log_out = np.log(out, out=np.zeros_like(out), where=hit)
    value = (q * log_out).reshape(len(q), -1).sum(axis=1) / k
    return np.where(np.any(mass & ~hit, axis=(1, 2)), -np.inf, value)


def js_identity_values(
    families: Sequence[DiscreteDistributionFamily], logits: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the JS identity, and the objective of trained logits, per family.

    Returns three (F,) arrays: the objective at the analytic maximizer
    H_i(x) = Q_i(x) / Σ_j Q_j(x), uniform where x has no mass, taken through
    its logits log H; d_JS, the mean KL of each row to the mixture; and the
    objective of each family's (m, k) logit table. The identity says the
    first equals d_JS - log k. An objective reads -inf where mass meets a
    zero output.

    Families of one (k, m) shape form one stack, with the classes last for
    the softmax, so every sum runs over a family's own cells in one-family
    order: a family with full support gets the same bits alone or in any list.
    """
    f = len(families)
    best, js, trained = np.empty(f), np.empty(f), np.empty(f)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, fam in enumerate(families):
        groups.setdefault(fam.probs.shape, []).append(i)
    for (k, m), rows in groups.items():
        q = np.stack([families[i].probs for i in rows])  # (G, k, m)
        table = np.stack([logits[i] for i in rows])  # (G, m, k)
        if table.shape[1:] != (m, k):
            raise ValueError(f"logits of shape {table.shape[1:]} do not match a {k} x {m} family")
        z = q.sum(axis=1, keepdims=True)  # the mass of each support point
        ratio = np.divide(q, z / k, out=np.ones_like(q), where=q > 0.0)  # 1 where no mass
        js[rows] = (q * np.log(ratio)).reshape(len(rows), -1).sum(axis=1) / k
        h = np.divide(q, z, out=np.full_like(q, 1.0 / k), where=z > 0.0).transpose(0, 2, 1)
        optimum = np.log(h, out=np.full(h.shape, -np.inf), where=h > 0.0)
        best[rows] = _stack_objective(q, k, _softmax(optimum, 2).transpose(0, 2, 1))
        trained[rows] = _stack_objective(q, k, _softmax(table, 2).transpose(0, 2, 1))
    return best, js, trained


def train_discriminator(
    families: Sequence[DiscreteDistributionFamily],
    iters: int = 30_000,
    step: float = DISCRIMINATOR_STEP,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Full-batch gradient ascent on the logits of each family's discrimination objective.

    Returns each family's (m, k) logits, row x holding support point x's
    logit of each class, and three (F,) arrays: the gradient steps taken,
    the largest |gradient| entry at the returned logits, and whether that
    met the stop rule within the iters cap.

    Each support point x ascends at its own 1/L: its logits move by
    step·k/z_x times the gradient, that is by step·(q_x/z_x - softmax_x),
    a gradient ascent on x's own normalized cross-entropy, whose curvature
    is at most ½ (see DISCRIMINATOR_STEP). The default step 2 is therefore
    1/L for every point, and the summed objective rises at every step. A
    point without mass has a zero gradient and rate 0. Point x's share of
    the summed objective has curvature at most z_x/(2k) ≤ ½, so one step
    shared by all points could be no longer than 2; on the verify suites'
    100 families the per-point rates take about a seventh of its rounds
    to the same stop rule.

    All families ascend together in one (F, k_max, m_max) stack. Padded
    classes hold -inf logits and padded support points zero mass, so their
    outputs and gradients are exact zeros. numpy sums over the middle
    (class) axis in class order, so the padded classes add their zeros
    last, and each family's logits are bit for bit those of a call with
    that family alone. Each family keeps its own 1/k factor and stops at
    the first iteration where the true (unscaled) gradient has max|grad| <
    1e-12, or after iters steps; the stack drops a family when it stops.

    Deterministic: logits start at zero and the gradient is exact. Every 50
    steps the objective of each running family is checked; NumericFailure,
    naming the family's index, is raised when it drops by more than 1e-9
    five checks in a row (which a correct gradient cannot do at a step of
    at most 1/L). ValueError is raised for iters < 0 and for a step that is
    not positive and finite.
    """
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    if not 0.0 < step < math.inf:  # written so that nan fails
        raise ValueError(f"step must be positive and finite, got {step!r}")
    families = list(families)
    f = len(families)
    tables: list = [None] * f  # each family's (m, k) logits, filled in as it stops
    taken, final_grad, met = np.zeros(f, dtype=int), np.zeros(f), np.zeros(f, dtype=bool)
    if not families:
        return tables, taken, final_grad, met
    k_max = max(fam.k for fam in families)
    m_max = max(fam.support_size for fam in families)
    q = np.zeros((f, k_max, m_max))
    logits = np.full((f, k_max, m_max), -np.inf)
    for i, fam in enumerate(families):
        q[i, : fam.k, : fam.support_size] = fam.probs
        logits[i, : fam.k] = 0.0
    z = q.sum(axis=1, keepdims=True)  # (F, 1, m): the mass of each support point
    k = np.array([float(fam.k) for fam in families])[:, None, None]
    # Each support point's own 1/L: step·k/z_x, and 0 where the point has no mass.
    rate = np.divide(step * k, z, out=np.zeros_like(z), where=z > 0.0)
    # Rows of the running stack, by family index; rows are dropped as families stop.
    run = np.arange(f)
    last = np.full(f, -math.inf)
    drops = np.zeros(f, dtype=int)
    for it in range(iters + 1):
        grad = (q - z * _softmax(logits)) / k
        grad_max = np.abs(grad).max(axis=(1, 2))
        converged = grad_max < 1e-12
        stop = converged | (it == iters)
        if np.any(stop):
            for row in np.flatnonzero(stop):
                fam = families[run[row]]
                tables[run[row]] = logits[row, : fam.k, : fam.support_size].T.copy()
            out = run[stop]
            taken[out], final_grad[out], met[out] = it, grad_max[stop], converged[stop]
            keep = ~stop
            if not np.any(keep):
                break
            run, logits, grad, q, z, k, rate, last, drops = (
                a[keep] for a in (run, logits, grad, q, z, k, rate, last, drops)
            )
        logits += rate * grad
        if it % 50 == 0:
            value = _stack_objective(q, k[:, 0, 0], _softmax(logits))
            drops = np.where(value < last - 1e-9, drops + 1, 0)
            if np.any(drops >= 5):
                row = int(np.flatnonzero(drops >= 5)[0])
                raise NumericFailure(
                    f"discrimination objective of family {run[row]} diverged "
                    f"({float(last[row])!r} -> {float(value[row])!r})"
                )
            last = value
    return tables, taken, final_grad, met
