"""Lasso fits for stacks of Gram matrices, shared by DCI and UDR-Lasso.

Each fit minimizes (1/2n)‖y - Xw‖² + λ‖w‖₁ from XᵀX/n and XᵀY/n alone.
One sweep of covariance-update coordinate descent starts every fit, and
feature-sign pivots finish it with the exact solution of its sign pattern,
certified by the KKT conditions. All fits of a call run in one stack, and a
fit gives the same bits alone or in any stack.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericFailure

LASSO_TOL = 1e-10
LASSO_MAX_ITERS = 100_000
# Largest |c - G·w - λ·s| on the active set, relative to max|c|, that the
# lasso's exact finish accepts; a solve on a nearly singular block misses it.
_KKT_RTOL = 1e-12


def _gram_times(cols, design, w):
    """G·w for each fit, with weights w (F, q) on design design[f] of cols.

    cols[d, j] is column j of design d's Gram matrix. The columns are added
    in order, so the bits are those of
    (cols[design] * w[:, :, None]).sum(axis=1), without its (F, q, q) temporary.
    """
    out = cols[design, 0] * w[:, :1]
    for j in range(1, w.shape[1]):
        out += cols[design, j] * w[:, j:j + 1]
    return out


def _padded_blocks(cols, design, sign):
    """Each fit's active block G_AA, padded to (q, q) by identity."""
    active = sign != 0.0
    pad = cols[design].transpose(0, 2, 1)
    np.copyto(pad, np.eye(sign.shape[1]), where=~(active[:, :, None] & active[:, None, :]))
    return pad


def _pattern_solve(cols, design, target, lam, sign, diag):
    """Exact lasso fits for given sign patterns, and how far each holds.

    Fit f regresses on design design[f] of the Gram columns cols (P, q, q),
    with cross term target[f] = c and pattern sign[f] = s. The active block
    G_AA·w_A = c_A - λ·s_A is solved in one batched call; a fit whose
    padded matrix is exactly singular gets NaN weights. Returns the weights,
    their residuals c - G·w, whether the active equations hold to
    _KKT_RTOL·max|c| (a solve on a nearly singular block misses that), and
    whether the fit certifies: its equations hold, sign(w_A) = s_A, and
    |c - G·w| ≤ λ on every other live coordinate.
    """
    active = sign != 0.0
    pad = _padded_blocks(cols, design, sign)
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
    resid = target - _gram_times(cols, design, exact)
    tol = _KKT_RTOL * np.abs(target).max(axis=1, keepdims=True)
    holds = np.all(~active | (np.abs(resid - lam * sign) <= tol), axis=1)
    inactive_ok = active | (np.abs(resid) <= lam) | (diag <= 0.0)
    return exact, resid, holds, holds & np.all(inactive_ok & (np.sign(exact) == sign), axis=1)


def _line_search(x, grad, sign, exact, resid, lam):
    """Feature-sign's discrete line search from x toward the pattern's exact solution.

    Of the solution and the points where an active weight crosses zero on
    the segment, returns the one of lowest objective with the weight that
    crosses there set to 0, its c - G·w, and a mask of that weight. Along
    x + t·d the objective is ½t²·dᵀGd - t·dᵀ(c - G·x) + λ‖x + t·d‖₁ plus a
    constant, and the norm is linear between crossings, so every candidate
    costs O(q).
    """
    d = exact - x
    # A weight whose solution has the other sign crosses zero at
    # t = x/(x - exact): inside [0, 1), or at 0 if it has just joined.
    flip = (sign * exact <= 0.0) & (d != 0.0)
    cross = np.divide(x, -d, out=np.ones_like(x), where=flip)
    order = np.argsort(cross, axis=1, kind="stable")
    t = np.take_along_axis(cross, order, axis=1)
    kink = np.take_along_axis(np.where(flip, 2.0 * np.abs(d), 0.0), order, axis=1)
    slope = np.where(flip, -np.abs(d), np.abs(exact) - np.abs(x)).sum(axis=1, keepdims=True)
    norm_gain = t * (slope + np.cumsum(kink, axis=1)) - np.cumsum(kink * t, axis=1)
    curvature = (d * (grad - resid)).sum(axis=1, keepdims=True)
    tilt = (d * grad).sum(axis=1, keepdims=True)
    gain = t * (0.5 * curvature * t - tilt) + lam * norm_gain
    step = np.take_along_axis(t, np.argmin(gain, axis=1)[:, None], axis=1)
    crossed = flip & (cross == step)
    new = np.where(step == 1.0, exact, x + step * d)
    new[crossed] = 0.0
    # c - G·new, to rounding: it is linear along the segment
    new_grad = np.where(step == 1.0, resid, grad + step * (resid - grad))
    return new, new_grad, crossed


def _null_step(cols, design, target, x, grad, sign, lam):
    """A step along the near-null direction of each fit's active block.

    When the block is (nearly) singular its solve is not trusted. Along its
    smallest right singular vector v the smooth part is nearly flat, and the
    objective with signs fixed changes at the rate vᵀ(λ·s - (c - G·x)). If
    the active equations cannot hold to _KKT_RTOL·max|c| at that rate, no
    solution keeps the pattern: move downhill to the first point where an
    active weight reaches zero. Returns the point, its c - G·w and a mask of
    that weight; where the rate is within tolerance (a flat direction, as
    between exactly equal columns), the point is x.
    """
    active = sign != 0.0
    _, _, vh = np.linalg.svd(_padded_blocks(cols, design, sign))
    v = np.where(active, vh[:, -1], 0.0)
    rate = (v * (lam * sign - grad)).sum(axis=1, keepdims=True)
    # A residual that meets the tolerance in each of the |A| active equations
    # can project onto the unit vector v with size up to √|A| times it.
    tol = _KKT_RTOL * np.abs(target).max(axis=1, keepdims=True)
    consistent = np.abs(rate) <= np.sqrt(active.sum(axis=1, keepdims=True)) * tol
    down = np.where(consistent, 0.0, -np.sign(rate)) * v
    shrinks = sign * down < 0.0
    reach = np.divide(-x, down, out=np.full_like(x, np.inf), where=shrinks)
    step = reach.min(axis=1, keepdims=True)
    crossed = shrinks & (reach == step)
    new = x + np.where(np.isfinite(step), step, 0.0) * down
    new[crossed] = 0.0
    return new, target - _gram_times(cols, design, new), crossed


def _kkt_finish(cols, design, target, lam, w, grad, diag):
    """Feature-sign pivots from weights w until each fit's sign pattern certifies.

    Fit f regresses on design design[f] of the Gram columns cols (P, q, q);
    target (F, q) holds each fit's cross term c, diag its Gram diagonal, w
    its current weights and grad its c - G·w, and the last two are updated
    in place. Each round solves every running fit's pattern s
    (_pattern_solve), starting from s = sign(w), and a fit that certifies
    stops with that exact solution. Otherwise the fit moves by feature-sign
    search (Lee, Battle, Raina & Ng 2007): by the discrete line search toward
    its solution (_line_search), or, where the active equations do not hold,
    by a step along the block's near-null direction (_null_step). Either
    move drops a weight that reaches zero. When the solution keeps the
    pattern, each inactive live coordinate with |c - G·w| > λ joins it with
    the sign of its residual. A fit stops uncertified once a round neither
    lowers its objective nor changes its pattern: a singular block with
    consistent equations stops at once.

    On the 672 fits of the udr benchmark's stack, the fits still running
    after each round were 592, 464, 285, 165, 86, 38, 24, 12, 4 and 0.

    Returns w, which for a fit that certified holds its exact solution, and
    whether each fit certified; the caller keeps a fit that did not at its
    own weights.
    """
    sign = np.sign(w)
    obj = lam * np.abs(w).sum(axis=1) - 0.5 * ((target + grad) * w).sum(axis=1)
    # Whether each fit's last move lowered its objective; the sweep counts.
    fresh = np.ones(len(w), dtype=bool)
    certified = np.zeros(len(w), dtype=bool)
    run = np.arange(len(w))
    while run.size:
        run = _pivot_round(cols, design, target, lam, diag, run, w, grad, sign, obj, fresh,
                           certified)
    return w, certified


def _pivot_round(cols, design, target, lam, diag, run, w, grad, sign, obj, fresh, certified):
    """One round of _kkt_finish for the fits in run.

    Updates each fit's state (weights, c - G·w, pattern, objective, fresh,
    certified) in place and returns the fits that pivot on. Its temporaries
    die with the call, before the next round's solve.
    """
    exact, resid, holds, ok = _pattern_solve(
        cols, design[run], target[run], lam, sign[run], diag[run]
    )
    w[run[ok]] = exact[ok]
    certified[run[ok]] = True
    run, exact, resid, holds = (a[~ok] for a in (run, exact, resid, holds))
    c, x, g, s = target[run], w[run], grad[run], sign[run]
    # An untrusted solve is replaced by x, so its line search stays put.
    trust = holds[:, None]
    new, new_grad, crossed = _line_search(
        x, g, s, np.where(trust, exact, x), np.where(trust, resid, g), lam
    )
    if not np.all(holds):
        off = ~holds
        new[off], new_grad[off], crossed[off] = _null_step(
            cols, design[run[off]], c[off], x[off], g[off], s[off], lam
        )
    new_obj = lam * np.abs(new).sum(axis=1) - 0.5 * ((c + new_grad) * new).sum(axis=1)
    better = new_obj < obj[run]
    moved = run[better]
    w[moved], grad[moved], obj[moved] = new[better], new_grad[better], new_obj[better]
    pattern = np.where(crossed, 0.0, np.where(new != 0.0, np.sign(new), s))
    # Inactive violators join at a solution that kept its pattern, if the fit
    # reached it by a move that lowered the objective; a weight that just
    # joined with the wrong sign is dropped without a move.
    kept = holds & np.all(np.sign(exact) == s, axis=1) & (better | fresh[run])
    joins = kept[:, None] & (pattern == 0.0) & (diag[run] > 0.0) & (np.abs(resid) > lam)
    pattern = np.where(joins, np.sign(resid), pattern)
    change = better | np.any(joins | (crossed & (x == 0.0)), axis=1)
    sign[run[change]] = pattern[change]
    fresh[run] = better
    return run[change]


def lasso_gram_fit(gram: np.ndarray, cross: np.ndarray, lam: float) -> np.ndarray:
    """Lasso weights for a stack of designs, each shared by several targets.

    gram (P, q, q) holds XᵀX/n of each design and cross (P, q, T) holds XᵀY/n
    of its T targets; the result (P, q, T) minimizes (1/2n)‖y - Xw‖² + λ‖w‖₁
    for every (design, target) pair. Covariance-update coordinate descent
    (Friedman, Hastie & Tibshirani 2010, §2.2) keeps g = Xᵀ(y - Xw)/n, so a
    sweep costs O(q²) per fit whatever n is. Coordinates are visited in
    order and a zero column (zero Gram diagonal) is never moved.

    After each sweep, every running fit pivots from its weights to a sign
    pattern s that certifies (_kkt_finish), and stops with the exact
    solution of G_AA·w_A = c_A - λ·s_A, A its nonzero coordinates. Sweeps
    alone reach those patterns slowly: on the udr benchmark's 672 fits they
    took 150 sweeps, with 192 fits still running after 10, while one sweep
    and 10 rounds of pivots certify them all. A fit that does not certify
    (a singular G_AA, say) keeps sweeping from its swept weights, and its
    pattern is not pivoted from again until a sweep changes it; it stops
    after the first sweep whose largest |Δw| is below LASSO_TOL. A fit
    still running after LASSO_MAX_ITERS sweeps raises NumericFailure. Every
    step acts on each fit alone, so a fit gives the same bits alone or in
    any stack.
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
    # cols[d, j] is column j of design d's Gram matrix; fit f regresses on design[f].
    cols = np.ascontiguousarray(gram.transpose(0, 2, 1))
    design = fit // t
    diag = np.diagonal(cols, axis1=1, axis2=2)[design]
    scale = np.where(diag > 0.0, diag, np.inf)
    # The last pattern each fit pivoted from without certifying.
    rejected = np.full((p * t, q), np.nan)
    worst = np.full(p * t, np.inf)
    for _ in range(LASSO_MAX_ITERS):
        if fit.size == 0:
            break
        worst = np.zeros(fit.size)
        for j in range(q):
            rho = grad[:, j] + diag[:, j] * w[:, j]
            shrunk = np.abs(rho) - lam
            new = np.where(shrunk > 0.0, np.copysign(shrunk, rho), 0.0) / scale[:, j]
            delta = new - w[:, j]
            w[:, j] = new
            grad -= cols[design, j] * delta[:, None]
            np.maximum(worst, np.abs(delta), out=worst)
        done = worst < LASSO_TOL
        pivot = np.flatnonzero(np.any(np.sign(w) != rejected, axis=1))
        if pivot.size:
            exact, certified = _kkt_finish(
                cols, design[pivot], target[fit[pivot]], lam, w[pivot], grad[pivot], diag[pivot]
            )
            w[pivot[certified]] = exact[certified]
            done[pivot[certified]] = True
            rejected[pivot[~certified]] = np.sign(w[pivot[~certified]])
        if np.any(done):
            out[fit[done]] = w[done]
            keep = ~done
            fit, design, grad, w, diag, scale, rejected, worst = (
                a[keep] for a in (fit, design, grad, w, diag, scale, rejected, worst)
            )
    if fit.size:
        raise NumericFailure(
            f"coordinate descent left {fit.size} of {p * t} fits unconverged after "
            f"{LASSO_MAX_ITERS} sweeps; largest final |Δw| {worst.max():.3g} (tol {LASSO_TOL:g})"
        )
    return out.reshape(p, t, q).transpose(0, 2, 1)


def lasso_fit(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Minimizer of (1/2n)‖y - Xw‖² + λ‖w‖₁: lasso_gram_fit on XᵀX/n and Xᵀy/n.

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
    w = lasso_gram_fit((x.T @ x / n)[None], cross, lam)[0]
    return w[:, 0] if y.ndim == 1 else w
