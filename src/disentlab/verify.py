"""The closed-form suites of `disentlab verify-theorems`, one SUITES entry each.

run() checks the config's `suites` section against every entry before any
suite runs, then runs the suites in table order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .cli import CliError, _csv, _defaults, _fmt, _section
from .contrastive import DiscreteDistributionFamily, js_identity_values, train_discriminator
from .lingauss import (
    LOG_2PI,
    OptimizerConfig,
    TheoremReport,
    bias_decompositions,
    optimize_generators,
    rank_r_truncation,
)


class Suite(NamedTuple):
    """One suite: checks(seed, suites, opt, thresholds, ascents) and the config it reads.

    checks yields (case, quantity, value, threshold) per check, which passes
    when value <= threshold, so a NaN value fails, and appends one
    ascents.csv row per ascent it runs to ascents. keys maps each `suites`
    key it reads to its default, least a key to its least value, and most a
    code dimension to the key bounding it: an integer key, or a list key by
    its length. A list key holds eigenvalues: at least two, each positive.
    thresholds maps each of its `thresholds` keys to its default.
    """

    checks: Callable[..., Iterator[tuple]]
    keys: dict
    least: dict
    thresholds: dict
    most: dict = {}


def _ascent_row(suite: str, case: str, report: TheoremReport) -> list[str]:
    """A projected ascent's ascents.csv row; the discriminator columns stay empty."""
    return [suite, case, str(len(report.history) - 1), str(report.backtracks), report.stop, "", ""]


def _semi_orthonormal(seed, suites, opt, thresholds, ascents):
    """Recovered code maps are semi-orthonormal and hit the closed-form optimum."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    d, r = suites["d"], suites["r"]
    optimum = -0.5 * r * LOG_2PI
    runs, cases = [], []
    for m_idx in range(suites["matrices"]):
        m = rng.standard_normal((d, d))
        sigma = m @ m.T + 0.5 * np.eye(d)
        for s_idx in range(suites["seeds"]):
            runs.append((sigma, s_idx))
            cases.append(f"sigma{m_idx:02d}_seed{s_idx:02d}")
    _, _, reports = optimize_generators(runs, r, OptimizerConfig("infogan", **opt))
    for case, report in zip(cases, reports):
        ascents.append(_ascent_row("semi_orthonormal", case, report))
        yield (case, "orthonormality_residual", report.orthonormality_residual,
               thresholds["orthonormality_residual"])
        yield (case, "objective_gap", abs(report.history[-1] - optimum),
               thresholds["objective_gap"])


def _pca_recovery(seed, suites, opt, thresholds, ascents):
    """The coupling objective recovers the top principal components."""
    spectrum = np.asarray(suites["spectrum"])
    pca_r = suites["pca_r"]
    sigma = np.diag(spectrum)
    w_desc = np.sort(spectrum)[::-1]
    trunc = rank_r_truncation(sigma, pca_r)
    runs = [(sigma, s_idx) for s_idx in range(suites["pca_seeds"])]
    maps, _, reports = optimize_generators(runs, pca_r, OptimizerConfig("cr_frobenius", **opt))
    for s_idx, (b, report) in enumerate(zip(maps, reports)):
        case = f"seed{s_idx:02d}"
        ascents.append(_ascent_row("pca_recovery", case, report))
        yield (case, "alignment_gap", 1.0 - report.pca_alignment.min(),
               thresholds["alignment_gap"])
        relative = report.norm_errors / w_desc[list(report.permutation)]
        yield case, "norm_relative_error", relative.max(), thresholds["norm_relative_error"]
        yield (case, "truncation_gap", np.linalg.norm(b @ b.T - trunc),
               thresholds["truncation_gap"])


def _js_families(seed, suites) -> list[DiscreteDistributionFamily]:
    """The js_identity suite's families, each with full support."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    families = []
    for _ in range(suites["families"]):
        k = int(rng.integers(2, suites["k_max"] + 1))
        support = int(rng.integers(2, suites["support_max"] + 1))
        probs = rng.uniform(0.2, 1.0, (k, support))
        probs /= probs.sum(axis=1, keepdims=True)
        families.append(DiscreteDistributionFamily(probs))
    return families


def _js_identity(seed, suites, opt, thresholds, ascents):
    """The best discrimination value is the mixture divergence minus log k; ascent attains it."""
    families = _js_families(seed, suites)
    logits, steps, grad_max, converged = train_discriminator(families)
    rows = zip(families, steps.tolist(), grad_max.tolist(), converged.tolist(),
               *js_identity_values(families, logits))
    for f_idx, (family, n_steps, grad, ok, best, js, fit) in enumerate(rows):
        case = f"family{f_idx:03d}"
        ascents.append(["js_identity", case, str(n_steps), "", "", _fmt(grad), str(ok).lower()])
        yield (case, "identity_gap", abs(best - (js - math.log(family.k))),
               thresholds["js_identity_gap"])
        yield case, "training_gap", best - fit, thresholds["js_training_gap"]


def _bias_identity(seed, suites, opt, thresholds, ascents):
    """The recognition loss splits into information minus entropy minus a nonnegative bias."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    d, r = suites["bias_d"], suites["bias_r"]
    draws = [(rng.standard_normal((d, d)), rng.standard_normal((d, r)))
             for _ in range(suites["bias_cases"])]
    m, bt = map(np.stack, zip(*draws))
    bt *= 0.9 / np.linalg.svd(bt, compute_uv=False)[:, :1, None]
    decs = bias_decompositions(m @ m.transpose(0, 2, 1) + 0.5 * np.eye(d), bt)
    for c_idx, (mi, entropy, bias, loss) in enumerate(zip(*(a.tolist() for a in decs))):
        case = f"case{c_idx:03d}"
        yield (case, "decomposition_residual", abs(loss - (mi - entropy - bias)),
               thresholds["decomposition_residual"])
        yield case, "bias_negative_part", max(0.0, -bias), thresholds["bias_negative_part"]


# Counts are at least 1, a family needs two classes and two support points,
# and the coupling divergence of pca_recovery needs two code columns.
SUITES = {
    "semi_orthonormal": Suite(
        _semi_orthonormal,
        keys={"matrices": 10, "seeds": 10, "d": 6, "r": 3},
        least={"matrices": 1, "seeds": 1, "r": 1},
        most={"r": "d"},
        thresholds={"orthonormality_residual": 1e-4, "objective_gap": 1e-4},
    ),
    "pca_recovery": Suite(
        _pca_recovery,
        keys={"spectrum": [9.0, 4.0, 1.0, 0.25, 0.04], "pca_r": 2, "pca_seeds": 10},
        least={"pca_r": 2, "pca_seeds": 1},
        most={"pca_r": "spectrum"},
        thresholds={"alignment_gap": 1e-3, "norm_relative_error": 1e-3, "truncation_gap": 1e-3},
    ),
    "js_identity": Suite(
        _js_identity,
        keys={"families": 100, "k_max": 5, "support_max": 8},
        least={"families": 1, "k_max": 2, "support_max": 2},
        thresholds={"js_identity_gap": 1e-12, "js_training_gap": 1e-4},
    ),
    "bias_identity": Suite(
        _bias_identity,
        keys={"bias_cases": 100, "bias_d": 4, "bias_r": 2},
        least={"bias_cases": 1, "bias_r": 1},
        most={"bias_r": "bias_d"},
        thresholds={"decomposition_residual": 1e-10, "bias_negative_part": 0.0},
    ),
}
DEFAULTS = {key: v for suite in SUITES.values() for key, v in suite.keys.items()}
THRESHOLDS = {key: v for suite in SUITES.values() for key, v in suite.thresholds.items()}


def _check_suites(suites: dict) -> None:
    """Exit 2 on the first `suites` value, in SUITES order, outside what its entry allows."""
    for entry in SUITES.values():
        for key in entry.keys:
            value, least = suites[key], entry.least.get(key)
            if isinstance(value, list):
                if len(value) < 2:
                    raise CliError(f"config value suites.{key} must list at least two eigenvalues")
                for i, v in enumerate(value):
                    if not v > 0:
                        raise CliError(f"config value suites.{key}[{i}] must be positive, got {v}")
            elif key in entry.most:
                most, bound = suites[entry.most[key]], f"suites.{entry.most[key]}"
                if isinstance(most, list):
                    most, bound = len(most), f"the length of {bound}"
                if not least <= value <= most:
                    raise CliError(f"config value suites.{key} must be between {least} and "
                                   f"{bound} = {most}, got {value}")
            elif least is not None and value < least:
                raise CliError(f"config value suites.{key} must be at least {least}, got {value}")


def run(seed: int, config: dict) -> tuple[int, dict[str, bytes]]:
    """Print each suite's check and failure counts; return the failures and the two CSVs."""
    suites = _section(config, "suites", DEFAULTS)
    opt = _section(config, "optimizer", _defaults(OptimizerConfig, "lam", "alpha"))
    thresholds = _section(config, "thresholds", THRESHOLDS)
    _check_suites(suites)

    rows, ascents = [], []
    for suite, entry in SUITES.items():
        for case, quantity, value, limit in entry.checks(seed, suites, opt, thresholds, ascents):
            status = "pass" if value <= limit else "fail"
            rows.append([suite, case, quantity, _fmt(value), _fmt(limit), status])
    failures = 0
    for suite in SUITES:
        statuses = [row[5] for row in rows if row[0] == suite]
        failures += statuses.count("fail")
        print(f"{suite}: {len(statuses)} checks, {statuses.count('fail')} failures")
    return failures, {
        "theorem_checks.csv": _csv(["suite", "case", "quantity", "value", "threshold", "status"],
                                   rows),
        "ascents.csv": _csv(["suite", "case", "iterations", "backtracks", "stop", "grad_max",
                             "converged"], ascents),
    }
