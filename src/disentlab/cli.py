"""Command-line laboratory driver.

Subcommands
-----------
verify-theorems   run the four closed-form verification suites, one CSV row per check
                  and one per ascent
gen-data          write a circular-sprite image set or a sampled linear-Gaussian dataset
optimize          fit a generator to a target covariance; save model JSON + ascent history
metrics           score a model (and dataset) with the metric suite
select            rank a pool manifest by centrality or pairwise code relevance
analyze           rank-correlation matrix across score CSVs

Report CSVs carry 12 significant digits with LF line endings, and every
subcommand is byte-identical across reruns with the same inputs, seed, and
any --threads value; only select --method model-centrality uses threads.
Exit codes: 0 success, 1 failed verification check, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .contrastive import (
    DiscreteDistributionFamily,
    cross_entropy_objective,
    js_divergence,
    optimal_discriminator,
    train_discriminator,
)
from .datasets import (
    CircularSpec,
    gen_circular_dsprites,
    gen_linear_gaussian_dataset,
    write_circular_dataset,
)
from .errors import DisentLabError
from .linalg import SymMatrix, spd_sqrt
from .lingauss import (
    LOG_2PI,
    MATCHED_RTOL,
    LinearGenerator,
    OptimizerConfig,
    bias_decomposition,
    is_distribution_matched,
    matched_generator,
    TheoremReport,
    optimize_generators,
    posterior,
    rank_r_truncation,
)
from .metrics import (
    LASSO_LAMBDA,
    FactorDataset,
    FactorVaeConfig,
    GeneratorSampler,
    LinearEncoder,
    MetricReport,
    dci_disentanglement,
    dhsic,
    factorvae_metric,
)
from .plots import heatmap_svg, line_chart_svg, write_svg
from .selection import (
    ModelPool,
    model_centrality,
    rank_correlation_analysis,
    subsampled_centrality,
    udr_pair_scores,
    udr_select,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_VERIFY_SUITES = {
    "matrices": 10,
    "seeds": 10,
    "d": 6,
    "r": 3,
    "spectrum": [9.0, 4.0, 1.0, 0.25, 0.04],
    "pca_r": 2,
    "pca_seeds": 10,
    "families": 100,
    "k_max": 5,
    "support_max": 8,
    "bias_cases": 100,
    "bias_d": 4,
    "bias_r": 2,
}
# Counts must be at least 1; a family needs two classes and two support points.
_VERIFY_MINIMUMS = {
    **dict.fromkeys(("matrices", "seeds", "pca_seeds", "families", "bias_cases"), 1),
    "k_max": 2,
    "support_max": 2,
}
_VERIFY_THRESHOLDS = {
    "orthonormality_residual": 1e-4,
    "objective_gap": 1e-4,
    "alignment_gap": 1e-3,
    "norm_relative_error": 1e-3,
    "truncation_gap": 1e-3,
    "js_identity_gap": 1e-12,
    "js_training_gap": 1e-4,
    "decomposition_residual": 1e-10,
    "bias_negative_part": 0.0,
}
_METRIC_NAMES = ("factorvae", "dci", "dhsic")


class CliError(Exception):
    """Usage or I/O problem that aborts the subcommand with exit code 2."""


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def _out_path(path_str: str) -> Path:
    """The --out directory, checked before any input is read.

    Each subcommand makes it only once its outputs are computed, so a run
    that exits 2 leaves no directory behind.
    """
    path = Path(path_str)
    if path.exists() and not path.is_dir():
        raise CliError(f"{path} exists and is not a directory")
    if not path.parent.is_dir():
        raise CliError(f"output directory {path} has no existing parent")
    return path


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_matrix_report(path: Path, labels, m: np.ndarray) -> None:
    rows = [[label, *(_fmt(v) for v in row)] for label, row in zip(labels, m)]
    _write_csv(path, ["label", *labels], rows)


def _load_json(path_str) -> dict:
    path = Path(path_str)
    if not path.is_file():
        raise CliError(f"missing input file {path}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise CliError(f"{path} must hold a JSON object")
    return obj


def _load_config(arg, allowed: tuple[str, ...]) -> dict:
    if arg is None:
        return {}
    config = _load_json(arg)
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise CliError(
            f"unknown config sections: {', '.join(unknown)} (expected {', '.join(allowed)})"
        )
    return config


def _typed(key: str, value, default):
    """A config value converted to the type of its default; any other value exits 2.

    Integer defaults take integers and integral floats such as 1e5, float
    defaults take any finite number, and list defaults take a list of finite
    numbers. JSON's NaN and Infinity are numbers to the parser, so both
    branches exclude them explicitly.
    """
    if isinstance(default, list):
        if isinstance(value, list):
            return [_typed(f"{key}[{i}]", v, 0.0) for i, v in enumerate(value)]
        want = "a list of numbers"
    else:
        want = "a finite number" if isinstance(default, float) else "an integer"
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if isinstance(default, float):
                if abs(value) <= sys.float_info.max:  # false for nan, ±inf and huge integers
                    return float(value)
            elif value % 1 == 0:  # nan and inf leave a nan remainder
                return int(value)
    raise CliError(f"config value {key} must be {want}, got {json.dumps(value)}")


def _section(config: dict, name: str, defaults: dict) -> dict:
    """Defaults of one config section, overridden by the given values of the same types."""
    given = config.get(name, {})
    if not isinstance(given, dict):
        raise CliError(f"config section {name!r} must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise CliError(f"unknown keys in config section {name!r}: {', '.join(unknown)}")
    merged = dict(defaults)
    merged.update((key, _typed(f"{name}.{key}", v, defaults[key])) for key, v in given.items())
    return merged


def _defaults(cls, *omit: str) -> dict:
    """Config defaults of a dataclass: every field but the seed, the objective and `omit`."""
    skip = ("seed", "objective", *omit)
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


def _save_model(path: Path, gen: LinearGenerator, extra: dict) -> None:
    obj = gen.to_dict()
    obj["encoder"] = [float(v) for v in posterior(gen).mean_map.ravel()]
    obj.update(extra)
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model(path_str) -> tuple[LinearGenerator, LinearEncoder]:
    """Generator and encoder of a model file, rejecting non-finite or unmatched models."""
    obj = _load_json(path_str)
    try:
        gen = LinearGenerator.from_dict(obj)
        weight = np.asarray(obj.get("encoder", []), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path_str}: not a valid model file ({exc})") from None
    entries = {"B": gen.B, "A": gen.A, "sigma": gen.sigma.entries, "encoder": weight}
    for name, values in entries.items():
        if not np.all(np.isfinite(values)):
            raise CliError(f"{path_str}: {name} holds non-finite entries")
    if not is_distribution_matched(gen):
        raise CliError(
            f"{path_str}: BBᵀ + AAᵀ does not match sigma (relative tolerance {MATCHED_RTOL:g})"
        )
    if "encoder" in obj:
        if weight.size != gen.r * gen.d:
            raise CliError(f"{path_str}: encoder must hold {gen.r * gen.d} weights")
        return gen, LinearEncoder(weight.reshape(gen.r, gen.d))
    return gen, LinearEncoder.from_generator(gen)


def _factorvae_config(config: dict, seed: int) -> FactorVaeConfig:
    return FactorVaeConfig(**_section(config, "factorvae", _defaults(FactorVaeConfig)), seed=seed)


# ---------------------------------------------------------------------------
# verify-theorems


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
        sigma = SymMatrix(m @ m.T + 0.5 * np.eye(d))
        for s_idx in range(suites["seeds"]):
            runs.append((sigma, s_idx))
            cases.append(f"sigma{m_idx:02d}_seed{s_idx:02d}")
    fits = optimize_generators(runs, r, OptimizerConfig("infogan", **opt))
    for case, (_, report) in zip(cases, fits):
        ascents.append(_ascent_row("semi_orthonormal", case, report))
        yield (case, "orthonormality_residual", report.orthonormality_residual,
               thresholds["orthonormality_residual"])
        yield (case, "objective_gap", abs(report.objective_value - optimum),
               thresholds["objective_gap"])


def _pca_recovery(seed, suites, opt, thresholds, ascents):
    """The coupling objective recovers the top principal components."""
    spectrum = np.asarray(suites["spectrum"])
    pca_r = suites["pca_r"]
    sigma = SymMatrix(np.diag(spectrum))
    w_desc = np.sort(spectrum)[::-1]
    trunc = rank_r_truncation(sigma, pca_r).entries
    runs = [(sigma, s_idx) for s_idx in range(suites["pca_seeds"])]
    fits = optimize_generators(runs, pca_r, OptimizerConfig("cr_frobenius", **opt))
    for s_idx, (gen, report) in enumerate(fits):
        case = f"seed{s_idx:02d}"
        ascents.append(_ascent_row("pca_recovery", case, report))
        yield (case, "alignment_gap", 1.0 - report.pca_alignment.min(),
               thresholds["alignment_gap"])
        relative = report.norm_errors / w_desc[list(report.permutation)]
        yield case, "norm_relative_error", relative.max(), thresholds["norm_relative_error"]
        yield (case, "truncation_gap", np.linalg.norm(gen.B @ gen.B.T - trunc),
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
    for f_idx, (family, ascent) in enumerate(zip(families, train_discriminator(families))):
        case = f"family{f_idx:03d}"
        ascents.append(["js_identity", case, str(ascent.iterations), "", "",
                        _fmt(ascent.grad_max), str(ascent.converged).lower()])
        best = cross_entropy_objective(family, optimal_discriminator(family))
        yield (case, "identity_gap", abs(best - (js_divergence(family) - math.log(family.k))),
               thresholds["js_identity_gap"])
        trained = cross_entropy_objective(family, ascent.discriminator)
        yield case, "training_gap", best - trained, thresholds["js_training_gap"]


def _bias_identity(seed, suites, opt, thresholds, ascents):
    """The recognition loss splits into information minus entropy minus a nonnegative bias."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    d, r = suites["bias_d"], suites["bias_r"]
    for c_idx in range(suites["bias_cases"]):
        m = rng.standard_normal((d, d))
        sigma = SymMatrix(m @ m.T + 0.5 * np.eye(d))
        bt = rng.standard_normal((d, r))
        bt *= 0.9 / np.linalg.svd(bt, compute_uv=False)[0]
        dec = bias_decomposition(matched_generator(sigma, spd_sqrt(sigma).entries @ bt))
        case = f"case{c_idx:03d}"
        split = dec.mutual_information - dec.latent_entropy - dec.implicit_bias
        yield (case, "decomposition_residual", abs(dec.info_loss - split),
               thresholds["decomposition_residual"])
        yield (case, "bias_negative_part", max(0.0, -dec.implicit_bias),
               thresholds["bias_negative_part"])


# Each suite yields (case, quantity, value, threshold); a check passes when
# value <= threshold, so a NaN value fails. A suite that runs ascents appends
# one ascents.csv row per ascent to its last argument.
_VERIFY = {
    "semi_orthonormal": _semi_orthonormal,
    "pca_recovery": _pca_recovery,
    "js_identity": _js_identity,
    "bias_identity": _bias_identity,
}


def cmd_verify_theorems(args) -> int:
    out = _out_path(args.out)
    config = _load_config(args.config, ("suites", "optimizer", "thresholds"))
    suites = _section(config, "suites", _VERIFY_SUITES)
    opt = _section(config, "optimizer", _defaults(OptimizerConfig, "lam", "alpha"))
    thresholds = _section(config, "thresholds", _VERIFY_THRESHOLDS)
    for key, least in _VERIFY_MINIMUMS.items():
        if suites[key] < least:
            raise CliError(
                f"config value suites.{key} must be at least {least}, got {suites[key]}"
            )
    if len(suites["spectrum"]) < 2:
        raise CliError("config value suites.spectrum must list at least two eigenvalues")

    rows, ascents = [], []
    for suite, checks in _VERIFY.items():
        for case, quantity, value, threshold in checks(args.seed, suites, opt, thresholds, ascents):
            status = "pass" if value <= threshold else "fail"
            rows.append([suite, case, quantity, _fmt(value), _fmt(threshold), status])
    out.mkdir(exist_ok=True)
    _write_csv(
        out / "theorem_checks.csv",
        ["suite", "case", "quantity", "value", "threshold", "status"],
        rows,
    )
    _write_csv(
        out / "ascents.csv",
        ["suite", "case", "iterations", "backtracks", "stop", "grad_max", "converged"],
        ascents,
    )
    failures = 0
    for suite in _VERIFY:
        statuses = [row[5] for row in rows if row[0] == suite]
        failures += statuses.count("fail")
        print(f"{suite}: {len(statuses)} checks, {statuses.count('fail')} failures")
    print(f"wrote theorem_checks.csv and ascents.csv to {out}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    out = _out_path(args.out)
    if args.circular:
        spec = CircularSpec(
            canvas_size=args.canvas,
            disc_radius=args.radius,
            n_radii=args.n_radii,
            n_angles=args.n_angles,
        )
        images, factors = gen_circular_dsprites(spec)
        out.mkdir(exist_ok=True)
        write_circular_dataset(out, images, factors)
        print(f"wrote {images.shape[0]} images and factors.csv to {out}")
        return EXIT_OK
    if args.model is None:
        raise CliError("--linear-gaussian requires --model")
    gen, _ = _load_model(args.model)
    ds = gen_linear_gaussian_dataset(gen, args.n, args.seed)
    out.mkdir(exist_ok=True)
    ds.save(out)
    print(f"wrote {ds.n} samples ({ds.sample_dim}-d, {ds.n_factors} factors) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize


def _read_sigma(args) -> SymMatrix:
    if args.sigma_diag is not None:
        source = "--sigma-diag"
        try:
            m = np.diag([float(v) for v in args.sigma_diag.split(",")])
        except ValueError:
            raise CliError(
                f"--sigma-diag must be comma-separated numbers, got {args.sigma_diag!r}"
            ) from None
    else:
        source = Path(args.sigma)
        if not source.is_file():
            raise CliError(f"missing input file {source}")
        with open(source, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row]
        try:
            m = np.asarray([[float(v) for v in row] for row in raw], dtype=float)
        except ValueError:
            raise CliError(f"{source} must hold a plain numeric matrix") from None
    if not np.all(np.isfinite(m)):
        raise CliError(f"{source} holds non-finite entries")
    return SymMatrix(m)


def cmd_optimize(args) -> int:
    out = _out_path(args.out)
    config = _load_config(args.config, ("optimizer",))
    opt = _section(config, "optimizer", _defaults(OptimizerConfig))
    sigma = _read_sigma(args)
    objective = {"cr": "cr_frobenius"}.get(args.objective, args.objective)
    if args.restarts < 1:
        raise CliError(f"--restarts must be positive, got {args.restarts}")
    seeds = [args.seed + i for i in range(args.restarts)]
    results = optimize_generators(
        [(sigma, seed) for seed in seeds], args.r, OptimizerConfig(objective, **opt)
    )
    best = max(range(len(seeds)), key=lambda i: results[i][1].objective_value)
    gen, report = results[best]
    out.mkdir(exist_ok=True)
    _save_model(out / "model.json", gen, {"objective": objective, "seed": seeds[best]})
    rows = [
        ["objective_value", _fmt(report.objective_value)],
        ["orthonormality_residual", _fmt(report.orthonormality_residual)],
        ["alignment_min", _fmt(report.pca_alignment.min())],
        ["norm_error_max", _fmt(report.norm_errors.max())],
        ["iterations", str(len(report.history) - 1)],
        ["seed", str(seeds[best])],
    ]
    rows += [[f"permutation_{i}", str(p)] for i, p in enumerate(report.permutation)]
    rows += [["stop_reason", report.stop], ["backtracks", str(report.backtracks)]]
    _write_csv(out / "report.csv", ["quantity", "value"], rows)
    history = np.asarray(report.history, dtype=float)
    _write_csv(
        out / "history.csv",
        ["iteration", "objective"],
        [[str(i), _fmt(v)] for i, v in enumerate(history)],
    )
    write_svg(
        out / "history.svg",
        line_chart_svg(
            np.arange(history.size, dtype=float),
            history,
            objective,
            title="objective ascent",
            x_label="iteration",
            y_label="objective",
        ),
    )
    print(
        f"best seed {seeds[best]}: objective {_fmt(report.objective_value)}; "
        f"wrote model.json, report.csv, history.csv, history.svg to {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics


def cmd_metrics(args) -> int:
    out = _out_path(args.out)
    config = _load_config(args.config, ("factorvae", "dci"))
    dci_cfg = _section(config, "dci", {"lasso_lambda": LASSO_LAMBDA})
    factorvae_cfg = _factorvae_config(config, args.seed)
    names = [v.strip() for v in args.metrics.split(",") if v.strip()]
    if not names:
        raise CliError("--metrics must list at least one metric")
    unknown = sorted(set(names) - set(_METRIC_NAMES))
    if unknown:
        raise CliError(
            f"unknown metrics: {', '.join(unknown)} (expected {', '.join(_METRIC_NAMES)})"
        )
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        raise CliError(f"--metrics lists {', '.join(repeated)} more than once")
    gen, enc = _load_model(args.model)
    ds = None
    if {"dci", "dhsic"} & set(names):
        if args.data is None:
            raise CliError("dci and dhsic need --data")
        data_dir = Path(args.data)
        if not data_dir.is_dir():
            raise CliError(f"missing input directory {data_dir}")
        try:
            ds = FactorDataset.load(data_dir)
        except (OSError, ValueError, IndexError) as exc:
            raise CliError(f"could not load dataset from {data_dir}: {exc}") from None

    reports = []
    for name in names:
        if name == "factorvae":
            report = factorvae_metric(GeneratorSampler(gen), enc, factorvae_cfg)
        elif name == "dci":
            report = dci_disentanglement(ds, enc, lasso_lambda=dci_cfg["lasso_lambda"])
        else:
            report = MetricReport("dhsic", dhsic(enc.encode(ds.samples)))
        reports.append(report)
    out.mkdir(exist_ok=True)
    for name, report in zip(names, reports):
        detail = [[key, _fmt(value)] for key, value in report.detail] or [["", ""]]
        _write_csv(
            out / f"{name}.csv",
            ["metric", "score", "detail_key", "detail_value"],
            [[report.name, _fmt(report.score), *row] for row in detail],
        )
    _write_csv(
        out / "summary.csv",
        ["metric", "score"],
        [[r.name, _fmt(r.score)] for r in reports],
    )
    for r in reports:
        print(f"{r.name}: {_fmt(r.score)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select


def cmd_select(args) -> int:
    out = _out_path(args.out)
    config = _load_config(args.config, ("factorvae", "udr"))
    udr_cfg = _section(config, "udr", {"samples": 10_000, "lasso_lambda": LASSO_LAMBDA})
    factorvae_cfg = _factorvae_config(config, args.seed)

    manifest_path = Path(args.pool)
    manifest = _load_json(manifest_path)
    models = manifest.get("models")
    if not isinstance(models, list) or len(models) < 2:
        raise CliError(f"{manifest_path} must list at least two entries under 'models'")
    labels = manifest.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != len(models)):
        raise CliError("manifest 'labels' must align with 'models'")
    entries = []
    for idx, rel in enumerate(models):
        gen, enc = _load_model(manifest_path.parent / str(rel))
        label = str(labels[idx]) if labels else str(rel).removesuffix(".json")
        entries.append((gen, enc, label))
    pool = ModelPool(tuple(entries))

    if args.method == "model-centrality":
        matrix = model_centrality(pool, factorvae_cfg, threads=args.threads)
        report = subsampled_centrality(pool, matrix, args.fraction, args.trials, args.seed)
    else:
        variant = args.method.removeprefix("udr-")
        samples = gen_linear_gaussian_dataset(
            pool.generator(0), udr_cfg["samples"], args.seed
        ).samples
        matrix = udr_pair_scores(pool, samples, variant, udr_cfg["lasso_lambda"])
        report = udr_select(pool, matrix, variant, args.fraction, args.trials, args.seed)

    out.mkdir(exist_ok=True)
    _write_csv(
        out / "scores.csv",
        ["model", "label", "score", "stderr"],
        [
            [str(i), label, _fmt(score), _fmt(err)]
            for i, (label, score, err) in enumerate(
                zip(report.labels, report.scores, report.stderr)
            )
        ],
    )
    _write_matrix_report(out / "similarity.csv", report.labels, matrix)
    order = np.argsort(-report.scores, kind="stable")
    sorted_labels = [report.labels[i] for i in order]
    write_svg(
        out / "similarity.svg",
        heatmap_svg(
            matrix[np.ix_(order, order)],
            sorted_labels,
            sorted_labels,
            title=f"{report.method} similarity (sorted by score)",
        ),
    )
    summary = {
        "method": report.method,
        "selected": report.selected,
        "label": report.labels[report.selected],
        "score": float(_fmt(report.scores[report.selected])),
    }
    with open(out / "selection.json", "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"selected model {report.selected} ({report.labels[report.selected]}) "
        f"with score {_fmt(report.scores[report.selected])}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _read_score_column(path: Path) -> np.ndarray:
    if not path.is_file():
        raise CliError(f"missing input file {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or "score" not in rows[0]:
        raise CliError(f"{path} has no 'score' column")
    col = rows[0].index("score")
    try:
        scores = np.asarray([float(row[col]) for row in rows[1:]], dtype=float)
    except (ValueError, IndexError):
        raise CliError(f"{path} has malformed score rows") from None
    if not np.all(np.isfinite(scores)):
        raise CliError(f"{path} holds non-finite scores")
    return scores


def cmd_analyze(args) -> int:
    out = _out_path(args.out)
    named = []
    seen = set()
    for path_str in args.scores:
        path = Path(path_str)
        name = path.stem
        if name in seen:
            raise CliError(f"duplicate metric name {name!r}; rename the input files")
        seen.add(name)
        vector = _read_score_column(path)
        if vector.size < 2:
            raise CliError(f"{path} needs at least two score rows")
        named.append((name, vector))
    corr = rank_correlation_analysis(named)
    names = [name for name, _ in named]
    out.mkdir(exist_ok=True)
    _write_matrix_report(out / "rank_correlation.csv", names, corr.entries)
    write_svg(
        out / "rank_correlation.svg",
        heatmap_svg(corr.entries, names, names, title="rank correlation"),
    )
    print(f"wrote rank_correlation.csv and rank_correlation.svg to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomized work")
    common.add_argument(
        "--out", required=True, help="output directory (created when its parent exists)"
    )
    common.add_argument("--config", help="JSON file with parameter overrides")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads; only select --method model-centrality uses them, "
        "and results are identical for any value",
    )

    parser = argparse.ArgumentParser(
        prog="disentlab",
        description="linear-Gaussian disentanglement laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-theorems",
        parents=[common],
        help="run the four closed-form verification suites",
    )
    p.set_defaults(handler=cmd_verify_theorems)

    p = sub.add_parser(
        "gen-data", parents=[common], help="write an image set or a sampled dataset"
    )
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument(
        "--circular", action="store_true", help="circular-sprite PGMs + factors.csv"
    )
    kind.add_argument(
        "--linear-gaussian",
        action="store_true",
        help="samples.csv + factors.csv drawn from --model",
    )
    p.add_argument("--model", help="model JSON (with --linear-gaussian)")
    p.add_argument("--n", type=int, default=10_000, help="sample count (with --linear-gaussian)")
    p.add_argument("--n-radii", type=int, default=27)
    p.add_argument("--n-angles", type=int, default=40)
    p.add_argument("--canvas", type=int, default=64)
    p.add_argument("--radius", type=int, default=5)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser(
        "optimize", parents=[common], help="fit a generator to a target covariance"
    )
    p.add_argument("--objective", choices=("infogan", "cr", "combined"), default="infogan")
    p.add_argument("--r", type=int, required=True, help="number of latent code columns")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--sigma", help="CSV file holding the target covariance")
    source.add_argument("--sigma-diag", help="comma-separated diagonal, e.g. 9,4,1")
    p.add_argument(
        "--restarts",
        type=int,
        default=1,
        help="independent seeds, ascending together; best objective wins",
    )
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("metrics", parents=[common], help="score a model with the metric suite")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", help="dataset directory (needed by dci and dhsic)")
    p.add_argument(
        "--metrics",
        default=",".join(_METRIC_NAMES),
        help="comma-separated subset of " + ",".join(_METRIC_NAMES),
    )
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("select", parents=[common], help="rank a pool of models")
    p.add_argument(
        "--pool", required=True, help="manifest JSON with model paths relative to it"
    )
    p.add_argument(
        "--method",
        choices=("model-centrality", "udr-lasso", "udr-spearman"),
        default="model-centrality",
    )
    p.add_argument("--fraction", type=float, default=1.0, help="per-row subsample fraction")
    p.add_argument("--trials", type=int, default=1, help="subsample trials")
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser(
        "analyze", parents=[common], help="rank-correlation matrix across score CSVs"
    )
    p.add_argument(
        "--scores", nargs="+", required=True, help="score CSVs (must carry a 'score' column)"
    )
    p.set_defaults(handler=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (CliError, DisentLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
