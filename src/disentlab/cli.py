"""Command-line laboratory driver.

Subcommands
-----------
verify-theorems   run the four closed-form verification suites, one CSV row per check
                  and one per ascent
gen-data          write the circular-sprite image set as one multi-image PGM, or a
                  sampled linear-Gaussian dataset
optimize          fit a generator to a target covariance; save model JSON + ascent history
metrics           score a model (and dataset) with the metric suite
select            rank a pool manifest by centrality or pairwise code relevance
analyze           rank-correlation matrix across score CSVs

Every subcommand loads errors, linalg and lingauss; each loads the rest of
the package only when it runs:
verify-theorems   verify, contrastive
gen-data          datasets, metrics, lasso
optimize          plots
metrics           metrics, lasso
select            selection, datasets, metrics, lasso, plots; concurrent.futures only
                  for --method model-centrality at --threads above 1
analyze           selection, metrics, lasso, plots

Every subcommand takes --seed, --out and --threads; verify-theorems,
optimize, metrics and select also take --config, a JSON file of overrides.
Report CSVs carry 12 significant digits with LF line endings, and every
subcommand is byte-identical across reruns with the same inputs, seed, and
any --threads value; only select --method model-centrality uses threads.

Each subcommand returns its exit code and its files as bytes (or one uint8
buffer); main alone checks --out (before any input is read), makes it, writes
the files and prints one "wrote N files to OUT" line.
Exit codes: 0 success, 1 failed verification check (its files are still
written), 2 usage or I/O error, or an allocation the machine refuses. An exit
2 after a failed write removes the files the run wrote, and --out too if the
run made it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DisentLabError
from .linalg import frobenius_norm
from .lingauss import (
    MATCHED_RTOL,
    LinearGenerator,
    OptimizerConfig,
    is_distribution_matched,
    optimize_generators,
    posterior,
)

# datasets, metrics, plots, selection and verify are imported inside the
# functions that use them, so each process loads only what its subcommand
# runs: numpy and the package's imports are most of a short run's time.
if TYPE_CHECKING:
    from .metrics import FactorVaeConfig, LinearEncoder

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_METRIC_NAMES = ("factorvae", "dci", "dhsic")


class CliError(Exception):
    """Usage or I/O problem that aborts the subcommand with exit code 2."""


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def _csv(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _matrix_report(labels, m: np.ndarray) -> bytes:
    rows = [[label, *(_fmt(v) for v in row)] for label, row in zip(labels, m)]
    return _csv(["label", *labels], rows)


def _json(obj: dict) -> bytes:
    """Strict JSON: a NaN or infinite value raises ValueError, which exits 2."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


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
    """Config defaults of a dataclass: every field but the objective and `omit`."""
    skip = ("objective", *omit)
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


def _symmetric(m: np.ndarray, source) -> np.ndarray:
    """m unchanged, if it is square and symmetric to MATCHED_RTOL; otherwise exit 2.

    The library symmetrizes a covariance where it enters, averaging m with
    mᵀ, which would silently turn a mistyped input into another covariance.
    m must be finite.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise CliError(f"{source} must hold a square matrix, got shape {m.shape}")
    norm, skew = frobenius_norm(np.stack([m, 0.5 * m - 0.5 * m.T]))  # (Σ - Σᵀ)/2 cannot overflow
    if norm == np.inf:
        raise CliError(f"{source} holds a matrix whose Frobenius norm overflows float64")
    if skew > 0.5 * MATCHED_RTOL * norm:
        raise CliError(
            f"{source} holds an asymmetric matrix (‖Σ - Σᵀ‖_F = {2.0 * float(skew):.6g}, "
            f"over {MATCHED_RTOL:g}·‖Σ‖_F)"
        )
    return m


def _load_model(path_str) -> tuple[LinearGenerator, LinearEncoder]:
    """Generator and encoder of a model file; a non-finite, asymmetric or unmatched one exits 2."""
    from .metrics import LinearEncoder

    obj = _load_json(path_str)
    try:
        gen = LinearGenerator.from_dict(obj)
        weight = np.asarray(obj.get("encoder", []), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path_str}: not a valid model file ({exc})") from None
    entries = {"B": gen.B, "A": gen.A, "sigma": gen.sigma, "encoder": weight}
    for name, values in entries.items():
        if not np.all(np.isfinite(values)):
            raise CliError(f"{path_str}: {name} holds non-finite entries")
    _symmetric(np.reshape(np.asarray(obj["sigma"], dtype=float), (gen.d, gen.d)),
               f"{path_str}: sigma")
    if not is_distribution_matched(gen):
        raise CliError(
            f"{path_str}: BBᵀ + AAᵀ does not match sigma (relative tolerance {MATCHED_RTOL:g})"
        )
    if "encoder" in obj:
        if weight.size != gen.r * gen.d:
            raise CliError(f"{path_str}: encoder must hold {gen.r * gen.d} weights")
        return gen, LinearEncoder(weight.reshape(gen.r, gen.d))
    return gen, LinearEncoder.from_generator(gen)


def _factorvae_config(config: dict) -> FactorVaeConfig:
    from .metrics import FactorVaeConfig

    return FactorVaeConfig(**_section(config, "factorvae", _defaults(FactorVaeConfig)))


# ---------------------------------------------------------------------------
# verify-theorems


def cmd_verify_theorems(args) -> tuple[int, dict[str, bytes]]:
    from .verify import run

    config = _load_config(args.config, ("suites", "optimizer", "thresholds"))
    failures, files = run(args.seed, config)
    return EXIT_CHECK_FAILED if failures else EXIT_OK, files


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> tuple[int, dict[str, bytes | np.ndarray]]:
    from .datasets import (
        circular_dataset_files,
        gen_circular_dsprites,
        gen_linear_gaussian_dataset,
    )

    if args.circular:
        return EXIT_OK, circular_dataset_files(*gen_circular_dsprites())
    if args.model is None:
        raise CliError("--linear-gaussian requires --model")
    gen, _ = _load_model(args.model)
    return EXIT_OK, gen_linear_gaussian_dataset(gen, args.n, args.seed).csv_files()


# ---------------------------------------------------------------------------
# optimize


def _read_sigma(args) -> np.ndarray:
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
    return _symmetric(m, source)


def cmd_optimize(args) -> tuple[int, dict[str, bytes]]:
    from .plots import line_chart_svg

    config = _load_config(args.config, ("optimizer",))
    opt = _section(config, "optimizer", _defaults(OptimizerConfig))
    sigma = _read_sigma(args)
    objective = {"cr": "cr_frobenius"}.get(args.objective, args.objective)
    if args.restarts < 1:
        raise CliError(f"--restarts must be positive, got {args.restarts}")
    seeds = [args.seed + i for i in range(args.restarts)]
    maps, noise, reports = optimize_generators(
        [(sigma, seed) for seed in seeds], args.r, OptimizerConfig(objective, **opt)
    )
    best = max(range(len(seeds)), key=lambda i: reports[i].history[-1])
    gen, report = LinearGenerator(maps[best], noise[best], sigma), reports[best]
    model = gen.to_dict()
    model["encoder"] = [float(v) for v in posterior(gen).ravel()]
    model.update(objective=objective, seed=seeds[best])
    rows = [
        ["objective_value", _fmt(report.history[-1])],
        ["orthonormality_residual", _fmt(report.orthonormality_residual)],
        ["alignment_min", _fmt(report.pca_alignment.min())],
        ["norm_error_max", _fmt(report.norm_errors.max())],
        ["iterations", str(len(report.history) - 1)],
        ["seed", str(seeds[best])],
    ]
    rows += [[f"permutation_{i}", str(p)] for i, p in enumerate(report.permutation)]
    rows += [["stop_reason", report.stop], ["backtracks", str(report.backtracks)]]
    history = np.asarray(report.history, dtype=float)
    print(f"best seed {seeds[best]}: objective {_fmt(report.history[-1])}")
    return EXIT_OK, {
        "model.json": _json(model),
        "report.csv": _csv(["quantity", "value"], rows),
        "history.csv": _csv(
            ["iteration", "objective"], [[str(i), _fmt(v)] for i, v in enumerate(history)]
        ),
        "history.svg": line_chart_svg(history, objective).encode(),
    }


# ---------------------------------------------------------------------------
# metrics


def cmd_metrics(args) -> tuple[int, dict[str, bytes]]:
    from .metrics import (
        LASSO_LAMBDA,
        FactorDataset,
        dci_disentanglement,
        dhsic,
        factorvae_metric,
    )

    config = _load_config(args.config, ("factorvae", "dci"))
    dci_cfg = _section(config, "dci", {"lasso_lambda": LASSO_LAMBDA})
    factorvae_cfg = _factorvae_config(config)
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
        if ds.sample_dim != gen.d:
            raise CliError(
                f"--data {data_dir} holds samples of width {ds.sample_dim}, "
                f"but the model has d = {gen.d}"
            )

    scores, files = [], {}
    for name in names:
        if name == "factorvae":
            score, accuracy, _ = factorvae_metric(gen, enc, factorvae_cfg, args.seed)
            detail = [[f"factor_{i}_accuracy", _fmt(v)] for i, v in enumerate(accuracy)]
        elif name == "dci":
            score, per_code, _ = dci_disentanglement(ds, enc, lasso_lambda=dci_cfg["lasso_lambda"])
            detail = [[f"code_{i}_disentanglement", _fmt(per_code[i])]
                      for i in np.flatnonzero(np.isfinite(per_code))]
        else:
            score, detail = dhsic(enc.encode(ds.samples)), [["", ""]]
        scores.append(score)
        files[f"{name}.csv"] = _csv(["metric", "score", "detail_key", "detail_value"],
                                    [[name, _fmt(score), *row] for row in detail])
    files["summary.csv"] = _csv(["metric", "score"],
                                [[name, _fmt(score)] for name, score in zip(names, scores)])
    for name, score in zip(names, scores):
        print(f"{name}: {_fmt(score)}")
    return EXIT_OK, files


# ---------------------------------------------------------------------------
# select


def cmd_select(args) -> tuple[int, dict[str, bytes]]:
    from .datasets import gen_linear_gaussian_dataset
    from .metrics import LASSO_LAMBDA
    from .plots import heatmap_svg
    from .selection import (
        model_centrality,
        subsampled_centrality,
        udr_pair_scores,
        udr_select,
    )

    # Checked before the pool is scored, which takes seconds to minutes.
    if not 0.0 < args.fraction <= 1.0:
        raise CliError(f"--fraction must lie in (0, 1], got {args.fraction}")
    if args.trials < 1:
        raise CliError(f"--trials must be positive, got {args.trials}")
    config = _load_config(args.config, ("factorvae", "udr"))
    udr_cfg = _section(config, "udr", {"samples": 10_000, "lasso_lambda": LASSO_LAMBDA})
    factorvae_cfg = _factorvae_config(config)

    manifest_path = Path(args.pool)
    manifest = _load_json(manifest_path)
    models = manifest.get("models")
    if not isinstance(models, list) or len(models) < 2:
        raise CliError(f"{manifest_path} must list at least two entries under 'models'")
    labels = manifest.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != len(models)):
        raise CliError("manifest 'labels' must align with 'models'")
    labels = [str(v) for v in labels] if labels else [str(v).removesuffix(".json") for v in models]
    generators, encoders = zip(*(_load_model(manifest_path.parent / str(rel)) for rel in models))
    # Pool files come from outside the program, so the pool's shared
    # dimensions are checked here rather than trusted.
    dims = sorted({enc.code_dim for enc in encoders})
    if len(dims) != 1:
        raise CliError(f"encoders must share one code dimension, got {dims}")
    dims = sorted({gen.d for gen in generators})
    if len(dims) != 1:
        raise CliError(f"generators must share one sample dimension, got {dims}")

    method = args.method.replace("-", "_")
    if args.method == "model-centrality":
        matrix = model_centrality(
            generators, encoders, factorvae_cfg, args.seed, threads=args.threads
        )
        scores, stderr = subsampled_centrality(matrix, args.fraction, args.trials, args.seed)
    else:
        variant = args.method.removeprefix("udr-")
        samples = gen_linear_gaussian_dataset(generators[0], udr_cfg["samples"], args.seed).samples
        matrix = udr_pair_scores(encoders, samples, variant, udr_cfg["lasso_lambda"])
        scores, stderr = udr_select(matrix, args.fraction, args.trials, args.seed)

    selected = int(np.argmax(scores))  # ties go to the lowest index
    rows = [
        [str(i), label, _fmt(score), _fmt(err)]
        for i, (label, score, err) in enumerate(zip(labels, scores, stderr))
    ]
    order = np.argsort(-scores, kind="stable")
    heatmap = heatmap_svg(
        matrix[np.ix_(order, order)],
        [labels[i] for i in order],
        f"{method} similarity (sorted by score)",
    )
    summary = {
        "method": method,
        "selected": selected,
        "label": labels[selected],
        "score": float(_fmt(scores[selected])),
    }
    print(f"selected model {selected} ({labels[selected]}) with score {_fmt(scores[selected])}")
    return EXIT_OK, {
        "scores.csv": _csv(["model", "label", "score", "stderr"], rows),
        "similarity.csv": _matrix_report(labels, matrix),
        "similarity.svg": heatmap.encode(),
        "selection.json": _json(summary),
    }


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


def _score_labels(paths: list[Path]) -> list[str]:
    """Each path's shortest trailing part, without its suffix, that no other path ends with.

    alpha.csv and beta.csv read alpha and beta, and runs/a/scores.csv and
    runs/b/scores.csv read a/scores and b/scores. A path whose every
    trailing part another path shares reads in full, so a path given twice
    reads the same twice and cmd_analyze rejects it as a duplicate.
    """
    parts = [(*path.parent.parts, path.stem) for path in paths]
    labels = []
    for i, own in enumerate(parts):
        others = parts[:i] + parts[i + 1 :]
        n = next(
            (n for n in range(1, len(own)) if all(other[-n:] != own[-n:] for other in others)),
            len(own),
        )
        labels.append(Path(*own[-n:]).as_posix())
    return labels


def cmd_analyze(args) -> tuple[int, dict[str, bytes]]:
    from .plots import heatmap_svg
    from .selection import rank_correlation_analysis

    named = []
    seen = set()
    paths = [Path(path_str) for path_str in args.scores]
    for path, name in zip(paths, _score_labels(paths)):
        if name in seen:
            raise CliError(f"duplicate metric name {name!r}; rename the input files")
        seen.add(name)
        vector = _read_score_column(path)
        if vector.size < 2:
            raise CliError(f"{path} needs at least two score rows")
        named.append((name, vector))
    corr = rank_correlation_analysis(named)
    names = [name for name, _ in named]
    heatmap = heatmap_svg(corr, names, "rank correlation")
    return EXIT_OK, {
        "rank_correlation.csv": _matrix_report(names, corr),
        "rank_correlation.svg": heatmap.encode(),
    }


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed for all randomized work")
    common.add_argument(
        "--out", required=True, help="output directory (created when its parent exists)"
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads; only select --method model-centrality uses them, "
        "and results are identical for any value",
    )
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", help="JSON file with parameter overrides")

    parser = argparse.ArgumentParser(
        prog="disentlab",
        description="linear-Gaussian disentanglement laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-theorems",
        parents=[configured],
        help="run the four closed-form verification suites",
    )
    p.set_defaults(handler=cmd_verify_theorems)

    p = sub.add_parser(
        "gen-data", parents=[common], help="write an image set or a sampled dataset"
    )
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument(
        "--circular",
        action="store_true",
        help="the fixed 1080-image disc set: images.pgm (one 64x64 P5 frame per sprite, "
        "in factors.csv row order) + factors.csv",
    )
    kind.add_argument(
        "--linear-gaussian",
        action="store_true",
        help="samples.csv + factors.csv drawn from --model",
    )
    p.add_argument("--model", help="model JSON (with --linear-gaussian)")
    p.add_argument("--n", type=int, default=10_000, help="sample count (with --linear-gaussian)")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser(
        "optimize", parents=[configured], help="fit a generator to a target covariance"
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

    p = sub.add_parser("metrics", parents=[configured], help="score a model with the metric suite")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", help="dataset directory (needed by dci and dhsic)")
    p.add_argument(
        "--metrics",
        default=",".join(_METRIC_NAMES),
        help="comma-separated subset of " + ",".join(_METRIC_NAMES),
    )
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("select", parents=[configured], help="rank a pool of models")
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
    """Run one subcommand, then write the files it returns into --out.

    On a usage or I/O error, or a MemoryError, the files this run wrote and
    --out, if this run made it, are removed, so a run that exits 2 leaves no
    new --out behind. Each warning the subcommand raises is printed as one
    "warning: <message>" line on stderr.
    """
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    out, made, written = Path(args.out), False, []
    try:
        if out.exists() and not out.is_dir():
            raise CliError(f"{out} exists and is not a directory")
        if not out.parent.is_dir():
            raise CliError(f"output directory {out} has no existing parent")
        with warnings.catch_warnings(record=True) as caught:
            try:
                code, files = args.handler(args)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
        if not out.is_dir():
            out.mkdir()
            made = True
        for name, data in files.items():
            with open(out / name, "wb") as fh:
                written.append(out / name)
                fh.write(data)
    except (CliError, DisentLabError, ValueError, OSError, MemoryError) as exc:
        with contextlib.suppress(OSError):
            for path in written:
                path.unlink()
            if made:
                out.rmdir()
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(files)} files to {out}")
    return code
