"""Workload inputs, CLI chains and output checks for the benchmark.

Everything here is deterministic in the workload seed. `build_inputs` uses
numpy only, so the bytes it writes do not depend on the package under test;
their sha256 digests are reported so that two commits can be shown to read
identical inputs.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "centrality", "udr", "score")

# Criterion-07 calibration: a 16-d spectrum with a ten-step eigenvalue band,
# two soft factors and four noise directions; an exact rank-12 generator;
# encoders perturbed at noise levels 0.00-0.95 with noise_scale 2.4.
SPECTRUM = [5.0 * (0.45 / 5.0) ** (i / 9.0) for i in range(10)] + [
    0.28, 0.18, 0.08, 0.05, 0.03, 0.015,
]
RANK = 12
NOISE_LEVELS = [0.05 * m for m in range(20)]
NOISE_SCALE = 2.4
UDR_MODELS = 8
SCORE_MEMBER = 10  # noise level 0.50
SCORE_SAMPLES = 3000

CENTRALITY_CONFIG = {
    "factorvae": {"groups_per_factor": 40, "group_size": 35, "reference_samples": 2000}
}
UDR_SAMPLES = 1000
# Where the amount of work depends on the random draw, every workload seed
# uses draw 0, so that runs on different seeds measure the same work:
# - udr: the lasso's sweep count does; one chain took 4.0 s on the seed-7
#   pool and 9.2-11.6 s on the seed-1 pool. udr always uses the first models
#   of the seed-0 pool and CLI seed 0 (which draws the samples); the workload
#   seed permutes the manifest order, which moves every output but keeps the
#   set of fits.
# - verify: the discriminator's iteration count does (156k-178k over seeds
#   0-11), and verify-theorems reads nothing but its seed, so it runs with
#   the CLI default, seed 0, whatever the workload seed.
FIXED_DRAW = 0
SELECT_ARGS = ["--fraction", "0.8", "--trials", "50"]

# Scaling sweep, traced run only: pool sizes for centrality, (pool size,
# sample count) for udr. The point at the workload's own size reuses its
# traced chain.
CENTRALITY_SWEEP = (5, 10, 20)
UDR_SWEEP = ((4, 1000), (4, 2000), (8, 1000), (8, 2000))

# Agreement with the values recorded in golden.json. Later solvers (a
# covariance-update lasso, a blocked dHSIC) may reorder sums; a relative
# 1e-6 admits that and nothing a reader of a 12-digit report would notice.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-9

# Criterion-07 premise, the thresholds the acceptance test asserts. It is
# reported, not counted as a failure: at the baseline commit it fails on the
# full row means of seeds 20 (Spearman 0.792) and 30 (selects model 3), and
# the subsampled selection misses {0, 1, 2} on seeds 2, 6, 10, 20, 23 and 31.
CENTRALITY_MIN_RHO = 0.8
CENTRALITY_SELECTED = (0, 1, 2)
VERIFY_CHECKS = 630

ITEM_UNITS = {
    "verify": "theorem checks",
    "centrality": "cross-scores",
    "udr": "pair relevances",
    "score": "scored samples",
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pool_models(seed: int) -> list[dict]:
    """Model JSONs of the criterion-07 pool, in the CLI's model format.

    The generator is the closed-form top-r optimum of the diagonal spectrum,
    B = diag(√λ)[:, :r] and A = diag(√λ)[:, r:] padded with zeros, so that
    BBᵀ + AAᵀ = Σ exactly; each encoder perturbs the posterior-mean map
    W = Bᵀ Σ⁻¹ by level·scale·G with G standard normal under seed (seed, m).
    """
    lam = np.asarray(SPECTRUM)
    d = lam.size
    root = np.sqrt(lam)
    b = np.zeros((d, RANK))
    b[np.arange(RANK), np.arange(RANK)] = root[:RANK]
    a = np.zeros((d, d))
    a[np.arange(RANK, d), np.arange(RANK, d)] = root[RANK:]
    base = b.T / lam
    scale = NOISE_SCALE * float(np.linalg.norm(base)) / math.sqrt(base.size)
    generator = {
        "d": d,
        "r": RANK,
        "B": [float(v) for v in b.ravel()],
        "A": [float(v) for v in a.ravel()],
        "sigma": [float(v) for v in np.diag(lam).ravel()],
    }
    models = []
    for m, level in enumerate(NOISE_LEVELS):
        noise = np.random.default_rng(np.random.SeedSequence([seed, m]))
        weight = base + level * scale * noise.standard_normal(base.shape)
        models.append({**generator, "encoder": [float(v) for v in weight.ravel()]})
    return models


def _manifest(path: Path, order) -> None:
    _write_json(
        path,
        {
            "labels": [f"noise_{NOISE_LEVELS[m]:g}" for m in order],
            "models": [f"model_{m:02d}.json" for m in order],
        },
    )


def build_inputs(root: Path, seed: int, workload: str, sweep: bool = False) -> dict[str, str]:
    """Write the workload's generated inputs under root; return {relative path: sha256}.

    verify reads no inputs, so nothing is written for it. With sweep, also
    write the smaller manifests and sample-count configs of the scaling sweep.
    """
    root.mkdir(parents=True, exist_ok=True)
    if workload == "centrality":
        pool = root / "pool"
        pool.mkdir()
        for m, model in enumerate(_pool_models(seed)):
            _write_json(pool / f"model_{m:02d}.json", model)
        for n_models in CENTRALITY_SWEEP if sweep else (len(NOISE_LEVELS),):
            _manifest(pool / f"pool_{n_models}.json", range(n_models))
        _write_json(root / "centrality_config.json", CENTRALITY_CONFIG)
    elif workload == "udr":
        udr = root / "udr"
        udr.mkdir()
        for m, model in enumerate(_pool_models(FIXED_DRAW)[:UDR_MODELS]):
            _write_json(udr / f"model_{m:02d}.json", model)
        order = np.random.default_rng(seed).permutation(UDR_MODELS)
        for n_models, samples in UDR_SWEEP if sweep else ((UDR_MODELS, UDR_SAMPLES),):
            _manifest(udr / f"udr_{n_models}.json", [m for m in order if m < n_models])
            _write_json(root / f"udr_config_{samples}.json", {"udr": {"samples": samples}})
    elif workload == "score":
        _write_json(root / "member.json", _pool_models(seed)[SCORE_MEMBER])
    return {
        str(path.relative_to(root)): sha256_file(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# ---------------------------------------------------------------------------
# CLI chains


def chain(workload: str, inputs: Path, out: Path, seed: int, threads: int = 1,
          pool_size: int | None = None, samples: int | None = None) -> list[tuple[str, list[str]]]:
    """The workload's CLI invocations as (step name, argv) pairs.

    pool_size and samples select a scaling-sweep point; by default the
    workload runs at its own size.
    """
    common = ["--seed", str(seed), "--threads", str(threads)]
    if workload == "verify":
        return [("verify", ["verify-theorems", "--out", str(out / "verify"),
                            "--seed", str(FIXED_DRAW), "--threads", str(threads)])]
    if workload == "centrality":
        manifest = inputs / "pool" / f"pool_{pool_size or len(NOISE_LEVELS)}.json"
        return [(
            "centrality",
            ["select", "--pool", str(manifest), "--method", "model-centrality", *SELECT_ARGS,
             "--config", str(inputs / "centrality_config.json"),
             "--out", str(out / "centrality"), *common],
        )]
    if workload == "udr":
        manifest = inputs / "udr" / f"udr_{pool_size or UDR_MODELS}.json"
        config = inputs / f"udr_config_{samples or UDR_SAMPLES}.json"
        return [
            (
                f"udr_{variant}",
                ["select", "--pool", str(manifest), "--method", f"udr-{variant}", *SELECT_ARGS,
                 "--config", str(config), "--out", str(out / f"udr_{variant}"),
                 "--seed", str(FIXED_DRAW), "--threads", str(threads)],
            )
            for variant in ("lasso", "spearman")
        ]
    if workload == "score":
        spectrum = ",".join(repr(v) for v in SPECTRUM)
        return [
            ("optimize", ["optimize", "--objective", "cr", "--r", str(RANK),
                          "--sigma-diag", spectrum, "--out", str(out / "optimize"), *common]),
            ("discs", ["gen-data", "--circular", "--out", str(out / "discs"), *common]),
            ("draws", ["gen-data", "--linear-gaussian", "--model", str(inputs / "member.json"),
                       "--n", str(SCORE_SAMPLES), "--out", str(out / "draws"), *common]),
            ("metrics", ["metrics", "--model", str(inputs / "member.json"),
                         "--data", str(out / "draws"), "--metrics", "factorvae,dci,dhsic",
                         "--out", str(out / "metrics"), *common]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def items_per_chain(workload: str) -> int:
    """Units of work in one chain at the workload's stated input size."""
    n = len(NOISE_LEVELS)
    return {
        "verify": VERIFY_CHECKS,
        "centrality": n * (n - 1),
        "udr": 2 * UDR_MODELS * (UDR_MODELS - 1),
        "score": SCORE_SAMPLES,
    }[workload]


# ---------------------------------------------------------------------------
# outputs


def artifacts(out: Path) -> dict[str, str]:
    """{artifact: sha256} of a chain's outputs.

    The disc images count as one artifact, hashed over their names and bytes
    in order, so the count is not dominated by 1080 image files.
    """
    digests = {}
    images = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = str(path.relative_to(out))
        if path.suffix == ".pgm":
            images.update(rel.encode() + b"\0" + path.read_bytes())
        else:
            digests[rel] = sha256_file(path)
    if any(p.suffix == ".pgm" for p in out.rglob("*.pgm")):
        digests["discs/*.pgm"] = images.hexdigest()
    return digests


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _ranks(v: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - counts + (counts + 1) / 2.0)[inverse]


def spearman(a, b) -> float:
    ra = _ranks(np.asarray(a, dtype=float))
    rb = _ranks(np.asarray(b, dtype=float))
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / math.sqrt(float(ra @ ra) * float(rb @ rb)))


def values(workload: str, out: Path) -> dict[str, list[float]]:
    """The numbers each workload's output check reads, by name."""
    if workload == "verify":
        rows = _csv_rows(out / "verify" / "theorem_checks.csv")
        return {"pass": [float(sum(row[5] == "pass" for row in rows))],
                "checks": [float(len(rows))]}
    if workload == "centrality":
        step = out / "centrality"
        selected = json.loads((step / "selection.json").read_text())["selected"]
        sim = [[float(v) for v in row[1:]] for row in _csv_rows(step / "similarity.csv")]
        return {"scores": [float(row[2]) for row in _csv_rows(step / "scores.csv")],
                "row_means": [sum(row) / (len(row) - 1) for row in sim],
                "selected": [float(selected)]}
    if workload == "udr":
        found = {}
        for variant in ("lasso", "spearman"):
            step = out / f"udr_{variant}"
            found[f"{variant}_scores"] = [float(row[2]) for row in _csv_rows(step / "scores.csv")]
            found[f"{variant}_pairs"] = [
                float(v) for row in _csv_rows(step / "similarity.csv") for v in row[1:]
            ]
        return found
    report = dict(_csv_rows(out / "optimize" / "report.csv"))
    summary = dict(_csv_rows(out / "metrics" / "summary.csv"))
    return {
        "objective_value": [float(report["objective_value"])],
        "iterations": [float(report["iterations"])],
        "factorvae": [float(summary["factorvae"])],
        "dci": [float(summary["dci"])],
        "dhsic": [float(summary["dhsic"])],
    }


def premise(got: dict[str, list[float]]) -> dict[str, float]:
    """Criterion-07 premise on a centrality chain's outputs.

    The full row means of the similarity matrix are the scores the acceptance
    test ranks; the subsampled scores are what the CLI selects from.
    """
    levels = [-v for v in NOISE_LEVELS]
    full = got["row_means"]
    found = {
        "selected": float(np.argmax(full)),
        "rho": spearman(full, levels),
        "subsampled_selected": got["selected"][0],
        "subsampled_rho": spearman(got["scores"], levels),
    }
    found["holds"] = float(found["selected"] in CENTRALITY_SELECTED
                           and found["rho"] >= CENTRALITY_MIN_RHO)
    return found


def check(workload: str, got: dict[str, list[float]], golden: dict | None) -> list[str]:
    """Problems with a chain's outputs; an empty list means the chain passed.

    golden holds the values recorded from the baseline commit for this seed,
    or None when the seed has no record, in which case only the range checks
    apply.
    """
    problems = []
    for name, vals in got.items():
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"{name}: non-finite value")
    if workload == "verify":
        if got["checks"] != [VERIFY_CHECKS] or got["pass"] != [VERIFY_CHECKS]:
            problems.append(f"{got['pass'][0]:g}/{got['checks'][0]:g} checks pass, "
                            f"expected {VERIFY_CHECKS}/{VERIFY_CHECKS}")
    elif workload in ("centrality", "udr"):
        for name, vals in got.items():
            if name != "selected" and not all(0.0 <= v <= 1.0 for v in vals):
                problems.append(f"{name}: value outside [0, 1]")
    else:
        for name in ("factorvae", "dci"):
            if not 0.0 <= got[name][0] <= 1.0:
                problems.append(f"{name} score {got[name][0]} outside [0, 1]")
        if not got["iterations"][0] >= 1:
            problems.append("optimize made no ascent step")
    if golden is not None:
        for name, ref in golden.items():
            vals = got.get(name)
            if vals is None or len(vals) != len(ref):
                problems.append(f"{name}: {len(vals or [])} values, recorded {len(ref)}")
            elif not all(math.isclose(v, r, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)
                         for v, r in zip(vals, ref)):
                worst = max(abs(v - r) for v, r in zip(vals, ref))
                problems.append(f"{name}: differs from the recorded values by up to {worst:.3g}")
    return problems
