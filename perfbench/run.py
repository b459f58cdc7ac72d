"""Benchmark of the disentlab command-line workflows.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or "all" to run each in
turn. The workload seed makes the inputs; the program receives only the
generated files. Load is a closed loop: one client runs the workload's CLI
chain through disentlab.cli.main(argv), in-process, one chain at a time, at
--threads 1, in a fresh worker process per run so that peak memory belongs to
one workload. BLAS is pinned to one thread.

--trace 0 prints the end-to-end metrics, measured untraced, with the times
read at a reference host speed (hostspeed.py); --trace 1 prints
the per-layer metrics from a separate traced run. Every metric is printed by
name with its unit, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

# Set-up time is the median over the measuring process and this many
# set-up-only processes, half started before it and half after, so that the
# samples span the whole run and not one moment of the host's speed.
SETUP_PROCESSES = 20
# A run must end within 180 s; leave room for reporting and clean-up.
DEADLINE_S = 170.0
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args: list[str], deadline: float) -> dict:
    """Start a worker process, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, **WORKER_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], capture_output=True, text=True,
            timeout=timeout, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:g} s run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run; returns the result object and prints the human-readable lines."""
    deadline = time.monotonic() + DEADLINE_S
    work = SCRATCH / f"{workload}-seed{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        if trace:
            spans = SCRATCH / f"spans-{workload}-seed{seed}.csv"
            result = spawn([*common, "--mode", "trace", "--work", str(work / "trace"),
                            "--trace-file", str(spans)], deadline)
        else:
            def setup(i: int) -> dict:
                return spawn([*common, "--mode", "setup", "--work", str(work / f"setup{i}")],
                             deadline)

            half = SETUP_PROCESSES // 2
            setups = [setup(i) for i in range(half)]
            result = spawn([*common, "--mode", "measure", "--work", str(work / "measure")],
                           deadline)
            setups += [setup(i) for i in range(half, SETUP_PROCESSES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    chains = result["chains"]
    failed = [c for c in chains if c["problems"]]
    print(f"# workload {workload}, seed {seed}: {len(chains)} chains, {len(failed)} failed; "
          f"python {platform.python_version()}, numpy {result['numpy']}, nproc {os.cpu_count()}, "
          f"BLAS threads {result['blas_threads']}")
    for i, chain in enumerate(chains):
        for problem in chain["problems"]:
            print(f"# FAILED chain {i}: {problem}")
    if result["premise"] is not None:
        p = result["premise"]
        print(f"# criterion-07 premise (reported, not a failure): full row means select "
              f"{p['selected']:g}, Spearman {p['rho']:.3f}; subsampled scores select "
              f"{p['subsampled_selected']:g}, Spearman {p['subsampled_rho']:.3f}; "
              f"{'holds' if p['holds'] else 'does NOT hold'}")
    for path, digest in sorted(result["inputs"].items()):
        print(f"# input {digest} {path}")

    if trace:
        layer = result["metrics"]
        share = layer["trace.predicted_share"]
        verdict = "holds" if share > 0.5 else "does NOT hold"
        print(f"# prediction: {' + '.join(result['predicted'])} dominates {workload}: "
              f"measured share {share:.3f} of traced chain time, {verdict}")
        print(f"# spans written to {spans.relative_to(ROOT)}")
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in layer]
        if missing:
            raise BenchError(f"worker did not report {', '.join(missing)}")
        metrics = {m["name"]: {"value": float(layer[m["name"]]), "unit": m["unit"]}
                   for m in wanted}
        for name, metric in metrics.items():
            print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}")
    else:
        basis = [c for c in chains if not c["problems"]] or chains

        def median(key: str) -> float:
            return statistics.median(c[key] for c in basis)

        wall = median("ref_wall_s")
        setup_runs = [*setups, result]
        at_ref = f"median of {len(basis)} chains at reference host speed"
        values = {
            "setup_s": (statistics.median(s["ref_setup_s"] for s in setup_runs),
                        f"median of {len(setup_runs)} processes at reference host speed; "
                        f"raw median {statistics.median(s['setup_s'] for s in setup_runs):.4g} s"),
            "wall_s": (wall, f"{at_ref}; raw median {median('wall_s'):.4g} s"),
            "items_per_s": (result["items"] / wall,
                            f"{result['items']} {result['item_unit']} per chain ÷ wall_s"),
            "cpu_s": (median("ref_cpu_s"), f"{at_ref}; raw median {median('cpu_s'):.4g} s"),
            "peak_rss_mib": (result["peak_rss_mib"], "high-water RSS of the measuring process"),
        }
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, metric in metrics.items():
            print(f"{name:14s} {metric['value']:14.6g} {metric['unit']:8s} {values[name][1]}")
        print(f"{'error_rate':14s} {len(failed) / len(chains):14.6g} {'ratio':8s} "
              f"{len(failed)} failed of {len(chains)} chains")
        print(f"{'host_speed':14s} {median('host_speed'):14.6g} {'ratio':8s} "
              f"median of {len(basis)} chains, reference ÷ measured piece time "
              f"({sum(c['pieces'] for c in basis)} pieces)")
    return {"correct": not failed, "attempted": len(chains), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside, exit through SystemExit, so that subprocess.run
    # kills and waits for the running worker and the scratch files go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "disentlab" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/disentlab to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*names, "all"):
        print(f"error: unknown workload {args.workload!r} (expected one of {', '.join(names)}, all)",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
