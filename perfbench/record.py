"""Record this commit's outputs as the reference for the benchmark's checks.

  python3 perfbench/record.py

Runs each workload's chain once per seed 0-31, in this process, and writes
golden.json: the values that the output checks compare against, the sha256
of every artifact (counted by traced runs as cli.artifacts_identical), and
the machine it ran on. Run it only on the commit whose outputs are the
reference; a seed whose chain fails its checks is reported and left out.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in worker processes; must precede importing numpy

import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(32)
OUT = HERE / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

from disentlab.cli import main as cli_main  # noqa: E402

import workloads as w  # noqa: E402
from worker import run_chain  # noqa: E402


def context() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def main() -> int:
    seeds = {}
    failures = 0
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for seed in SEEDS:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            inputs = Path(tmp) / "inputs"
            record = {}
            for workload in w.WORKLOADS:
                w.build_inputs(inputs, seed, workload)
                out = Path(tmp) / workload
                out.mkdir()
                problem = run_chain(cli_main, w.chain(workload, inputs, out, seed))
                got = {} if problem else w.values(workload, out)
                problems = [problem] if problem else w.check(workload, got, None)
                if problems:
                    failures += 1
                    print(f"seed {seed} {workload}: FAILED {'; '.join(problems)}", flush=True)
                    continue
                record[workload] = {"artifacts": w.artifacts(out), "values": got}
                if workload == "centrality":
                    print(f"seed {seed} centrality premise: {w.premise(got)}", flush=True)
                shutil.rmtree(out)
                print(f"seed {seed} {workload}: recorded", flush=True)
            seeds[str(seed)] = record
    with open(OUT, "w", newline="") as fh:
        json.dump({"context": context(), "seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}; {failures} failed chains")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
