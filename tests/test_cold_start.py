"""Each subcommand imports only the modules it runs.

Every check starts a fresh interpreter, since this test process has long
since imported the whole package, and reads its sys.modules after the work.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import disentlab
from disentlab.cli import main

SRC = str(Path(disentlab.__file__).resolve().parents[1])
CLI_MODULES = {"disentlab", "disentlab.cli", "disentlab.errors", "disentlab.linalg",
               "disentlab.lingauss"}


def _loaded(argv=None) -> set[str]:
    """disentlab modules and concurrent.futures in sys.modules after importing the CLI
    and, with argv, running main(argv) in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "from disentlab.cli import main\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    assert main(argv) == 0\n"
        "names = [m for m in sys.modules\n"
        "         if m.split('.')[0] == 'disentlab' or m == 'concurrent.futures']\n"
        "print(json.dumps(names))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_only_shared_modules():
    assert _loaded() == CLI_MODULES


def test_verify_theorems_adds_only_contrastive(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"suites": {"matrices": 1, "seeds": 1, "pca_seeds": 1,
                                             "families": 4, "bias_cases": 2}}))
    argv = ["verify-theorems", "--config", str(config), "--out", str(tmp_path / "v")]
    assert _loaded(argv) == CLI_MODULES | {"disentlab.contrastive", "disentlab.verify"}


def test_select_at_one_thread_starts_no_pool(tmp_path):
    for seed in ("0", "1"):
        assert main(["optimize", "--r", "2", "--sigma-diag", "9,4,1", "--seed", seed,
                     "--out", str(tmp_path / f"m{seed}")]) == 0
    manifest = tmp_path / "pool.json"
    manifest.write_text(json.dumps({"models": ["m0/model.json", "m1/model.json"]}))
    config = tmp_path / "udr.json"
    config.write_text(json.dumps({"udr": {"samples": 200}}))
    argv = ["select", "--pool", str(manifest), "--method", "udr-lasso", "--threads", "1",
            "--config", str(config), "--out", str(tmp_path / "sel")]
    loaded = _loaded(argv)
    assert "disentlab.selection" in loaded
    assert not loaded & {"disentlab.contrastive", "concurrent.futures"}
