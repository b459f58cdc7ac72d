"""End-to-end checks of the command-line driver.

Each test invokes main() with an argv list; subprocesses are unnecessary
because the entry point is a plain function returning the exit code. Only
TestModuleEntryPoint starts `python -m disentlab`, to cover __main__.py.
"""

import csv
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import disentlab
from disentlab import cli
from disentlab.cli import _score_labels, main
from disentlab.lingauss import LinearGenerator
from disentlab.metrics import FactorDataset
from disentlab.verify import SUITES, THRESHOLDS
from support import read_pgm

SMALL_VERIFY = {
    "suites": {
        "matrices": 2,
        "seeds": 2,
        "pca_seeds": 2,
        "families": 8,
        "bias_cases": 8,
    }
}
SMALL_FACTORVAE = {
    "factorvae": {"groups_per_factor": 15, "group_size": 15, "reference_samples": 500}
}
# a matched d = 2, r = 1 model whose encoder holds one weight of the two it needs
_SHORT_ENCODER = json.dumps(
    {"d": 2, "r": 1, "B": [1.0, 0.0], "A": [0.0, 0.0, 0.0, 1.0], "sigma": [1.0, 0.0, 0.0, 1.0],
     "encoder": [1.0]}
)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _report_value(path, quantity: str) -> float:
    rows = {row[0]: row[1] for row in _read_rows(path)[1:]}
    return float(rows[quantity])


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(
        ["optimize", "--objective", "cr", "--r", "2", "--sigma-diag", "9,4,1",
         "--out", str(out), "--seed", "0"]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, model_dir):
    out = tmp_path_factory.mktemp("data")
    code = main(
        ["gen-data", "--linear-gaussian", "--model", str(model_dir / "model.json"),
         "--n", "500", "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pool_dir(tmp_path_factory, model_dir):
    """Three-model pool: two exact posterior encoders and one rank-collapsed.

    Duplicating the first encoder row leaves every variance comparison
    exactly tied, so all votes land on code 0 and the collapsed model scores
    1/2 against perfect partners instead of 1.
    """
    root = tmp_path_factory.mktemp("pool")
    base = json.loads((model_dir / "model.json").read_text())
    for name, collapse in (("m0", False), ("m1", False), ("m2", True)):
        (root / name).mkdir()
        entry = dict(base)
        if collapse:
            weight = np.asarray(base["encoder"], dtype=float).reshape(2, 3)
            entry["encoder"] = [float(v) for v in np.vstack([weight[0], weight[0]]).ravel()]
        (root / name / "model.json").write_text(json.dumps(entry))
    manifest = {
        "models": ["m0/model.json", "m1/model.json", "m2/model.json"],
        "labels": ["alpha", "beta", "gamma"],
    }
    return root, _write_json(root / "pool.json", manifest)


class TestVerifyTheorems:
    def test_small_suite_passes(self, tmp_path):
        config = _write_json(tmp_path / "cfg.json", SMALL_VERIFY)
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 0
        rows = _read_rows(out / "theorem_checks.csv")
        assert rows[0] == ["suite", "case", "quantity", "value", "threshold", "status"]
        # 2 checks per optimizer run, 3 per spectrum seed, 2 per family, 2 per case
        assert len(rows) - 1 == 2 * 4 + 3 * 2 + 2 * 8 + 2 * 8
        assert all(row[5] == "pass" for row in rows[1:])
        assert {row[0] for row in rows[1:]} == {
            "semi_orthonormal", "pca_recovery", "js_identity", "bias_identity",
        }

    def test_ascents_csv_has_one_row_per_ascent(self, tmp_path):
        config = _write_json(tmp_path / "cfg.json", SMALL_VERIFY)
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 0
        rows = _read_rows(out / "ascents.csv")
        assert rows[0] == [
            "suite", "case", "iterations", "backtracks", "stop", "grad_max", "converged",
        ]
        by_suite = {}
        for row in rows[1:]:
            by_suite.setdefault(row[0], []).append(row)
        # matrices x seeds and pca_seeds projected ascents, one discriminator per family
        assert {suite: len(found) for suite, found in by_suite.items()} == {
            "semi_orthonormal": 4, "pca_recovery": 2, "js_identity": 8,
        }
        checks = _read_rows(out / "theorem_checks.csv")[1:]
        for suite, found in by_suite.items():
            cases = list(dict.fromkeys(row[1] for row in checks if row[0] == suite))
            assert [row[1] for row in found] == cases
        for row in by_suite["semi_orthonormal"] + by_suite["pca_recovery"]:
            assert int(row[2]) >= 0 and int(row[3]) >= 0
            assert row[4] in ("rel_tol", "no_ascent_step", "max_iters")
            assert row[5:] == ["", ""]
        for row in by_suite["js_identity"]:
            assert int(row[2]) >= 1 and row[3:5] == ["", ""]
            assert float(row[5]) < 1e-12 and row[6] == "true"

    def test_default_suites_write_630_passing_checks(self, tmp_path):
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out)]) == 0
        rows = _read_rows(out / "theorem_checks.csv")[1:]
        assert len(rows) == 630
        assert all(row[5] == "pass" for row in rows)
        ascents = _read_rows(out / "ascents.csv")[1:]
        assert len(ascents) == 100 + 10 + 100
        # every discriminator ascent meets its stop rule at the default step
        js = [row for row in ascents if row[0] == "js_identity"]
        assert len(js) == 100 and all(row[6] == "true" for row in js)

    def test_broken_tolerance_fails_with_exit_1(self, tmp_path):
        config = _write_json(
            tmp_path / "cfg.json",
            {
                "suites": SMALL_VERIFY["suites"],
                "optimizer": {"rel_tol": 1e-2},
                "thresholds": {"orthonormality_residual": 0.0},
            },
        )
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 1
        rows = _read_rows(out / "theorem_checks.csv")
        assert any(row[5] == "fail" for row in rows[1:])

    def test_missing_output_parent_exits_2(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir"
        assert main(["verify-theorems", "--out", str(missing)]) == 2

    def test_unknown_config_keys_exit_2(self, tmp_path):
        out = tmp_path / "report"
        bad_section = _write_json(tmp_path / "a.json", {"experiments": {}})
        assert main(["verify-theorems", "--out", str(out), "--config", bad_section]) == 2
        bad_key = _write_json(tmp_path / "b.json", {"thresholds": {"typo": 1.0}})
        assert main(["verify-theorems", "--out", str(out), "--config", bad_key]) == 2

    def test_summary_has_one_line_per_suite_in_table_order(self, tmp_path, capsys):
        config = _write_json(tmp_path / "cfg.json", SMALL_VERIFY)
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 0
        rows = _read_rows(out / "theorem_checks.csv")[1:]
        assert list(dict.fromkeys(row[0] for row in rows)) == list(SUITES)
        expected = [
            f"{suite}: {sum(row[0] == suite for row in rows)} checks, 0 failures"
            for suite in SUITES
        ]
        assert capsys.readouterr().out.splitlines()[:-1] == expected

    @pytest.mark.parametrize(
        "key, count",
        [("matrices", 0), ("seeds", 0), ("pca_seeds", -3), ("families", 0), ("bias_cases", 0)],
    )
    def test_suite_count_below_1_exits_2(self, tmp_path, capsys, key, count):
        config = _write_json(
            tmp_path / "cfg.json", {"suites": {**SMALL_VERIFY["suites"], key: count}}
        )
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config value suites.{key} must be at least 1, got {count}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["k_max", "support_max"])
    def test_suite_dimension_below_2_exits_2(self, tmp_path, capsys, key):
        config = _write_json(tmp_path / "cfg.json", {"suites": {**SMALL_VERIFY["suites"], key: 1}})
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config value suites.{key} must be at least 2, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"r": 7}, "suites.r must be between 1 and suites.d = 6, got 7"),
            ({"bias_r": 5}, "suites.bias_r must be between 1 and suites.bias_d = 4, got 5"),
            ({"pca_r": 1},
             "suites.pca_r must be between 2 and the length of suites.spectrum = 5, got 1"),
            ({"spectrum": [4.0, -1.0]}, "suites.spectrum[1] must be positive, got -1.0"),
            ({"spectrum": [4.0]}, "suites.spectrum must list at least two eigenvalues"),
        ],
        ids=["r", "bias_r", "pca_r", "spectrum", "spectrum-of-one"],
    )
    def test_bad_suite_dimension_names_its_key(self, tmp_path, capsys, given, message):
        config = _write_json(tmp_path / "cfg.json", {"suites": {**SMALL_VERIFY["suites"], **given}})
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config value {message}\n"
        assert not out.exists()

    def test_overflowing_spectrum_exits_2_naming_its_run(self, tmp_path, capsys):
        spectrum = [1e200, 1e199, 1e198]
        config = _write_json(
            tmp_path / "cfg.json", {"suites": {**SMALL_VERIFY["suites"], "spectrum": spectrum}}
        )
        out = tmp_path / "report"
        assert main(["verify-theorems", "--out", str(out), "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run 0: the ascent's objective or gradient overflows (")
        assert not out.exists()

    def test_deterministic_and_thread_independent(self, tmp_path):
        config = _write_json(tmp_path / "cfg.json", SMALL_VERIFY)
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            args = ["verify-theorems", "--out", str(out), "--config", config,
                    "--seed", "7", "--threads", threads]
            assert main(args) == 0
            outputs.append((out / "theorem_checks.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestGenData:
    def test_circular_writes_images_and_factors(self, tmp_path):
        out = tmp_path / "circ"
        assert main(["gen-data", "--circular", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["factors.csv", "images.pgm"]
        assert read_pgm(out / "images.pgm").shape == (1080, 64, 64)
        assert len(_read_rows(out / "factors.csv")) == 1081

    def test_circular_byte_identical_across_runs(self, tmp_path):
        base = ["gen-data", "--circular"]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        for name in ("images.pgm", "factors.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_circular_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # the stand-in refuses the 4.22 MiB image stack, as numpy does on a
        # machine out of memory, and allocates everything else
        empty = np.empty

        def refuse_images(shape, dtype=float, **kwargs):
            if tuple(shape) == (1080, 64, 64):
                raise MemoryError("Unable to allocate 4.22 MiB")
            return empty(shape, dtype, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_images)
        out = tmp_path / "big"
        assert main(["gen-data", "--circular", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 4.22 MiB\n"
        assert not out.exists()

    def test_linear_gaussian_dataset(self, model_dir, tmp_path):
        out = tmp_path / "ds"
        args = ["gen-data", "--linear-gaussian", "--model", str(model_dir / "model.json"),
                "--n", "100", "--out", str(out), "--seed", "1"]
        assert main(args) == 0
        assert len(_read_rows(out / "samples.csv")) == 101
        assert _read_rows(out / "factors.csv")[0] == ["c0", "c1"]

    def test_linear_gaussian_seed_determinism(self, model_dir, tmp_path):
        base = ["gen-data", "--linear-gaussian", "--model", str(model_dir / "model.json"),
                "--n", "50"]
        assert main(base + ["--out", str(tmp_path / "a"), "--seed", "4"]) == 0
        assert main(base + ["--out", str(tmp_path / "b"), "--seed", "4"]) == 0
        assert main(base + ["--out", str(tmp_path / "c"), "--seed", "5"]) == 0
        read = lambda name: (tmp_path / name / "samples.csv").read_bytes()
        assert read("a") == read("b")
        assert read("a") != read("c")

    def test_linear_gaussian_needs_model(self, tmp_path):
        assert main(["gen-data", "--linear-gaussian", "--out", str(tmp_path / "x")]) == 2

    def test_missing_model_file_exits_2(self, tmp_path):
        args = ["gen-data", "--linear-gaussian", "--model", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x")]
        assert main(args) == 2

    @pytest.mark.parametrize("field", ["B", "A", "sigma", "encoder"])
    def test_non_finite_model_exits_2(self, model_dir, tmp_path, capsys, field):
        model = json.loads((model_dir / "model.json").read_text())
        model[field][0] = float("nan") if field != "encoder" else float("inf")
        path = _write_json(tmp_path / "bad.json", model)
        args = ["gen-data", "--linear-gaussian", "--model", path, "--out", str(tmp_path / "x")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert path in err and f"{field} holds non-finite entries" in err

    @pytest.mark.parametrize("key, value", [("d", 3.5), ("r", 2.2), ("r", True), ("d", "3")])
    def test_non_integral_dimension_exits_2(self, model_dir, tmp_path, capsys, key, value):
        model = json.loads((model_dir / "model.json").read_text())
        model[key] = value
        path = _write_json(tmp_path / "bad.json", model)
        args = ["gen-data", "--linear-gaussian", "--model", path, "--out", str(tmp_path / "x")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert path in err and f"{key} must be an integer" in err

    def test_integral_float_dimensions_load(self, model_dir, tmp_path):
        model = json.loads((model_dir / "model.json").read_text())
        model["d"], model["r"] = float(model["d"]), float(model["r"])
        floats = _write_json(tmp_path / "floats.json", model)
        for name, path in (("a", floats), ("b", str(model_dir / "model.json"))):
            args = ["gen-data", "--linear-gaussian", "--model", path, "--n", "50",
                    "--out", str(tmp_path / name)]
            assert main(args) == 0
        read = lambda name: (tmp_path / name / "samples.csv").read_bytes()
        assert read("a") == read("b")

    def test_unmatched_model_exits_2(self, model_dir, tmp_path, capsys):
        model = json.loads((model_dir / "model.json").read_text())
        model["sigma"][0] *= 1.01
        path = _write_json(tmp_path / "unmatched.json", model)
        args = ["metrics", "--model", path, "--metrics", "factorvae", "--out", str(tmp_path / "x")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert path in err and "does not match sigma" in err

    def test_unmatched_model_past_1e154_exits_2(self, tmp_path, capsys):
        # ‖Σ‖_F² overflows float64 here, and BBᵀ + AAᵀ = 0 must still miss Σ = 1e160·I
        model = {"d": 3, "r": 2, "B": [0.0] * 6, "A": [0.0] * 9,
                 "sigma": [1e160, 0.0, 0.0, 0.0, 1e160, 0.0, 0.0, 0.0, 1e160]}
        path = _write_json(tmp_path / "huge.json", model)
        out = tmp_path / "x"
        args = ["metrics", "--model", path, "--metrics", "factorvae", "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: BBᵀ + AAᵀ does not match sigma (relative tolerance 1e-08)\n"
        )
        assert not out.exists()

    def test_unmatched_model_near_float64_max_exits_2(self, tmp_path, capsys):
        # BBᵀ overflows float64 here; the gap is formed at a power-of-two scale
        model = {"d": 2, "r": 1, "B": [1e308, 0.0], "A": [0.0, 0.0, 0.0, 1.0],
                 "sigma": [1.0, 0.0, 0.0, 1.0]}
        path = _write_json(tmp_path / "huge.json", model)
        out = tmp_path / "x"
        args = ["metrics", "--model", path, "--metrics", "factorvae", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: BBᵀ + AAᵀ does not match sigma (relative tolerance 1e-08)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("sigma, code", [([1.0, 0.5, -0.5, 1.0], 2), ([1.0, 0.0, 0.0, 1.0], 0)],
                             ids=["asymmetric", "symmetric"])
    def test_model_sigma_must_be_symmetric(self, tmp_path, capsys, sigma, code):
        # B Bᵀ + A Aᵀ = I, which the asymmetric sigma's symmetric part would also match
        model = {"d": 2, "r": 1, "B": [1.0, 0.0], "A": [0.0, 0.0, 0.0, 1.0], "sigma": sigma}
        path = _write_json(tmp_path / "m.json", model)
        out = tmp_path / "x"
        args = ["gen-data", "--linear-gaussian", "--model", path, "--n", "5", "--out", str(out)]
        assert main(args) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1
            assert err[0].startswith(f"error: {path}: sigma holds an asymmetric matrix ")
            assert not out.exists()

    def test_kind_flag_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen-data", "--out", str(tmp_path / "x")])
        assert err.value.code == 2


class TestOptimize:
    def test_model_and_reports(self, model_dir):
        model = json.loads((model_dir / "model.json").read_text())
        assert sorted(model) == ["A", "B", "d", "encoder", "objective", "r", "seed", "sigma"]
        assert model["objective"] == "cr_frobenius"
        assert len(model["encoder"]) == 2 * 3
        assert _report_value(model_dir / "report.csv", "alignment_min") >= 0.999
        history = _read_rows(model_dir / "history.csv")
        assert history[0] == ["iteration", "objective"]
        assert len(history) - 1 == _report_value(model_dir / "report.csv", "iterations") + 1
        svg = (model_dir / "history.svg").read_text()
        assert ET.fromstring(svg).tag.endswith("svg")

    def test_subnormal_sigma_is_symmetrized_once(self, tmp_path):
        # (Σ + Σᵀ)/2 puts the 1-ulp subnormal 5e-324 off the diagonal, and a
        # second symmetrization would halve it to 0
        sigma = tmp_path / "s.csv"
        sigma.write_text("1,5e-324\n1e-323,1\n")
        out = tmp_path / "opt"
        assert main(["optimize", "--r", "1", "--sigma", str(sigma), "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["sigma"] == [1.0, 5e-324, 5e-324, 1.0]

    def test_subnormal_sigma_reads_back_as_written(self, tmp_path):
        # the stored Σ is already symmetric, so loading it keeps the subnormal
        sigma = tmp_path / "s.csv"
        sigma.write_text("1,5e-324\n1e-323,1\n")
        out = tmp_path / "opt"
        assert main(["optimize", "--r", "1", "--sigma", str(sigma), "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        back = LinearGenerator.from_dict(model).sigma
        assert back.ravel().tolist() == [1.0, 5e-324, 5e-324, 1.0]

    def test_infogan_reaches_closed_form_optimum(self, tmp_path):
        out = tmp_path / "opt"
        args = ["optimize", "--objective", "infogan", "--r", "2",
                "--sigma-diag", "9,4,1", "--out", str(out)]
        assert main(args) == 0
        value = _report_value(out / "report.csv", "objective_value")
        assert abs(value - (-np.log(2.0 * np.pi))) <= 1e-6

    def test_restarts_thread_independent(self, tmp_path):
        base = ["optimize", "--objective", "cr", "--r", "2", "--sigma-diag", "9,4,1",
                "--restarts", "3", "--seed", "2"]
        assert main(base + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "b"), "--threads", "3"]) == 0
        for name in ("model.json", "report.csv", "history.csv", "history.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_restarts_equal_the_single_run_at_the_best_seed(self, tmp_path):
        base = ["optimize", "--objective", "cr", "--r", "2", "--sigma-diag", "9,4,1,0.25"]
        assert main(base + ["--restarts", "3", "--seed", "4", "--out", str(tmp_path / "r")]) == 0
        best = int(_report_value(tmp_path / "r" / "report.csv", "seed"))
        assert best in (5, 6)  # a run past the first row of the stack wins here
        assert main(base + ["--seed", str(best), "--out", str(tmp_path / "one")]) == 0
        for name in ("model.json", "report.csv", "history.csv", "history.svg"):
            assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_report_ends_with_stop_reason_and_backtracks(self, tmp_path):
        out = tmp_path / "o"
        args = ["optimize", "--objective", "cr", "--r", "2", "--sigma-diag", "9,4,1",
                "--out", str(out)]
        assert main(args) == 0
        rows = _read_rows(out / "report.csv")
        assert [row[0] for row in rows[-2:]] == ["stop_reason", "backtracks"]
        assert rows[-2][1] == "rel_tol"
        assert int(rows[-1][1]) >= 0
        capped = tmp_path / "capped"
        config = _write_json(tmp_path / "cfg.json", {"optimizer": {"max_iters": 3}})
        assert main(args[:-1] + [str(capped), "--config", config]) == 0
        rows = dict(_read_rows(capped / "report.csv")[1:])
        assert rows["stop_reason"] == "max_iters" and rows["iterations"] == "3"

    def test_sigma_csv_input(self, tmp_path):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("4,0,0\n0,2,0\n0,0,1\n")
        args = ["optimize", "--r", "1", "--sigma", str(sigma), "--out", str(tmp_path / "o")]
        assert main(args) == 0

    @pytest.mark.parametrize("source", ["--sigma-diag", "--sigma"])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, source):
        if source == "--sigma-diag":
            given = "9,nan"
        else:
            given = str(tmp_path / "sigma.csv")
            (tmp_path / "sigma.csv").write_text("9,0\n0,inf\n")
        out = tmp_path / "o"
        assert main(["optimize", "--r", "1", source, given, "--out", str(out)]) == 2
        assert "holds non-finite entries" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [("4,3\n0,1\n", "holds an asymmetric matrix (‖Σ - Σᵀ‖_F = 4.24264, over 1e-08·‖Σ‖_F)"),
         # ‖Σ‖_F² overflows float64, so both norms are taken at a power-of-two scale
         ("1e200,1e199\n1e190,1e200\n",
          "holds an asymmetric matrix (‖Σ - Σᵀ‖_F = 1.41421e+199, over 1e-08·‖Σ‖_F)"),
         ("1,0\n0,1\n0,0\n", "must hold a square matrix, got shape (3, 2)"),
         ("1,0\n0,one\n", "must hold a plain numeric matrix"),
         # Σ - Σᵀ overflows float64 here, and so does ‖Σ‖_F in the next case
         ("0,1e308\n-1e308,0\n",
          "holds an asymmetric matrix (‖Σ - Σᵀ‖_F = inf, over 1e-08·‖Σ‖_F)"),
         ("1e308,1.5e308\n-1.5e308,1e308\n",
          "holds a matrix whose Frobenius norm overflows float64")],
        ids=["asymmetric", "asymmetric-past-1e154", "non-square", "non-numeric",
             "asymmetric-near-float64-max", "norm-past-float64-max"],
    )
    def test_sigma_csv_must_be_square_and_symmetric(self, tmp_path, capsys, rows, message):
        sigma = tmp_path / "sigma.csv"
        sigma.write_text(rows)
        out = tmp_path / "o"
        assert main(["optimize", "--r", "1", "--sigma", str(sigma), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {sigma} {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("restarts, prefix", [("1", ""), ("3", "run 0: ")])
    def test_overflowing_cr_ascent_exits_2_with_one_line(self, tmp_path, capsys, restarts,
                                                         prefix):
        # the coupling objective grows as the square of Σ, past float64 at 1e160
        out = tmp_path / "o"
        assert main(["optimize", "--objective", "cr", "--r", "2", "--restarts", restarts,
                     "--sigma-diag", "1e160,1e159,1e158", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {prefix}the ascent's objective or gradient overflows (")
        assert not out.exists()

    def test_sigma_near_float64_max_fits_to_strict_json(self, tmp_path, capsys):
        # Σ + Σᵀ overflows float64 here, while Σ/2 + Σᵀ/2 does not
        sigma = tmp_path / "sigma.csv"
        sigma.write_text("1e308,0\n0,1e308\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["optimize", "--r", "1", "--sigma", str(sigma), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        model = json.loads((out / "model.json").read_text(), parse_constant=_reject_constant)
        assert model["sigma"] == [1e308, 0.0, 0.0, 1e308]
        assert all(np.isfinite(model[key]).all() for key in ("A", "B", "encoder"))

    def test_non_finite_model_value_exits_2(self, tmp_path, monkeypatch, capsys):
        # model.json is strict JSON: a NaN is refused, not written as the token NaN
        real = cli.posterior

        def nan_encoder(gen):
            return np.full_like(real(gen), np.nan)

        monkeypatch.setattr(cli, "posterior", nan_encoder)
        out = tmp_path / "o"
        assert main(["optimize", "--r", "1", "--sigma-diag", "4,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: Out of range float values are not JSON compliant: nan\n"
        )
        assert not out.exists()

    def test_input_validation(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["optimize", "--r", "2", "--sigma-diag", "9,zz", "--out", out]) == 2
        assert main(["optimize", "--r", "2", "--sigma", str(tmp_path / "no.csv"), "--out", out]) == 2
        assert main(["optimize", "--r", "0", "--sigma-diag", "9,4", "--out", out]) == 2
        assert main(["optimize", "--r", "2", "--sigma-diag", "9,4", "--out", out,
                     "--restarts", "0"]) == 2


class TestMetrics:
    def test_full_suite_on_exact_model(self, model_dir, data_dir, tmp_path):
        out = tmp_path / "met"
        config = _write_json(tmp_path / "cfg.json", SMALL_FACTORVAE)
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--data", str(data_dir), "--out", str(out), "--config", config]
        assert main(args) == 0
        summary = (out / "summary.csv").read_text()
        # the optimizer's encoder is the exact posterior map, so both
        # supervised metrics sit at their maximum
        assert "factorvae,1\n" in summary
        assert "dci,1\n" in summary
        assert float(_read_rows(out / "dhsic.csv")[1][1]) < 0.05
        for name in ("factorvae", "dci", "dhsic"):
            rows = _read_rows(out / f"{name}.csv")
            assert rows[0] == ["metric", "score", "detail_key", "detail_value"]

    def test_factorvae_csv_lists_one_row_per_detail(self, model_dir, tmp_path):
        out = tmp_path / "met"
        config = _write_json(tmp_path / "cfg.json", SMALL_FACTORVAE)
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--metrics", "factorvae", "--out", str(out), "--config", config]
        assert main(args) == 0
        assert (out / "factorvae.csv").read_bytes() == (
            b"metric,score,detail_key,detail_value\n"
            b"factorvae,1,factor_0_accuracy,1\n"
            b"factorvae,1,factor_1_accuracy,1\n"
        )

    def test_dead_code_has_no_dci_row(self, model_dir, data_dir, tmp_path):
        # A zero encoder row never votes and has an all-zero relevance row:
        # factorvae.csv still lists every factor, dci.csv leaves that code out.
        model = json.loads((model_dir / "model.json").read_text())
        model["encoder"][model["d"]:] = [0.0] * model["d"]  # code 1 of r = 2
        path = _write_json(tmp_path / "model.json", model)
        out = tmp_path / "met"
        config = _write_json(tmp_path / "cfg.json", SMALL_FACTORVAE)
        args = ["metrics", "--model", path, "--data", str(data_dir),
                "--metrics", "factorvae,dci", "--out", str(out), "--config", config]
        with pytest.warns(UserWarning, match=r"^codes \[1\] have all-zero relevance rows"):
            assert main(args) == 0
        factorvae = _read_rows(out / "factorvae.csv")[1:]
        assert [row[2] for row in factorvae] == ["factor_0_accuracy", "factor_1_accuracy"]
        dci = _read_rows(out / "dci.csv")[1:]
        assert [row[2] for row in dci] == ["code_0_disentanglement"]

    def test_dhsic_csv_has_an_empty_detail_row(self, model_dir, data_dir, tmp_path):
        out = tmp_path / "met"
        args = ["metrics", "--model", str(model_dir / "model.json"), "--data", str(data_dir),
                "--metrics", "dhsic", "--out", str(out)]
        assert main(args) == 0
        score = _read_rows(out / "summary.csv")[1][1]
        assert (out / "dhsic.csv").read_text() == (
            f"metric,score,detail_key,detail_value\ndhsic,{score},,\n"
        )

    def test_metric_subset_skips_data_requirement(self, model_dir, tmp_path):
        out = tmp_path / "met"
        config = _write_json(tmp_path / "cfg.json", SMALL_FACTORVAE)
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--metrics", "factorvae", "--out", str(out), "--config", config]
        assert main(args) == 0
        assert (out / "factorvae.csv").exists()
        assert not (out / "dci.csv").exists()

    def test_infogan_fit_past_1e154_scores_without_a_warning(self, tmp_path, capsys):
        # ‖Σ‖_F² overflows float64 here; a warning would raise under the test settings
        fit = tmp_path / "fit"
        assert main(["optimize", "--r", "2", "--sigma-diag", "1e160,1e159,1e158",
                     "--out", str(fit)]) == 0
        config = _write_json(tmp_path / "cfg.json", SMALL_FACTORVAE)
        assert main(["metrics", "--model", str(fit / "model.json"), "--metrics", "factorvae",
                     "--config", config, "--out", str(tmp_path / "met")]) == 0
        assert capsys.readouterr().err == ""

    def test_data_required_for_dci(self, model_dir, tmp_path):
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--metrics", "dci", "--out", str(tmp_path / "met")]
        assert main(args) == 2

    def test_unknown_metric_exits_2(self, model_dir, tmp_path):
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--metrics", "factorvae,mig", "--out", str(tmp_path / "met")]
        assert main(args) == 2

    def test_repeated_metric_exits_2(self, model_dir, tmp_path, capsys):
        out = tmp_path / "met"
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--metrics", "factorvae,dhsic,factorvae", "--out", str(out)]
        assert main(args) == 2
        assert "factorvae more than once" in capsys.readouterr().err
        assert not (out / "factorvae.csv").exists()

    def test_data_width_must_match_the_model(self, model_dir, tmp_path, capsys):
        # the d = 3 model against a d = 4 dataset, with factorvae listed first
        model = tmp_path / "wide"
        assert main(["optimize", "--r", "2", "--sigma-diag", "9,4,1,0.5",
                     "--out", str(model)]) == 0
        data = tmp_path / "data4"
        assert main(["gen-data", "--linear-gaussian", "--model", str(model / "model.json"),
                     "--n", "50", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "met"
        args = ["metrics", "--model", str(model_dir / "model.json"), "--data", str(data),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --data {data} holds samples of width 4, but the model has d = 3"]
        assert not out.exists()

    def test_missing_data_dir_exits_2(self, model_dir, tmp_path):
        args = ["metrics", "--model", str(model_dir / "model.json"),
                "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "met")]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "metrics, name",
        [("dhsic", "samples.csv"), ("factorvae,dci,dhsic", "samples.csv"),
         ("factorvae,dci,dhsic", "factors.csv")],
    )
    def test_non_finite_data_exits_2_before_any_metric(self, model_dir, data_dir, tmp_path,
                                                       capsys, metrics, name):
        poisoned = tmp_path / "poisoned"
        poisoned.mkdir()
        for csv_name in ("samples.csv", "factors.csv"):
            lines = (data_dir / csv_name).read_text().splitlines()
            if csv_name == name:
                lines[1] = "nan," + lines[1].split(",", 1)[1]
            (poisoned / csv_name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "met"
        config = _write_json(tmp_path / "cfg.json", SMALL_FACTORVAE)
        args = ["metrics", "--model", str(model_dir / "model.json"), "--metrics", metrics,
                "--data", str(poisoned), "--out", str(out), "--config", config]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "could not load dataset" in err and "hold non-finite entries" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "make, message",
        [(lambda a, noise: np.column_stack([a, np.where(a < 0.0, -1e308, 1e308) + noise]),
          r"error: coordinate 1 spans -1e\+308 to 1e\+308, so its pair distances overflow"),
         (lambda a, noise: np.column_stack([a, a + 0.1 * noise]) * 1e155,
          r"error: coordinate 0 has median pair distance \S+, whose square overflows")],
        ids=["range-overflows", "squared-median-overflows"],
    )
    def test_dhsic_overflow_exits_2_naming_the_coordinate(self, tmp_path, capsys, make, message):
        # B = I, A = 0, Σ = I and an identity encoder: the codes are the samples
        eye = [1.0, 0.0, 0.0, 1.0]
        model = _write_json(tmp_path / "model.json", {
            "d": 2, "r": 2, "B": eye, "A": [0.0] * 4, "sigma": eye, "encoder": eye})
        rng = np.random.default_rng(0)
        samples = make(rng.standard_normal(50), rng.standard_normal(50))
        data = tmp_path / "data"
        data.mkdir()
        FactorDataset(samples, np.zeros((50, 2))).save(data)
        out = tmp_path / "met"
        args = ["metrics", "--model", model, "--metrics", "dhsic", "--data", str(data),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(message, err[0]), err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda lines: lines[:3] + [""] + lines[3:], "samples.csv holds a blank line"),
            (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
             "number of columns changed"),
            (lambda lines: lines[:3] + ["abc," + lines[3].split(",", 1)[1]] + lines[4:],
             "could not convert string 'abc'"),
            (lambda lines: lines[:3] + [lines[3] + "#note"] + lines[4:], "#note"),
            (lambda lines: lines[:1], "samples.csv holds no data rows"),
        ],
        ids=["blank-line", "ragged-row", "non-numeric-cell", "hash-suffix", "header-only"],
    )
    def test_malformed_samples_csv_exits_2(self, model_dir, data_dir, tmp_path, capsys,
                                           corrupt, message):
        # any warning fails the test (filterwarnings), so none reaches stderr
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "factors.csv").write_bytes((data_dir / "factors.csv").read_bytes())
        lines = (data_dir / "samples.csv").read_text().splitlines()
        (bad / "samples.csv").write_text("\n".join(corrupt(lines)) + "\n")
        args = ["metrics", "--model", str(model_dir / "model.json"), "--metrics", "dhsic",
                "--data", str(bad), "--out", str(tmp_path / "met")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"could not load dataset from {bad}: " in err and message in err
        assert "Warning" not in err


class TestSelect:
    def _run(self, pool_dir, out, extra=()):
        root, manifest = pool_dir
        config = _write_json(out.parent / f"{out.name}_cfg.json",
                             {**SMALL_FACTORVAE, "udr": {"samples": 1500}})
        args = ["select", "--pool", manifest, "--out", str(out), "--seed", "0",
                "--config", config, *extra]
        return main(args)

    def test_centrality_prefers_unmixed_models(self, pool_dir, tmp_path):
        out = tmp_path / "sel"
        assert self._run(pool_dir, out) == 0
        rows = _read_rows(out / "scores.csv")
        assert rows[0] == ["model", "label", "score", "stderr"]
        scores = {row[1]: float(row[2]) for row in rows[1:]}
        assert min(scores["alpha"], scores["beta"]) > scores["gamma"]
        # full-fraction averaging short-circuits to exactly zero spread
        assert all(row[3] == "0" for row in rows[1:])
        selection = json.loads((out / "selection.json").read_text())
        assert selection["method"] == "model_centrality"
        assert selection["label"] in ("alpha", "beta")
        best = max(rows[1:], key=lambda row: float(row[2]))
        assert selection["label"] == best[1]

    def test_similarity_matrix_is_symmetric_with_zero_diagonal(self, pool_dir, tmp_path):
        out = tmp_path / "sel"
        assert self._run(pool_dir, out) == 0
        rows = _read_rows(out / "similarity.csv")
        assert rows[0] == ["label", "alpha", "beta", "gamma"]
        m = [row[1:] for row in rows[1:]]
        for i in range(3):
            assert m[i][i] == "0"
            for j in range(3):
                assert m[i][j] == m[j][i]
        svg = (out / "similarity.svg").read_text()
        assert ET.fromstring(svg).tag.endswith("svg")

    def test_selection_score_matches_scores_csv(self, pool_dir, tmp_path):
        # udr-lasso scores are sums of lasso weights, which need all 17 digits
        for method in ("model-centrality", "udr-lasso"):
            out = tmp_path / method
            assert self._run(pool_dir, out, ("--method", method, "--fraction", "0.5")) == 0
            selection = json.loads((out / "selection.json").read_text())
            row = _read_rows(out / "scores.csv")[1 + selection["selected"]]
            assert selection["score"] == float(row[2])

    def test_subsampling_reports_spread(self, pool_dir, tmp_path):
        out = tmp_path / "sel"
        assert self._run(pool_dir, out, ("--fraction", "0.5", "--trials", "10")) == 0
        stderr = [float(row[3]) for row in _read_rows(out / "scores.csv")[1:]]
        assert any(v > 0.0 for v in stderr)

    def test_udr_variants_run(self, pool_dir, tmp_path):
        for variant in ("udr-lasso", "udr-spearman"):
            out = tmp_path / variant
            assert self._run(pool_dir, out, ("--method", variant)) == 0
            selection = json.loads((out / "selection.json").read_text())
            assert selection["method"] == variant.replace("-", "_")

    def test_identical_models_tie_to_the_first(self, pool_dir, tmp_path):
        # three copies of one model score alike, and the tie selects index 0
        root, _ = pool_dir
        manifest = _write_json(root / "same.json", {"models": ["m0/model.json"] * 3})
        for method in ("model-centrality", "udr-lasso", "udr-spearman"):
            out = tmp_path / method
            assert self._run((root, manifest), out, ("--method", method)) == 0
            scores = {row[2] for row in _read_rows(out / "scores.csv")[1:]}
            assert len(scores) == 1, (method, scores)
            selection = json.loads((out / "selection.json").read_text())
            assert selection["selected"] == 0 and selection["label"] == "m0/model"

    def test_deterministic_across_threads(self, pool_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self._run(pool_dir, out_a) == 0
        assert self._run(pool_dir, out_b, ("--threads", "3")) == 0
        for name in ("scores.csv", "similarity.csv", "similarity.svg", "selection.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--fraction", "0", "--fraction must lie in (0, 1], got 0.0"),
        ("--fraction", "1.5", "--fraction must lie in (0, 1], got 1.5"),
        ("--fraction", "nan", "--fraction must lie in (0, 1], got nan"),
        ("--trials", "0", "--trials must be positive, got 0"),
    ])
    def test_bad_subsample_flag_exits_2_before_scoring(
        self, pool_dir, tmp_path, monkeypatch, capsys, flag, value, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the pool was scored")

        monkeypatch.setattr("disentlab.selection.model_centrality", refuse)
        monkeypatch.setattr(cli, "_load_model", refuse)
        out = tmp_path / "sel"
        assert self._run(pool_dir, out, (flag, value)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_udr_lasso_accepts_nearly_equal_code_rows(self, tmp_path):
        # Model 2's fourth encoder row is its second plus noise of size 1e-7,
        # so regressions on its codes have two nearly collinear columns.
        # Their lasso fits used to crawl until NumericFailure and exit 2.
        spectrum = np.array([9.0, 5.0, 3.0, 2.0, 1.0, 0.5])
        d, r = spectrum.size, 4
        b = np.zeros((d, r))
        b[np.arange(r), np.arange(r)] = np.sqrt(spectrum[:r])
        a = np.diag(np.concatenate([np.zeros(r), np.sqrt(spectrum[r:])]))
        rng = np.random.default_rng(0)
        names = []
        for m in range(4):
            weight = b.T / spectrum + 0.3 * rng.standard_normal((r, d))
            if m == 2:
                weight[3] = weight[1] + 1e-7 * rng.standard_normal(d)
            model = {"d": d, "r": r, "B": b.ravel().tolist(), "A": a.ravel().tolist(),
                     "sigma": np.diag(spectrum).ravel().tolist(),
                     "encoder": weight.ravel().tolist()}
            names.append(_write_json(tmp_path / f"m{m}.json", model))
        manifest = _write_json(tmp_path / "pool.json", {"models": names})
        config = _write_json(tmp_path / "cfg.json", {"udr": {"samples": 1000}})
        out = tmp_path / "sel"
        assert main(["select", "--pool", manifest, "--method", "udr-lasso",
                     "--config", config, "--out", str(out), "--seed", "0"]) == 0
        scores = [float(row[2]) for row in _read_rows(out / "scores.csv")[1:]]
        assert len(scores) == 4 and all(0.0 <= v <= 1.0 for v in scores)

    def test_manifest_validation(self, pool_dir, tmp_path):
        root, _ = pool_dir
        out = str(tmp_path / "sel")
        single = _write_json(tmp_path / "one.json", {"models": ["m0/model.json"]})
        assert main(["select", "--pool", single, "--out", out]) == 2
        missing = _write_json(root / "gone.json", {"models": ["m0/model.json", "zz/model.json"]})
        assert main(["select", "--pool", missing, "--out", out]) == 2
        bad_labels = _write_json(
            root / "lab.json",
            {"models": ["m0/model.json", "m1/model.json"], "labels": ["only-one"]},
        )
        assert main(["select", "--pool", bad_labels, "--out", out]) == 2

    def test_mixed_sample_dimensions_exit_2(self, pool_dir, tmp_path, capsys):
        root, _ = pool_dir
        wide = tmp_path / "wide"
        assert main(["optimize", "--objective", "cr", "--r", "2", "--sigma-diag", "9,4,1,0.25",
                     "--out", str(wide), "--seed", "0"]) == 0
        manifest = _write_json(
            root / "mixed.json", {"models": ["m0/model.json", str(wide / "model.json")]}
        )
        capsys.readouterr()
        for method in ("model-centrality", "udr-lasso"):
            args = ["select", "--pool", manifest, "--method", method,
                    "--out", str(tmp_path / method)]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert "generators must share one sample dimension, got [3, 4]" in err

    @staticmethod
    def _refuse_scoring(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the pool was scored")

        for name in ("model_centrality", "udr_pair_scores"):
            monkeypatch.setattr(f"disentlab.selection.{name}", refuse)

    def test_one_model_pool_exits_2_before_scoring(self, pool_dir, tmp_path, monkeypatch,
                                                   capsys):
        self._refuse_scoring(monkeypatch)
        single = _write_json(tmp_path / "one.json", {"models": ["m0/model.json"]})
        out = tmp_path / "sel"
        assert main(["select", "--pool", single, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {single} must list at least two entries under 'models'\n"
        )
        assert not out.exists()

    def test_mixed_sample_dimensions_exit_2_before_scoring(self, pool_dir, tmp_path,
                                                           monkeypatch, capsys):
        root, _ = pool_dir
        wide = tmp_path / "wide"
        assert main(["optimize", "--r", "2", "--sigma-diag", "9,4,1,0.25",
                     "--out", str(wide), "--seed", "0"]) == 0
        manifest = _write_json(
            root / "wide.json", {"models": [str(wide / "model.json"), "m0/model.json"]}
        )
        self._refuse_scoring(monkeypatch)
        capsys.readouterr()
        for method in ("model-centrality", "udr-lasso", "udr-spearman"):
            out = tmp_path / method
            assert main(["select", "--pool", manifest, "--method", method,
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: generators must share one sample dimension, got [3, 4]\n"
            )
            assert not out.exists()

    def test_mixed_code_dimensions_exit_2(self, pool_dir, tmp_path, capsys):
        root, _ = pool_dir
        narrow = tmp_path / "narrow"
        assert main(["optimize", "--r", "1", "--sigma-diag", "9,4,1",
                     "--out", str(narrow), "--seed", "0"]) == 0
        manifest = _write_json(
            root / "codes.json", {"models": ["m0/model.json", str(narrow / "model.json")]}
        )
        capsys.readouterr()
        for method in ("model-centrality", "udr-lasso"):
            args = ["select", "--pool", manifest, "--method", method,
                    "--out", str(tmp_path / method)]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err == "error: encoders must share one code dimension, got [1, 2]\n"


class TestAnalyze:
    def _score_csv(self, path, values):
        rows = ["model,label,score,stderr"]
        rows += [f"{i},model{i},{v},0" for i, v in enumerate(values)]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_reversed_rankings_give_minus_one(self, tmp_path):
        a = self._score_csv(tmp_path / "alpha.csv", [0.1, 0.5, 0.9])
        b = self._score_csv(tmp_path / "beta.csv", [3.0, 2.0, 1.0])
        out = tmp_path / "ana"
        assert main(["analyze", "--scores", a, b, "--out", str(out)]) == 0
        rows = _read_rows(out / "rank_correlation.csv")
        assert rows[0] == ["label", "alpha", "beta"]
        assert rows[1][1] == "1" and rows[2][2] == "1"
        assert rows[1][2] == "-1" and rows[2][1] == "-1"
        assert ET.fromstring((out / "rank_correlation.svg").read_text()).tag.endswith("svg")

    def test_constant_vector_marks_undefined_cells(self, tmp_path):
        a = self._score_csv(tmp_path / "flat.csv", [0.5, 0.5, 0.5])
        b = self._score_csv(tmp_path / "vary.csv", [1.0, 2.0, 3.0])
        out = tmp_path / "ana"
        assert main(["analyze", "--scores", a, b, "--out", str(out)]) == 0
        rows = _read_rows(out / "rank_correlation.csv")
        assert rows[1][2] == "nan"

    def test_non_finite_score_exits_2(self, tmp_path, capsys):
        a = self._score_csv(tmp_path / "a.csv", [0.1, 0.2, 0.3])
        b = self._score_csv(tmp_path / "b.csv", [0.3, float("nan"), 0.1])
        out = tmp_path / "ana"
        assert main(["analyze", "--scores", a, b, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {b} holds non-finite scores\n"
        assert not (out / "rank_correlation.csv").exists()

    def test_input_validation(self, tmp_path):
        a = self._score_csv(tmp_path / "a.csv", [0.1, 0.2, 0.3])
        out = str(tmp_path / "ana")
        assert main(["analyze", "--scores", a, a, "--out", out]) == 2
        assert main(["analyze", "--scores", a, str(tmp_path / "no.csv"), "--out", out]) == 2
        short = self._score_csv(tmp_path / "short.csv", [0.1, 0.2])
        assert main(["analyze", "--scores", a, short, "--out", out]) == 2
        headerless = tmp_path / "bad.csv"
        headerless.write_text("a,b\n1,2\n")
        assert main(["analyze", "--scores", a, str(headerless), "--out", out]) == 2

    def test_two_select_runs_are_told_apart_by_their_directories(self, pool_dir, tmp_path):
        # every select run writes scores.csv, so the file name alone names neither
        _, manifest = pool_dir
        config = _write_json(tmp_path / "cfg.json", {"udr": {"samples": 1500}})
        (tmp_path / "runs").mkdir()
        scores = []
        for variant in ("udr-lasso", "udr-spearman"):
            out = tmp_path / "runs" / variant
            args = ["select", "--pool", manifest, "--method", variant, "--config", config,
                    "--out", str(out)]
            assert main(args) == 0
            scores.append(str(out / "scores.csv"))
        out = tmp_path / "corr"
        assert main(["analyze", "--scores", *scores, "--out", str(out)]) == 0
        rows = _read_rows(out / "rank_correlation.csv")
        assert rows[0] == ["label", "udr-lasso/scores", "udr-spearman/scores"]

    def test_a_path_that_ends_another_reads_in_full(self):
        paths = [Path("a/scores.csv"), Path("b/a/scores.csv")]
        assert _score_labels(paths) == ["a/scores", "b/a/scores"]


class TestCommonPlumbing:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_threads_must_be_positive(self, tmp_path):
        args = ["verify-theorems", "--out", str(tmp_path / "x"), "--threads", "0"]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorems"],
            ["optimize", "--r", "1", "--sigma-diag", "9,4"],
            ["select", "--pool", "no_such_manifest.json"],
        ],
        ids=["verify-theorems", "optimize", "select"],
    )
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen-data", "--circular"], ["analyze", "--scores", "s.csv"]],
        ids=["gen-data", "analyze"],
    )
    def test_config_only_where_it_is_read(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--config", "x.json", "--out", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments: --config x.json" in capsys.readouterr().err
        assert not out.exists()

    def test_out_path_must_not_be_a_file(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("occupied")
        assert main(["verify-theorems", "--out", str(blocker)]) == 2

    def test_out_name_too_long_exits_2(self, tmp_path, capsys):
        out = tmp_path / ("x" * 300)
        assert main(["verify-theorems", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "File name too long" in err

    def test_failed_write_removes_the_files_of_the_run(self, tmp_path, capsys):
        # a directory where report.csv goes fails the second write in a reused --out
        out = tmp_path / "fit"
        (out / "report.csv").mkdir(parents=True)
        assert main(["optimize", "--r", "1", "--sigma-diag", "9,4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["report.csv"]
        assert (out / "report.csv").is_dir()

    def test_failed_write_removes_the_out_it_made(self, tmp_path, monkeypatch):
        def two_files(args):
            return 0, {"a.csv": b"1\n", "no_such_dir/b.csv": b"2\n"}

        monkeypatch.setattr(cli, "cmd_analyze", two_files)
        out = tmp_path / "out"
        assert main(["analyze", "--scores", "s.csv", "--out", str(out)]) == 2
        assert not out.exists()

    def test_main_prints_one_line_for_the_files_it_wrote(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("model,score\n0,0.1\n1,0.2\n2,0.3\n")
        out = tmp_path / "corr"
        assert main(["analyze", "--scores", str(scores), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 files to {out}\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "rank_correlation.csv", "rank_correlation.svg"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorems", "--config", "{bad_config}"],
            ["gen-data", "--linear-gaussian", "--model", "{bad_model}"],
            ["optimize", "--r", "1", "--sigma-diag", "9,-1"],
            ["optimize", "--r", "1", "--sigma-diag", "1,1e-15"],
            ["metrics", "--model", "{bad_model}", "--metrics", "factorvae"],
            ["metrics", "--model", "{model}", "--data", "{short_data}", "--metrics", "dci"],
            ["select", "--pool", "{single_pool}"],
            ["analyze", "--scores", "{scores}", "{scores}"],
        ],
        ids=["verify-theorems", "gen-data-linear-gaussian", "optimize",
             "optimize-nearly-singular", "metrics-model", "metrics-dci-rows", "select", "analyze"],
    )
    def test_exit_2_leaves_no_out_directory(self, model_dir, tmp_path, argv):
        # metrics-dci-rows fails only after its inputs load: 15 rows are too
        # few to regress 2 codes
        short_data = tmp_path / "short"
        assert main(["gen-data", "--linear-gaussian", "--model", str(model_dir / "model.json"),
                     "--n", "15", "--out", str(short_data)]) == 0
        scores = tmp_path / "s.csv"
        scores.write_text("model,score\n0,0.1\n1,0.2\n2,0.3\n")
        model = json.loads((model_dir / "model.json").read_text())
        paths = {
            "bad_config": _write_json(tmp_path / "cfg.json", {"suites": {"bogus": 1}}),
            "bad_model": _write_json(tmp_path / "bad.json", {**model, "d": 3.5}),
            "model": model_dir / "model.json",
            "short_data": short_data,
            "single_pool": _write_json(tmp_path / "one.json", {"models": ["bad.json"]}),
            "scores": scores,
        }
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize", "--r", "3", "--sigma-diag", "9,4"], "need 1 <= r <= 2, got r=3"),
            (["optimize", "--r", "1", "--sigma-diag", "9,-1"],
             "target covariance must be positive definite (min eigenvalue -1.000000e+00)"),
        ],
    )
    def test_rejected_input_prints_its_message_and_exits_2(self, tmp_path, capsys, argv,
                                                           message):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["verify-theorems", "--config", "{file}"], "not json",
             "{file} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            (["verify-theorems", "--config", "{file}"], "[1, 2]",
             "{file} must hold a JSON object"),
            (["optimize", "--r", "1", "--sigma-diag", "9,4", "--config", "{file}"],
             '{"optimizer": 3}', "config section 'optimizer' must be an object"),
            (["metrics", "--model", "{file}", "--metrics", "factorvae"], _SHORT_ENCODER,
             "{file}: encoder must hold 2 weights"),
            (["metrics", "--model", "{file}", "--metrics", ","], _SHORT_ENCODER,
             "--metrics must list at least one metric"),
            (["analyze", "--scores", "{file}"], "model,score\n0,0.1\n1,high\n",
             "{file} has malformed score rows"),
            (["analyze", "--scores", "{file}"], "model,score\n0,0.1\n",
             "{file} needs at least two score rows"),
        ],
        ids=["invalid-json", "json-list", "section-not-object", "encoder-size", "no-metrics",
             "malformed-scores", "one-score-row"],
    )
    def test_rejected_input_prints_one_error_line(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        out = tmp_path / "out"
        argv = [arg.format(file=path) for arg in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(file=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["optimize", "--r", "1", "--sigma-diag", "9,4"],
             {"optimizer": {"step_size": [1]}}, "optimizer.step_size"),
            (["verify-theorems"],
             {**SMALL_VERIFY, "thresholds": {"objective_gap": "1"}}, "thresholds.objective_gap"),
            (["metrics", "--model", "{model}", "--metrics", "factorvae"],
             {"factorvae": {**SMALL_FACTORVAE["factorvae"], "group_size": 1.7}},
             "factorvae.group_size"),
            (["metrics", "--model", "{model}", "--data", "{data}", "--metrics", "dci"],
             {"dci": {"lasso_lambda": None}}, "dci.lasso_lambda"),
            (["select", "--pool", "{pool}", "--method", "udr-spearman"],
             {"udr": {"samples": True}}, "udr.samples"),
        ],
        ids=["list-for-float", "string-for-float", "fraction-for-int", "null-for-float",
             "bool-for-int"],
    )
    def test_config_value_of_wrong_type_exits_2(self, model_dir, data_dir, pool_dir, tmp_path,
                                                capsys, argv, config, key):
        paths = {"model": model_dir / "model.json", "data": data_dir, "pool": pool_dir[1]}
        argv = [arg.format(**paths) for arg in argv]
        cfg = _write_json(tmp_path / "cfg.json", config)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config value {key} must be ")

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["optimize", "--r", "1", "--sigma-diag", "9,4"],
             {"optimizer": {"step_size": float("nan")}}, "optimizer.step_size"),
            (["metrics", "--model", "{model}", "--data", "{data}", "--metrics", "dci"],
             {"dci": {"lasso_lambda": float("nan")}}, "dci.lasso_lambda"),
            (["verify-theorems"],
             {**SMALL_VERIFY, "thresholds": {"objective_gap": float("inf")}},
             "thresholds.objective_gap"),
            (["verify-theorems"],
             {**SMALL_VERIFY, "suites": {**SMALL_VERIFY["suites"], "spectrum": [9, float("nan")]}},
             "suites.spectrum[1]"),
            (["optimize", "--r", "1", "--sigma-diag", "9,4"],
             {"optimizer": {"rel_tol": 10**400}}, "optimizer.rel_tol"),
        ],
        ids=["nan-step-size", "nan-lasso-lambda", "infinite-threshold", "nan-in-spectrum",
             "integer-past-float-range"],
    )
    def test_non_finite_config_number_exits_2(self, model_dir, data_dir, tmp_path, capsys, argv,
                                              config, key):
        paths = {"model": model_dir / "model.json", "data": data_dir}
        argv = [arg.format(**paths) for arg in argv]
        cfg = _write_json(tmp_path / "cfg.json", config)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config value {key} must be a finite number, got ")

    def test_integral_float_is_an_integer(self, tmp_path):
        base = ["optimize", "--r", "1", "--sigma-diag", "9,4"]
        cfg = _write_json(tmp_path / "cfg.json", {"optimizer": {"max_iters": 1e5}})
        assert main(base + ["--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        for name in ("model.json", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestModuleEntryPoint:
    """`python -m disentlab` in a fresh interpreter exits with main's code."""

    def _run(self, tmp_path, *argv):
        src = str(Path(disentlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "disentlab", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)

    def test_passing_verify_exits_0(self, tmp_path):
        config = _write_json(tmp_path / "cfg.json", SMALL_VERIFY)
        done = self._run(tmp_path, "verify-theorems", "--config", config, "--out", "v")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "wrote 2 files to v"

    def test_failed_check_exits_1(self, tmp_path):
        zero = dict.fromkeys(THRESHOLDS, 0.0)
        config = _write_json(tmp_path / "cfg.json", {**SMALL_VERIFY, "thresholds": zero})
        done = self._run(tmp_path, "verify-theorems", "--config", config, "--out", "v")
        assert done.returncode == 1, done.stderr
        assert "fail" in (tmp_path / "v" / "theorem_checks.csv").read_text()

    def test_rejected_input_exits_2(self, tmp_path):
        done = self._run(tmp_path, "optimize", "--r", "1", "--sigma-diag", "9,-1", "--out", "bad")
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: target covariance must be positive definite (min eigenvalue -1.000000e+00)"
        ]
        assert not (tmp_path / "bad").exists()
