"""The verify registry: each suite's keys, least values, bounds and thresholds in one entry.

A suite is one check generator plus one SUITES entry, so these checks hold
for every suite the table lists, a new one included.
"""
import contextlib
import io
import sys
from collections import Counter

import pytest

from disentlab import linalg, verify
from disentlab.cli import _defaults
from disentlab.lingauss import LinearGenerator, OptimizerConfig
from disentlab.verify import SUITES

# The suites' smallest useful sizes, so each entry runs in milliseconds.
SMALL = {"matrices": 1, "seeds": 2, "pca_seeds": 2, "families": 3, "bias_cases": 3}


def test_every_suites_key_belongs_to_exactly_one_entry():
    counts = Counter(key for entry in SUITES.values() for key in entry.keys)
    assert {key for key, n in counts.items() if n != 1} == set()
    assert list(verify.DEFAULTS) == list(counts)


def test_every_threshold_key_belongs_to_exactly_one_entry():
    counts = Counter(key for entry in SUITES.values() for key in entry.thresholds)
    assert {key for key, n in counts.items() if n != 1} == set()
    assert list(verify.THRESHOLDS) == list(counts)


@pytest.mark.parametrize("name", list(SUITES))
def test_least_values_and_bounds_name_keys_of_their_own_entry(name):
    entry = SUITES[name]
    assert set(entry.least) <= set(entry.keys)
    for key, bound in entry.most.items():
        assert {key, bound} <= set(entry.keys) and key != bound
        # a bounded code dimension is checked between its least value and its bound
        assert key in entry.least


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_runs_on_its_own_keys_and_thresholds(name):
    # a suite that reads another entry's key or threshold raises KeyError here
    entry = SUITES[name]
    suites = {key: SMALL.get(key, default) for key, default in entry.keys.items()}
    opt = _defaults(OptimizerConfig, "lam", "alpha")
    ascents = []
    checks = list(entry.checks(0, suites, opt, dict(entry.thresholds), ascents))
    assert checks and all(value <= threshold for _, _, value, threshold in checks)
    assert all(row[0] == name for row in ascents)


def test_theorem_checks_list_their_suites_in_suites_order():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        failures, files = verify.run(0, {"suites": SMALL})
    assert failures == 0
    rows = [line.split(",") for line in files["theorem_checks.csv"].decode().splitlines()[1:]]
    assert list(dict.fromkeys(row[0] for row in rows)) == list(SUITES)
    ascents = [line.split(",") for line in files["ascents.csv"].decode().splitlines()[1:]]
    order = list(dict.fromkeys(row[0] for row in ascents))
    assert order == [name for name in SUITES if name in order]
    assert [line.split(":")[0] for line in out.getvalue().splitlines()] == list(SUITES)


def test_default_run_builds_no_generator_and_symmetrizes_each_input_once(monkeypatch):
    # the ascents return plain B and A stacks, so no generator re-symmetrizes
    # its Σ; 14 calls cover every covariance, square root and residual
    symmetrized, post_init = linalg.symmetrized, LinearGenerator.__post_init__
    built, calls = [], []

    def counted(m):
        calls.append(1)
        return symmetrized(m)

    def counted_post_init(self):
        built.append(1)
        post_init(self)

    for name, module in list(sys.modules.items()):
        if name.startswith("disentlab") and getattr(module, "symmetrized", None) is symmetrized:
            monkeypatch.setattr(module, "symmetrized", counted)
    monkeypatch.setattr(LinearGenerator, "__post_init__", counted_post_init)
    with contextlib.redirect_stdout(io.StringIO()):
        failures, _ = verify.run(0, {})
    assert failures == 0
    assert len(built) == 0
    assert len(calls) <= 14
