"""Property tests of the CLI's covariance and model loaders at extreme scales.

A symmetric --sigma CSV loads to its own entries bit for bit anywhere in
float64's normal range, and the matching check gives a model scaled by a
power of two the answer it gives the unscaled model, without a warning.
"""
import argparse
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from disentlab.cli import CliError, _load_model, _read_sigma  # noqa: E402


@st.composite
def symmetric_csvs(draw):
    """A symmetric d x d matrix, d ∈ [1, 4], of entries ±10^u, u ∈ [-300, 308].

    Matrices whose Frobenius norm passes float64's max are left out: the
    loader rejects those by design.
    """
    d = draw(st.integers(1, 4))
    m = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            sign = draw(st.sampled_from([1.0, -1.0]))
            m[i, j] = m[j, i] = sign * float(f"1e{draw(st.integers(-300, 308))}")
    assume(math.hypot(*m.ravel()) < 1.7e308)
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_csvs())
def test_symmetric_sigma_csv_loads_bit_for_bit(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sigma.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = _read_sigma(argparse.Namespace(sigma_diag=None, sigma=str(path)))
    assert loaded.entries.tobytes() == m.tobytes()


@st.composite
def scaled_models(draw):
    """(model, scaled model, matched): B, A → 2^k·B, 2^k·A and Σ → 4^k·Σ, k ∈ [-500, 500].

    Σ is B Bᵀ + A Aᵀ as float64 rounds it, or that plus a symmetric
    perturbation of relative size 1e-4, far from the 1e-8 tolerance.
    """
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((d, r))
    a = rng.standard_normal((d, d))
    sigma = b @ b.T + a @ a.T
    matched = draw(st.booleans())
    if not matched:
        e = rng.standard_normal((d, d))
        sigma = sigma + 1e-4 * np.linalg.norm(sigma) / np.linalg.norm(e + e.T) * (e + e.T)
    sigma = 0.5 * sigma + 0.5 * sigma.T
    k = draw(st.integers(-500, 500))
    model = {"d": d, "r": r, "B": b.ravel(), "A": a.ravel(), "sigma": sigma.ravel()}
    scaled = {**model, "B": np.ldexp(b, k).ravel(), "A": np.ldexp(a, k).ravel(),
              "sigma": np.ldexp(sigma, 2 * k).ravel()}
    return model, scaled, matched


def _accepted(model: dict, path: Path) -> bool:
    path.write_text(json.dumps({key: np.asarray(v).tolist() for key, v in model.items()}))
    try:
        _load_model(path)
    except CliError as exc:
        assert "does not match sigma" in str(exc)
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(scaled_models())
def test_matching_check_is_scale_free(case):
    model, scaled, matched = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _accepted(model, Path(tmp) / "m.json") == matched
        assert _accepted(scaled, Path(tmp) / "m.json") == matched
