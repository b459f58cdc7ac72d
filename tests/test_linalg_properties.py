"""Property tests of the linalg kernels.

A stack through eig_sym, spd_sqrt or frobenius_norm equals its one-matrix
calls bit for bit, and frobenius_norm is np.linalg.norm's, finite at any scale.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from disentlab.linalg import SymMatrix, eig_sym, frobenius_norm, spd_sqrt  # noqa: E402


@st.composite
def stacks(draw):
    """F ∈ [1, 6] symmetric n x n matrices, n ∈ [1, 8], each of one of four kinds.

    Dense random, low rank (repeated zero eigenvalues), a few distinct
    eigenvalues each repeated, and diagonal with exact zeros off it; every
    kind is scaled by 10^e, e ∈ [-8, 8], so the anchor threshold of the sign
    rule meets components of every size.
    """
    n = draw(st.integers(1, 8))
    f = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(f):
        kind = draw(st.sampled_from(["dense", "low_rank", "repeated", "diagonal"]))
        if kind == "dense":
            m = rng.standard_normal((n, n))
        elif kind == "low_rank":
            g = rng.standard_normal((n, draw(st.integers(0, n))))
            m = g @ g.T
        elif kind == "repeated":
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = (q * rng.choice(rng.uniform(-2.0, 2.0, 2), n)) @ q.T
        else:
            m = np.diag(rng.standard_normal(n))
        out.append(SymMatrix(m * 10.0 ** draw(st.integers(-8, 8))))
    return out


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stack_equals_one_matrix_calls_bit_for_bit(cases):
    stack = np.stack([m.entries for m in cases])
    w, v = eig_sym(stack)
    for m, got_w, got_v in zip(cases, w, v):
        want_w, want_v = eig_sym(m)
        assert np.array_equal(got_w, want_w)
        assert np.array_equal(got_v, want_v)
    # m·mᵀ is PSD up to round-off, which the scaled tolerance admits
    gram = stack @ stack.transpose(0, 2, 1)
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))  # as SymMatrix stores it
    tol = 1e-10 * np.maximum(1.0, np.linalg.norm(gram, axis=(1, 2)))
    roots = spd_sqrt(gram, tol)
    for g, t, got in zip(gram, tol, roots):
        assert np.array_equal(got, spd_sqrt(SymMatrix(g), t).entries)


@st.composite
def matrices(draw, lo: float, hi: float, stacked: bool = False):
    """An m x n matrix, m, n ∈ [1, 8], or a stack of up to 3, of entries 0 or ±10^u.

    u is uniform in [lo, hi], so one matrix mixes magnitudes; about one entry
    in five is 0.
    """
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    if stacked:
        shape = (draw(st.integers(1, 3)), *shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)
    return np.where(rng.random(shape) < 0.2, 0.0, entries)


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(-10, 10), matrices(-10, 10, stacked=True)), st.integers(-400, 400))
def test_frobenius_norm_scales_by_powers_of_two_bit_for_bit(m, k):
    assert np.array_equal(frobenius_norm(np.ldexp(m, k)), np.ldexp(frobenius_norm(m), k))


@settings(max_examples=150, deadline=None)
@given(matrices(-100, 300, stacked=True))
def test_frobenius_norm_of_a_stack_is_each_matrix_norm_bit_for_bit(stack):
    assert np.array_equal(frobenius_norm(stack), [frobenius_norm(m) for m in stack])


@settings(max_examples=150, deadline=None)
@given(matrices(-100, 100))
def test_frobenius_norm_is_numpys_to_rounding(m):
    assert frobenius_norm(m) == pytest.approx(np.linalg.norm(m), rel=1e-14, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(matrices(-100, 300))
def test_frobenius_norm_is_finite_up_to_1e300(m):
    assert np.isfinite(frobenius_norm(m))
