"""Property test: a stack through eig_sym or spd_sqrt equals its one-matrix calls bit for bit."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from disentlab.linalg import SymMatrix, eig_sym, spd_sqrt  # noqa: E402


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
