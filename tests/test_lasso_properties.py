"""Property tests of the lasso solver on random positive-definite Gram stacks."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from disentlab.lasso import lasso_gram_fit  # noqa: E402


@st.composite
def gram_stacks(draw):
    """(gram, cross, lam): P designs of q ≤ 8 columns, some of them all-zero.

    Each design is XᵀX/n of n = 2q + 4 standard normal rows, so its live
    block is positive definite; a zero column gives a zero row and column
    of the Gram matrix and a zero cross term. λ lies in [0, max|c|].
    """
    q = draw(st.integers(1, 8))
    p = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    zero = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * q + 4
    x = rng.standard_normal((p, n, q)) * ~np.asarray(zero)
    y = x @ rng.standard_normal((p, q, t)) + rng.standard_normal((p, n, t))
    gram = x.transpose(0, 2, 1) @ x / n
    cross = x.transpose(0, 2, 1) @ y / n
    lam = draw(st.floats(0.0, 1.0)) * float(np.abs(cross).max())
    return gram, cross, lam


@settings(max_examples=80, deadline=None)
@given(gram_stacks())
def test_fits_meet_kkt_and_match_single_fits(kkt_violation, case):
    gram, cross, lam = case
    w = lasso_gram_fit(gram, cross, lam)
    # every fit of a positive-definite live block certifies its sign pattern
    assert kkt_violation(gram, cross, lam, w).max() <= 1e-12 * np.abs(cross).max()
    zero = np.diagonal(gram, axis1=1, axis2=2) == 0.0
    assert np.all(w[zero] == 0.0)
    p, _, t = cross.shape
    for d in range(p):
        for k in range(t):
            alone = lasso_gram_fit(gram[d:d + 1], cross[d:d + 1, :, k:k + 1], lam)
            assert np.array_equal(alone[0, :, 0], w[d, :, k])


@st.composite
def near_collinear_stacks(draw):
    """(gram, cross, lam): as gram_stacks, with no zero columns and one column
    of every design equal to another plus ε·N(0, 1), ε ∈ [1e-9, 1e-5].

    λ lies in [0.01, 1]·max|c|: the lasso then keeps one of the two columns,
    while a near-zero λ would ask for least-squares weights of size 1/ε.
    """
    q = draw(st.integers(2, 8))
    p = draw(st.integers(1, 3))
    t = draw(st.integers(1, 3))
    src, dst = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
    eps = 10.0 ** draw(st.floats(-9.0, -5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 2 * q + 4
    x = rng.standard_normal((p, n, q))
    x[:, :, dst] = x[:, :, src] + eps * rng.standard_normal((p, n))
    y = x @ rng.standard_normal((p, q, t)) + rng.standard_normal((p, n, t))
    gram = x.transpose(0, 2, 1) @ x / n
    cross = x.transpose(0, 2, 1) @ y / n
    lam = draw(st.floats(0.01, 1.0)) * float(np.abs(cross).max())
    return gram, cross, lam


@settings(max_examples=80, deadline=None)
@given(near_collinear_stacks())
def test_near_collinear_fits_meet_kkt_and_match_single_fits(kkt_violation, case):
    gram, cross, lam = case
    w = lasso_gram_fit(gram, cross, lam)
    # the bound of test_nearly_singular_active_block_is_not_certified
    assert kkt_violation(gram, cross, lam, w).max() <= 1e-9
    p, _, t = cross.shape
    for d in range(p):
        for k in range(t):
            alone = lasso_gram_fit(gram[d:d + 1], cross[d:d + 1, :, k:k + 1], lam)
            assert np.array_equal(alone[0, :, 0], w[d, :, k])
