"""Property test of the discriminator ascent's per-point step against its curvature bound."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from disentlab.contrastive import (  # noqa: E402
    DISCRIMINATOR_STEP,
    DiscreteDistributionFamily,
    train_discriminator,
)
from support import cross_entropy_objective  # noqa: E402

STEPS = 400


@st.composite
def families(draw):
    """k ∈ [2, 12] rows over m ∈ [1, 4] points, each row a Dirichlet(α) draw.

    α from 0.05 to 5: small α puts nearly all of a row's mass on one point,
    which drives the outputs toward the simplex boundary, where the
    objective's curvature changes fastest.
    """
    k = draw(st.integers(2, 12))
    m = draw(st.integers(1, 4))
    alpha = draw(st.floats(0.05, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.full(m, alpha), size=k)
    return DiscreteDistributionFamily(probs / probs.sum(axis=1, keepdims=True))


@settings(max_examples=100, deadline=None)
@given(families())
def test_ascent_at_its_step_never_falls(family):
    # Each support point steps at its own 1/L, for L ≤ ½ of its normalized
    # cross-entropy, so no step may lower the objective beyond rounding. The
    # loop is train_discriminator's ascent, step by step, with the classes on
    # the first axis, so that it sums them in the same order.
    q, k = family.probs, family.k
    z = q.sum(axis=0)
    rate = np.divide(DISCRIMINATOR_STEP * k, z, out=np.zeros_like(z), where=z > 0.0)
    logits = np.zeros((k, family.support_size))
    last = cross_entropy_objective(family, logits.T)
    for _ in range(STEPS):
        e = np.exp(logits - logits.max(axis=0))
        grad = (q - z * (e / e.sum(axis=0))) / k
        if np.abs(grad).max() < 1e-12:
            break
        logits += rate * grad
        value = cross_entropy_objective(family, logits.T)
        assert value >= last - 1e-12 * max(1.0, abs(last))
        last = value
    (trained,), *_ = train_discriminator([family], iters=STEPS)
    assert np.array_equal(trained, logits.T)
