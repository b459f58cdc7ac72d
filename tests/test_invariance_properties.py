"""Property tests of invariances: the contraction projection and the encoder metrics.

project_contraction is idempotent bit for bit and leaves no singular value
above CONTRACTION_SLACK. The vote metric and DCI see the same codes when
each code is scaled by a power of two, and a permutation of the codes
permutes the vote matrix's rows and keeps both scores.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from disentlab.datasets import gen_linear_gaussian_dataset  # noqa: E402
from disentlab.linalg import CONTRACTION_SLACK, project_contraction  # noqa: E402
from disentlab.lingauss import OptimizerConfig, optimize_generator, posterior  # noqa: E402
from disentlab.metrics import (  # noqa: E402
    FactorVaeConfig,
    LinearEncoder,
    dci_disentanglement,
    factorvae_metric,
)


@st.composite
def stacks(draw):
    """F ∈ [1, 4] matrices of m x n, m, n ∈ [1, 6], of entries N(0, 1)·10^u, u ∈ [-3, 3]."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_projection_is_idempotent_and_contractive(b):
    once = project_contraction(b)
    assert np.array_equal(project_contraction(once), once)
    assert np.all(np.linalg.svd(once, compute_uv=False)[:, 0] <= CONTRACTION_SLACK)


# One r = 4 coupling fit of a 6-d spread spectrum; each draw perturbs its
# posterior-mean encoder by 0.3·N(0, 1) noise.
_GEN, _ = optimize_generator(
    np.diag([5.0, 3.0, 2.0, 1.0, 0.5, 0.25]), 4, OptimizerConfig("cr_frobenius")
)
_VOTES = dict(groups_per_factor=30, group_size=20, reference_samples=2000)


@st.composite
def encoders(draw):
    """(W, vote-metric seed, DCI dataset) for a noisy encoder W of _GEN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = posterior(_GEN) + 0.3 * rng.standard_normal((_GEN.r, _GEN.d))
    data = gen_linear_gaussian_dataset(_GEN, 2000, draw(st.integers(0, 2**32 - 1)))
    return weight, draw(st.integers(0, 2**32 - 1)), data


@settings(max_examples=40, deadline=None)
@given(encoders(), st.lists(st.integers(-8, 8), min_size=4, max_size=4))
def test_metrics_are_blind_to_power_of_two_code_scales(case, exponents):
    weight, seed, data = case
    scaled = np.ldexp(1.0, exponents)[:, None] * weight
    cfg = FactorVaeConfig(**_VOTES)
    for before, after in (
        (factorvae_metric(_GEN, LinearEncoder(weight), cfg, seed),
         factorvae_metric(_GEN, LinearEncoder(scaled), cfg, seed)),
        (dci_disentanglement(data, LinearEncoder(weight)),
         dci_disentanglement(data, LinearEncoder(scaled))),
    ):
        # the score, the per-factor or per-code values and the vote or relevance matrix
        for x, y in zip(before, after):
            assert np.array_equal(x, y, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(encoders(), st.permutations(range(4)))
def test_a_code_permutation_permutes_the_votes(case, perm):
    weight, seed, data = case
    cfg = FactorVaeConfig(**_VOTES)
    before = factorvae_metric(_GEN, LinearEncoder(weight), cfg, seed)
    after = factorvae_metric(_GEN, LinearEncoder(weight[perm]), cfg, seed)
    assert after[0] == before[0]
    assert np.array_equal(after[2], before[2][perm])
    dci = dci_disentanglement(data, LinearEncoder(weight))[0]
    assert dci_disentanglement(data, LinearEncoder(weight[perm]))[0] == pytest.approx(
        dci, rel=1e-12, abs=0.0
    )
