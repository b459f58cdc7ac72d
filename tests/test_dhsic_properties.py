"""Property test of dhsic's chunked joint kernel against the strided reference, bit for bit."""
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from disentlab import metrics as metrics_module  # noqa: E402
from disentlab.metrics import dhsic  # noqa: E402
from support import reference_dhsic  # noqa: E402

# how a coordinate is drawn: "tied" takes three values, "constant"
# takes the unit-bandwidth fallback, "copy" repeats coordinate 0
KINDS = ("normal", "tied", "constant", "copy")


def _matrix(n: int, k: int, seed: int, kinds=("normal",), exponents=(0.0,)) -> np.ndarray:
    """An n×k sample whose coordinate j is of kind kinds[j % len] on scale 10**exponents[j % len]."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    for j in range(k):
        kind = kinds[j % len(kinds)]
        if kind == "tied":
            x[:, j] = rng.integers(0, 3, n)
        elif kind == "constant":
            x[:, j] = 2.5
        elif kind == "copy":
            x[:, j] = x[:, 0]
        x[:, j] *= 10.0 ** exponents[j % len(exponents)]
    return x


@st.composite
def samples(draw):
    n, k = draw(st.integers(2, 700)), draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=k))
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=k))
    return _matrix(n, k, draw(st.integers(0, 2**32 - 1)), kinds, exponents)


@settings(max_examples=100, deadline=None)
@given(samples(), st.one_of(st.none(), st.integers(1, 32)))
@example(_matrix(2, 2, 0), None)
@example(_matrix(31, 3, 1, ("normal", "tied")), None)
@example(_matrix(32, 4, 2, ("tied", "normal", "constant")), None)
@example(_matrix(33, 2, 3), None)
@example(_matrix(64, 5, 4, ("normal", "copy"), (-3.0, 3.0)), None)
@example(_matrix(65, 12, 5, KINDS, (0.0, 2.0, -1.5)), None)
@example(_matrix(65, 3, 6), 7)
@example(_matrix(3000, 12, 7, ("normal", "tied", "normal", "copy")), None)
def test_dhsic_returns_the_reference_bits(x, rows):
    # n = 31, 32, 33, 64 and 65 end on a short, full or one-row last block;
    # n = 3000 runs chunks of 21 and 11 rows; rows draws chunk heights 1 to 32
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("ignore", UserWarning)  # the constant coordinate's fallback
        if rows is not None:  # chunks of exactly `rows` rows
            mp.setattr(metrics_module, "_DHSIC_CHUNK", rows * x.shape[0])
        got = dhsic(x)
        want = reference_dhsic(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x.shape, rows, got, want)
