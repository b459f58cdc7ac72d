"""Property test of the dataset CSV round trip on arbitrary finite float64 values."""
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from disentlab.metrics import FactorDataset  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def datasets(draw):
    """Samples (n, p) and factors (n, q) of any finite doubles, subnormals and -0.0 included."""
    n = draw(st.integers(1, 6))
    samples = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 5))), elements=finite))
    factors = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 3))), elements=finite))
    return FactorDataset(samples, factors)


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_save_then_load_gives_the_same_bits(ds):
    with tempfile.TemporaryDirectory() as tmp:
        ds.save(tmp)
        back = FactorDataset.load(tmp)
    assert back.samples.shape == ds.samples.shape
    assert back.samples.tobytes() == ds.samples.tobytes()
    assert back.factors.tobytes() == ds.factors.tobytes()
