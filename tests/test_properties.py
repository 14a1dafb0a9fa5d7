"""Property tests: seed derivation and the truncated estimator's clamp."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvreg.jacobi import JacobiBasis, JacobiParams
from pinvreg.regression import NpregModel
from pinvreg.sampling import derive_seed

masters = st.integers(min_value=0, max_value=2**63 - 1)
int_labels = st.integers(min_value=0, max_value=2**63 - 1)
labels = st.one_of(int_labels, st.text(max_size=12), st.floats(allow_nan=False))
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestDeriveSeed:
    @given(masters, st.lists(labels, max_size=4))
    def test_pure_function_of_inputs(self, master, parts):
        # equal inputs, even as distinct objects, give equal seeds
        first = derive_seed(master, *parts)
        assert derive_seed(int(str(master)), *[type(p)(p) for p in parts]) == first
        assert derive_seed(master, *parts) == first
        assert all(isinstance(p, int) for p in first)

    @given(masters, st.lists(int_labels, max_size=4))
    def test_integer_labels_pass_through(self, master, parts):
        assert derive_seed(master, *parts) == (master, *parts)

    @given(masters, labels, labels)
    def test_derivations_compose(self, master, a, b):
        assert derive_seed(derive_seed(master, a), b) == derive_seed(master, a, b)


class TestTruncatedPredict:
    @settings(deadline=None)
    @given(
        st.lists(finite, min_size=1, max_size=8),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=12),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_clamp_is_a_level_bounded_contraction(self, coeffs, x, level, target_share):
        basis = JacobiBasis(JacobiParams(-0.5, -0.5), len(coeffs) - 1)
        coeffs = np.array(coeffs)
        raw = NpregModel(coeffs, basis).predict(x)
        clamped = NpregModel(coeffs, basis, truncation_level=level).predict(x)
        assert np.all(np.abs(clamped) <= level)
        # |clip(u) - clip(v)| <= |u - v| over every pair of predictions
        assert np.all(
            np.abs(clamped[:, None] - clamped[None, :]) <= np.abs(raw[:, None] - raw[None, :])
        )
        # a target inside [-level, level] is never further from the clamped value
        f = target_share * level
        assert np.all(np.abs(clamped - f) <= np.abs(raw - f))
