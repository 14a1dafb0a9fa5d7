"""Property tests: seed derivation, the truncated estimator's clamp, and the
law of the exact-CDF transform."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvreg import sampling
from pinvreg.jacobi import JacobiBasis, JacobiParams
from pinvreg.regression import NpregModel
from pinvreg.sampling import cdf_transform, derive_rng, derive_seed

masters = st.integers(min_value=0, max_value=2**63 - 1)
int_labels = st.integers(min_value=0, max_value=2**63 - 1)
labels = st.one_of(int_labels, st.text(max_size=12), st.floats(allow_nan=False))
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# multi-word masters: one, two and three uint32 words, a 100-bit int, tuples
wide_masters = st.one_of(
    st.sampled_from([0, 2**32, 2**64 + 5, 10**30]),
    masters,
    st.tuples(st.integers(0, 2**70), st.integers(0, 2**40)),
)
stream_labels = st.one_of(
    int_labels, st.booleans(), st.text(max_size=12), st.floats(allow_nan=False),
    st.integers(0, 2**63 - 1).map(np.int64),
)


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


class TestDeriveRng:
    @given(wide_masters, st.lists(stream_labels, max_size=4))
    def test_stream_is_default_rng_of_the_seed(self, master, parts):
        # the words derive_rng packs seed the same generator state
        expected = np.random.default_rng(derive_seed(master, *parts))
        assert derive_rng(master, *parts).bit_generator.state == \
            expected.bit_generator.state

    def test_negative_part_is_rejected(self):
        for args in ((-1,), (0, -3), ((5, -2), "x")):
            with pytest.raises(ValueError):
                derive_rng(*args)

    @pytest.mark.parametrize("order", [(np.int64(5), 5.0), (5.0, np.int64(5))])
    def test_equal_keys_keep_their_own_seeds(self, order):
        # np.int64(5) == 5.0 and they hash equal, but their seeds hash their
        # text ("5" and "5.0"), so a cache keyed on the label would mix them
        sampling._label_hash.cache_clear()
        expected = {np.int64: (0, 10039658952310757792), float: (0, 5390500860477764613)}
        assert [derive_seed(0, label) for label in order] == \
            [expected[type(label)] for label in order]


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


class TestCdfTransformMean:
    @settings(deadline=None)
    @given(st.floats(min_value=-0.5, max_value=3.0), st.floats(min_value=-0.5, max_value=3.0))
    def test_mean_is_the_weight_law_mean(self, a, b):
        # the midpoint grid through the identity CDF averages the quantile
        # function, so its mean is the law's mean up to 1/n for both domains
        params = JacobiParams(a, b)
        u = (np.arange(4000) + 0.5) / 4000
        tau_mean = (b + 1.0) / (a + b + 2.0)            # Beta(b + 1, a + 1)
        x = cdf_transform(u, lambda x: x, params)
        tau = (x + 1.0) / 2.0
        assert abs(np.mean(tau) - tau_mean) < 1e-3
        assert abs(np.mean(x) - (2.0 * tau_mean - 1.0)) < 1e-3
