import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dplens.clipping import ClippingRule, clip_factors, noised_mean, weighted_gradient_sums
from reference import clip_factor, privatize_gradient

AUTO = ClippingRule("auto")
REPARAM1 = ClippingRule(r=1.0)


class TestClipFactor:
    def test_reparam_above_threshold(self):
        assert clip_factor(2.0, REPARAM1) == 0.5

    def test_reparam_below_threshold(self):
        assert clip_factor(0.5, REPARAM1) == 1.0

    def test_auto(self):
        assert clip_factor(4.0, AUTO) == 0.25

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            clip_factor(-1.0, AUTO)

    def test_auto_zero_norm_sentinel(self):
        assert clip_factor(0.0, AUTO) == 0.0

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e12, allow_subnormal=False),
                st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-8, 8)),
            ),
            max_size=40,
        ),
        st.one_of(st.just(AUTO), st.floats(1e-3, 1e3).map(lambda r: ClippingRule(r=r))),
    )
    @example([0.3, 1.0, 2.5, 10.0], AUTO)
    @example([0.3, 1.0, 2.5, 10.0], REPARAM1)
    @example([0.3, 1.0, 2.5, 10.0], ClippingRule(r=3.0))
    @settings(max_examples=300, deadline=None)
    def test_vectorised_matches_scalar(self, norms, rule):
        # zero and the threshold itself are the boundary cases of both rules
        norms = np.array(norms + [0.0, rule.r])
        expected = np.array([clip_factor(n, rule) for n in norms])
        assert np.array_equal(clip_factors(norms, rule), expected)

    def test_vectorised_negative_norm_rejected(self):
        for rule in (AUTO, REPARAM1):
            with pytest.raises(ValueError):
                clip_factors(np.array([1.0, -1e-12]), rule)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_sensitivity_bound(self, g_norm, r):
        # clipped contribution never exceeds unit norm; AUTO attains it
        assert g_norm * clip_factor(g_norm, ClippingRule(r=r)) <= 1.0 + 1e-12
        assert g_norm * clip_factor(g_norm, AUTO) == pytest.approx(1.0)

    @given(
        st.floats(min_value=1e-9, max_value=1e6),
        st.floats(min_value=1.0, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_auto_dominates_reparam(self, g_norm, r):
        # the zero-gradient sentinel is excluded: both rules contribute the
        # zero vector there, so no factor comparison is meaningful
        assert clip_factor(g_norm, AUTO) >= clip_factor(g_norm, ClippingRule(r=r)) - 1e-15


class TestPrivatizeGradient:
    def test_two_unit_gradients(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = privatize_gradient(grads, AUTO, 0.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_single_gradient_auto(self):
        # |g| = 5, C = 1/5, batch size 1: (3,4)/5
        out = privatize_gradient(np.array([[3.0, 4.0]]), AUTO, 0.0)
        assert np.allclose(out, [0.6, 0.8])

    def test_inactive_reparam_is_plain_mean(self):
        rng = np.random.default_rng(0)
        grads = 0.2 * rng.standard_normal((16, 5))
        assert np.max(np.linalg.norm(grads, axis=1)) < 1.0
        out = privatize_gradient(grads, REPARAM1, 0.0)
        assert np.allclose(out, grads.mean(axis=0), rtol=1e-12)

    def test_sigma_zero_deterministic(self):
        grads = np.array([[1.0, 2.0], [3.0, -1.0]])
        a = privatize_gradient(grads, AUTO, 0.0)
        b = privatize_gradient(grads, AUTO, 0.0)
        assert np.array_equal(a, b)

    def test_fixed_seed_bit_identical(self):
        grads = np.array([[1.0, 2.0], [3.0, -1.0]])
        a = privatize_gradient(grads, AUTO, 0.7, np.random.default_rng(42))
        b = privatize_gradient(grads, AUTO, 0.7, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_noise_mean_and_variance(self):
        grads = np.array([[0.6, 0.0], [0.0, 0.6]])
        b, sigma, draws = 2, 0.9, 20_000
        rng = np.random.default_rng(1)
        # both norms are below R = 1, so reparam clipping leaves the sum as it is
        totals = np.repeat(grads.sum(axis=0)[None, :], draws, axis=0)
        outs = noised_mean(totals, b, sigma, rng)
        center = grads.mean(axis=0)
        noise = outs - center
        se = sigma / b / np.sqrt(draws)
        assert np.all(np.abs(noise.mean(axis=0)) <= 3 * se)
        var = noise.var(axis=0, ddof=1)
        assert np.all(np.abs(var - (sigma / b) ** 2) <= 0.05 * (sigma / b) ** 2)

    def test_zero_gradient_sample_contributes_nothing(self):
        grads = np.array([[0.0, 0.0], [0.0, 2.0]])
        out = privatize_gradient(grads, AUTO, 0.0)
        assert np.allclose(out, [0.0, 0.5])

    def test_errors(self):
        with pytest.raises(ValueError):
            privatize_gradient(np.empty((0, 3)), AUTO, 0.0)
        with pytest.raises(ValueError):
            privatize_gradient(np.ones((2, 2)), AUTO, -0.1)
        with pytest.raises(ValueError):
            privatize_gradient(np.ones((2, 2)), AUTO, 1.0, None)


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (4, 9, 64), (2, 3, 200)])
def test_weighted_sums_take_the_norms_of_linalg_norm(shape):
    rng = np.random.default_rng(sum(shape))
    grads = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    seen = []

    def weight_of_norms(norms):
        seen.append(norms)
        return clip_factors(norms, REPARAM1)

    total = weighted_gradient_sums(grads, weight_of_norms)
    want = np.linalg.norm(grads, axis=-1)
    assert np.array_equal(seen[0], want)
    assert np.array_equal(total, np.einsum("...i,...ij->...j", clip_factors(want, REPARAM1), grads))
