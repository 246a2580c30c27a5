import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dplens.predictor as pred

PRETRAIN = pred.ImprovementInputs(
    g_norm_sq=1.0, g_h_g=1e2, tr_h=2e8, tr_h_sigma=2e4, sigma=0.5, c=1.0
)
FINETUNE = pred.ImprovementInputs(
    g_norm_sq=1.0, g_h_g=1e2, tr_h=2e6, tr_h_sigma=2e4, sigma=0.5, c=1.0
)


def random_inputs(rng, sigma=None, batch=None):
    """Random inputs and a batch size, drawn unless ``batch`` is given."""
    v = rng.uniform(0.1, 10.0, size=4)
    inputs = pred.ImprovementInputs(
        g_norm_sq=v[0],
        g_h_g=v[1],
        tr_h=v[2],
        tr_h_sigma=v[3],
        sigma=rng.uniform(0.05, 3.0) if sigma is None else sigma,
        c=rng.uniform(0.1, 1.0),
    )
    return inputs, rng.uniform(1.0, 1000.0) if batch is None else batch


class TestDeltaLPriv:
    def test_noiseless_unclipped_equals_public(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            inputs, b = random_inputs(rng, sigma=0.0)
            inputs = pred.ImprovementInputs(
                g_norm_sq=inputs.g_norm_sq,
                g_h_g=inputs.g_h_g,
                tr_h=inputs.tr_h,
                tr_h_sigma=inputs.tr_h_sigma,
                sigma=0.0,
                c=1.0,
            )
            eta = rng.uniform(0.01, 1.0)
            # plain SGD: eta |G|^2 - eta^2/2 (G^T H G + tr(H Sigma)/B)
            public = inputs.g_h_g + inputs.tr_h_sigma / b
            assert pred.delta_l_priv(eta, b, inputs) == (
                eta * inputs.g_norm_sq - 0.5 * eta * eta * public
            )

    def test_vanishes_as_eta_to_zero(self):
        inputs, b = random_inputs(np.random.default_rng(1))
        assert abs(pred.delta_l_priv(1e-12, b, inputs)) < 1e-10

    def test_hand_evaluation(self):
        inputs = pred.ImprovementInputs(
            g_norm_sq=1.0, g_h_g=1.0, tr_h=1.0, tr_h_sigma=1.0, sigma=1.0, c=1.0
        )
        assert pred.delta_l_priv(1.0, 1.0, inputs) == -0.5

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            pred.delta_l_priv(0.0, 1000.0, PRETRAIN)
        with pytest.raises(ValueError):
            pred.delta_l_priv(-0.1, 1000.0, PRETRAIN)


class TestDeltaLPrivStar:
    def test_reduces_to_public_at_sigma_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            inputs, _ = random_inputs(rng, sigma=0.0)
            b = rng.uniform(1, 500)
            assert pred.delta_l_priv_star(b, inputs) == pred.delta_l_pub_star(b, inputs)

    def test_zero_gradient(self):
        inputs = pred.ImprovementInputs(
            g_norm_sq=0.0, g_h_g=1.0, tr_h=1.0, tr_h_sigma=1.0, sigma=1.0
        )
        assert pred.delta_l_priv_star(4.0, inputs) == 0.0

    def test_matches_grid_maximum_over_eta(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inputs, b = random_inputs(rng)
            star = pred.delta_l_priv_star(b, inputs)
            curvature = (
                inputs.c**2 * (inputs.g_h_g + inputs.tr_h_sigma / b)
                + inputs.sigma**2 * inputs.tr_h / b**2
            )
            eta_c = inputs.c * inputs.g_norm_sq / curvature
            grid = eta_c * 10 ** np.linspace(-1, 1, 4001)
            best = max(pred.delta_l_priv(e, b, inputs) for e in grid) / b
            assert star >= best - 1e-12
            assert star == pytest.approx(best, rel=1e-6)

    def test_is_half_the_squared_gradient_norm_over_the_denominator(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            inputs, _ = random_inputs(rng)
            b = rng.uniform(1, 500)
            denom = pred.denominator(b, inputs)
            assert pred.delta_l_priv_star(b, inputs) == 0.5 * inputs.g_norm_sq**2 / denom
            public = pred.denominator(b, replace(inputs, sigma=0.0))
            assert public + pred.decelerator(b, inputs) == denom

    def test_negative_curvature_rejected(self):
        inputs = pred.ImprovementInputs(
            g_norm_sq=1.0, g_h_g=-5.0, tr_h=1.0, tr_h_sigma=0.1, sigma=0.0
        )
        with pytest.raises(pred.NonPositiveCurvatureError):
            pred.delta_l_priv_star(10.0, inputs)


class TestDeltaLPub:
    def test_decreasing_in_batch(self):
        inputs, _ = random_inputs(np.random.default_rng(4))
        assert pred.delta_l_pub_star(20.0, inputs) < pred.delta_l_pub_star(10.0, inputs)

    def test_small_batch_limit(self):
        inputs, _ = random_inputs(np.random.default_rng(5))
        limit = 0.5 * inputs.g_norm_sq**2 / inputs.tr_h_sigma
        assert pred.delta_l_pub_star(1e-9, inputs) == pytest.approx(limit, rel=1e-6)

    @pytest.mark.parametrize(
        "form",
        [
            lambda x: pred.delta_l_pub_star(10.0, x),
            lambda x: pred.delta_l_priv_star(10.0, x),
            lambda x: pred.optimal_mixed_improvement(x, 10.0, 10.0),
        ],
        ids=["pub", "priv", "mixed"],
    )
    def test_g_fourth_overflow_names_g_fourth(self, form):
        # |G|^2 = 1e155 squares past the largest float, about 1.8e308
        inputs = pred.ImprovementInputs(1e155, 1.0, 1.0, 1.0, 0.5, 0.8)
        message = r"\|G\|\^4 overflows a float at g_norm_sq = 1e\+155"
        with pytest.raises(OverflowError, match=message):
            form(inputs)

    def test_identity_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            v = rng.uniform(0.01, 10.0, size=5)
            inputs = pred.ImprovementInputs(
                g_norm_sq=v[0], g_h_g=v[1], tr_h=v[2], tr_h_sigma=v[3],
                sigma=0.0, c=1.0,
            )
            b = v[4] + 0.1
            assert pred.delta_l_priv_star(b, inputs) == pred.delta_l_pub_star(b, inputs)


    @given(
        g_norm_sq=st.floats(min_value=0.0, max_value=1e300),
        g_h_g=st.floats(min_value=-1e300, max_value=1e300),
        tr_h=st.floats(min_value=-1e300, max_value=1e300),
        tr_h_sigma=st.floats(min_value=-1e300, max_value=1e300),
        sigma=st.floats(min_value=0.0, max_value=1e300),
        c=st.floats(min_value=1e-100, max_value=1.0),
        b=st.floats(min_value=1e-100, max_value=1e300),
    )
    @settings(max_examples=300, deadline=None)
    def test_public_denominator_is_the_sigma_zero_denominator_bit_for_bit(
        self, g_norm_sq, g_h_g, tr_h, tr_h_sigma, sigma, c, b
    ):
        inputs = pred.ImprovementInputs(g_norm_sq, g_h_g, tr_h, tr_h_sigma, sigma, c)
        noiseless = replace(inputs, sigma=0.0)
        public = pred.denominator_pub(b, inputs)
        # the full denominator at sigma = 0, written out term by term
        reference = b * g_h_g + tr_h_sigma + pred.decelerator(b, noiseless)
        # adding the zero decelerator changes at most the sign of a zero sum
        assert public.hex() == reference.hex() or public == reference == 0.0
        assert pred.denominator(b, noiseless) == reference

        def outcome(star, x):
            try:
                return star(b, x).hex()
            except ArithmeticError as exc:  # a nonpositive denominator, or |G|^4 overflows
                return type(exc).__name__

        assert outcome(pred.delta_l_pub_star, inputs) == outcome(pred.delta_l_priv_star, noiseless)


class TestDecelerator:
    def test_zero_noise_vanishes(self):
        inputs, b = random_inputs(np.random.default_rng(7), sigma=0.0)
        assert pred.decelerator(b, inputs) == 0.0

    def test_pretraining_parameters(self):
        assert pred.decelerator(1000.0, PRETRAIN) == pytest.approx(5e4)

    def test_finetuning_parameters(self):
        assert pred.decelerator(1000.0, FINETUNE) == pytest.approx(500.0)

    def test_decreasing_in_batch(self):
        inputs, _ = random_inputs(np.random.default_rng(8))
        assert pred.decelerator(100.0, inputs) < pred.decelerator(10.0, inputs)


def grid_argmax_batch(inputs, lo=1.0, hi=1e6, points=2_000_001):
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    denom = (
        grid * inputs.g_h_g
        + inputs.tr_h_sigma
        + inputs.sigma**2 * inputs.tr_h / (grid * inputs.c**2)
    )
    return grid[int(np.argmin(denom))]


class TestOptimalBatch:
    def test_pretraining_value_and_grid(self):
        b_star = pred.optimal_batch_dp(PRETRAIN)
        assert b_star == pytest.approx(707.11, abs=0.01)
        b_grid = grid_argmax_batch(PRETRAIN)
        assert abs(math.log(b_star) - math.log(b_grid)) <= 2e-5

    def test_finetuning_value_and_grid(self):
        b_star = pred.optimal_batch_dp(FINETUNE)
        assert b_star == pytest.approx(70.71, abs=0.01)
        b_grid = grid_argmax_batch(FINETUNE)
        assert abs(math.log(b_star) - math.log(b_grid)) <= 2e-5

    def test_sigma_zero_has_no_interior_optimum(self):
        with pytest.raises(pred.NoInteriorOptimumError):
            pred.optimal_batch_dp(random_inputs(np.random.default_rng(9), sigma=0.0)[0])

    def test_nonpositive_curvature_rejected(self):
        bad = pred.ImprovementInputs(
            g_norm_sq=1.0, g_h_g=0.0, tr_h=1.0, tr_h_sigma=1.0, sigma=1.0
        )
        with pytest.raises(pred.NonPositiveCurvatureError):
            pred.optimal_batch_dp(bad)


def twice_batch_sides(inputs):
    """Public improvement at 2 B* and private improvement at B*."""
    b_star = pred.optimal_batch_dp(inputs)
    return pred.delta_l_pub_star(2.0 * b_star, inputs), pred.delta_l_priv_star(b_star, inputs)


class TestTwiceBatchIdentity:
    def test_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            lhs, rhs = twice_batch_sides(random_inputs(rng)[0])
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_paper_parameters(self):
        lhs, rhs = twice_batch_sides(PRETRAIN)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_fails_off_optimum(self):
        inputs = PRETRAIN
        b = 2.0 * pred.optimal_batch_dp(inputs)  # any B != B*
        lhs = pred.delta_l_pub_star(2.0 * b, inputs)
        rhs = pred.delta_l_priv_star(b, inputs)
        assert abs(lhs - rhs) / abs(rhs) > 1e-6


class TestDataEfficiency:
    # the data-efficient regime: B* << tr(H Sigma) / (2 G^T H G)
    def test_finetuning_regime(self):
        assert pred.optimal_batch_dp(FINETUNE) < FINETUNE.tr_h_sigma / (2.0 * FINETUNE.g_h_g)

    def test_pretraining_regime(self):
        assert pred.optimal_batch_dp(PRETRAIN) > PRETRAIN.tr_h_sigma / (2.0 * PRETRAIN.g_h_g)


def random_mix(rng, sigma=None):
    """Inputs, a public batch size and a private batch size."""
    v = rng.uniform(0.1, 10.0, size=4)
    sigma = rng.uniform(0.05, 3.0) if sigma is None else sigma
    c = rng.uniform(0.1, 1.0)
    b_public = rng.uniform(1.0, 1000.0)
    inputs = pred.ImprovementInputs(
        g_norm_sq=v[0], g_h_g=v[1], tr_h=v[2], tr_h_sigma=v[3], sigma=sigma, c=c
    )
    return inputs, b_public, rng.uniform(1.0, 1000.0)


def mixed_improvement_direct(eta0, eta1, inputs, b_public, b_private):
    """Independent route: expectation/covariance of the mixed gradient."""
    eta = eta0 + eta1
    if eta == 0.0:
        return 0.0
    alpha = eta0 / eta
    mean_scale = alpha + (1.0 - alpha) * inputs.c
    cov_tr_h_sigma = (
        alpha**2 / b_public + (1.0 - alpha) ** 2 * inputs.c**2 / b_private
    ) * inputs.tr_h_sigma
    cov_noise = (1.0 - alpha) ** 2 * inputs.sigma**2 * inputs.tr_h / b_private**2
    return (
        eta * mean_scale * inputs.g_norm_sq
        - 0.5 * eta**2 * (cov_tr_h_sigma + cov_noise + mean_scale**2 * inputs.g_h_g)
    )


class TestMixedImprovement:
    def test_zero_at_origin(self):
        mix = random_mix(np.random.default_rng(12))
        assert pred.mixed_improvement(0.0, 0.0, *mix) == 0.0

    def test_public_only_reduction(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            inputs, b_public, b_private = random_mix(rng)
            eta0 = rng.uniform(0.001, 0.5)
            # the public special case of delta_l_priv: sigma = 0, c = 1
            public = replace(inputs, sigma=0.0, c=1.0)
            assert pred.mixed_improvement(
                eta0, 0.0, inputs, b_public, b_private
            ) == pytest.approx(pred.delta_l_priv(eta0, b_public, public), rel=1e-12)

    def test_private_only_reduction(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            inputs, b_public, b_private = random_mix(rng)
            eta1 = rng.uniform(0.001, 0.5)
            assert pred.mixed_improvement(
                0.0, eta1, inputs, b_public, b_private
            ) == pytest.approx(pred.delta_l_priv(eta1, b_private, inputs), rel=1e-12)

    def test_matches_mean_covariance_route(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            mix = random_mix(rng)
            eta0, eta1 = rng.uniform(0.0, 0.5, size=2)
            assert pred.mixed_improvement(eta0, eta1, *mix) == pytest.approx(
                mixed_improvement_direct(eta0, eta1, *mix), rel=1e-10, abs=1e-12
            )

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            pred.mixed_improvement(-0.1, 0.1, *random_mix(np.random.default_rng(16)))

    @pytest.mark.parametrize("b_public", [0.0, -1.0])
    def test_nonpositive_public_batch_rejected(self, b_public):
        inputs, _, b_private = random_mix(np.random.default_rng(16))
        with pytest.raises(ValueError, match="public batch size"):
            pred.mixed_quadratic_coefficients(inputs, b_public, b_private)


def mix_inputs(sigma, c, **stats):
    return pred.ImprovementInputs(**stats, sigma=sigma, c=c)


SYMMETRIC = dict(g_norm_sq=2.0, g_h_g=1.5, tr_h=3.0, tr_h_sigma=2.0)


class TestOptimalMixAlpha:
    def test_symmetric_case(self):
        inputs = mix_inputs(0.0, 1.0, **SYMMETRIC)
        assert pred.optimal_mix_alpha(inputs, 64.0, 64.0) == pytest.approx(0.5, abs=1e-12)

    def test_large_noise_limit(self):
        alphas = [
            pred.optimal_mix_alpha(mix_inputs(sigma, 0.8, **SYMMETRIC), 64.0, 64.0)
            for sigma in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] > 0.999

    def test_paper_style_case(self):
        inputs = mix_inputs(0.5, 1.0, g_norm_sq=1.0, g_h_g=1e2, tr_h=2e8, tr_h_sigma=2e4)
        alpha = pred.optimal_mix_alpha(inputs, 1000.0, 1000.0)
        assert alpha == pytest.approx(7.0 / 9.0, rel=1e-12)

    def test_matches_two_dim_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mix = random_mix(rng)
            alpha_closed = pred.optimal_mix_alpha(*mix)
            a, b, c_lin, d_lin, e = pred.mixed_quadratic_coefficients(*mix)
            det = 4 * a * b - e * e
            x0 = -(2 * b * c_lin - d_lin * e) / det
            y0 = -(2 * a * d_lin - c_lin * e) / det
            xg = np.linspace(0.5 * x0, 1.5 * x0, 601)
            yg = np.linspace(0.5 * y0, 1.5 * y0, 601)
            xx, yy = np.meshgrid(xg, yg, indexing="ij")
            vals = -(a * xx**2 + b * yy**2 + c_lin * xx + d_lin * yy + e * xx * yy)
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            alpha_grid = xg[i] / (xg[i] + yg[j])
            assert abs(alpha_closed - alpha_grid) <= 1e-3

    def test_eq10_closed_form_equivalence(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            inputs, b_public, b_private = random_mix(rng)
            alpha = pred.optimal_mix_alpha(inputs, b_public, b_private)
            c = inputs.c
            ratio = (
                (1.0 / c)
                * (inputs.tr_h_sigma * b_private / b_public)
                / (inputs.tr_h_sigma + inputs.sigma**2 * inputs.tr_h / (b_private * c**2))
            )
            assert alpha == pytest.approx(1.0 / (ratio + 1.0), rel=1e-9)

    def test_degenerate_rejected(self):
        inputs = mix_inputs(0.0, 1.0, g_norm_sq=1.0, g_h_g=0.0, tr_h=0.0, tr_h_sigma=0.0)
        with pytest.raises(pred.SaddleOrDegenerateError):
            pred.optimal_mix_alpha(inputs, 10.0, 10.0)

    def test_mixed_beats_both_pure_strategies(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            mix = random_mix(rng)  # sigma > 0 by construction
            inputs, b_public, b_private = mix
            public = b_public * pred.delta_l_pub_star(b_public, inputs)
            private = b_private * pred.delta_l_priv_star(b_private, inputs)
            # each is the optimum of the mixed quadratic along its own axis
            a, b, c_lin, d_lin, _ = pred.mixed_quadratic_coefficients(*mix)
            assert pred.mixed_improvement(-c_lin / (2 * a), 0.0, *mix) == pytest.approx(public)
            assert pred.mixed_improvement(0.0, -d_lin / (2 * b), *mix) == pytest.approx(private)
            mixed = pred.optimal_mixed_improvement(*mix)
            assert mixed > public
            assert mixed > private
            assert 0.0 < pred.optimal_mix_alpha(*mix) < 1.0


# each closed form that takes a batch size checks it, one call per argument;
# TestMixedImprovement checks the public batch of mixed_quadratic_coefficients
BATCH_CHECKS = {
    "delta_l_priv": (lambda b: pred.delta_l_priv(0.1, b, PRETRAIN), "batch size"),
    "delta_l_priv_star": (lambda b: pred.delta_l_priv_star(b, PRETRAIN), "batch size"),
    "coefficients_private": (
        lambda b: pred.mixed_quadratic_coefficients(PRETRAIN, 64.0, b), "private batch size"
    ),
    "alpha_public": (lambda b: pred.optimal_mix_alpha(PRETRAIN, b, 64.0), "public batch size"),
    "alpha_private": (lambda b: pred.optimal_mix_alpha(PRETRAIN, 64.0, b), "private batch size"),
}


@pytest.mark.parametrize("b", [0.0, -5.0])
@pytest.mark.parametrize("name", sorted(BATCH_CHECKS))
def test_nonpositive_batch_size_rejected(name, b):
    call, what = BATCH_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{what} must be positive$"):
        call(b)


class TestScheduleCumulative:
    def _sequence(self, rng, n, sigma):
        return [random_inputs(rng, sigma=sigma, batch=64.0)[0] for _ in range(n)]

    def test_no_noise_no_gap(self):
        seq = self._sequence(np.random.default_rng(27), 20, 0.0)
        result = pred.schedule_cumulative(seq, 64.0, 0.5)
        assert result.gap == 0.0

    def test_fully_public_no_gap(self):
        seq = self._sequence(np.random.default_rng(28), 20, 1.0)
        result = pred.schedule_cumulative(seq, 64.0, 1.0)
        assert result.gap == 0.0
        assert result.mixed_sum == result.public_sum

    def test_mixed_below_public(self):
        seq = self._sequence(np.random.default_rng(29), 30, 0.8)
        result = pred.schedule_cumulative(seq, 64.0, 0.4)
        assert result.mixed_sum <= result.public_sum
        assert result.gap >= 0.0

    def test_decayed_decelerator_bounds_gap(self):
        # after the switch the decelerator is at most 1% of tr(H Sigma)
        rng = np.random.default_rng(30)
        seq = []
        s = 0.5
        n = 40
        for t in range(n):
            v = rng.uniform(1.0, 3.0, size=4)
            if t < s * n:
                sigma = 1.0
            else:
                tr_h_sigma = v[3]
                # choose sigma so sigma^2 tr_h / (B c^2) = 0.01 tr_h_sigma
                sigma = math.sqrt(0.01 * tr_h_sigma * 64.0 / v[2])
            seq.append(
                pred.ImprovementInputs(
                    g_norm_sq=v[0], g_h_g=v[1], tr_h=v[2], tr_h_sigma=v[3],
                    sigma=sigma, c=1.0,
                )
            )
        result = pred.schedule_cumulative(seq, 64.0, s)
        assert result.gap <= 0.01 * result.public_sum

    def test_validation(self):
        with pytest.raises(ValueError):
            pred.schedule_cumulative([], 64.0, 0.5)
        with pytest.raises(ValueError):
            pred.schedule_cumulative(
                self._sequence(np.random.default_rng(31), 3, 0.5), 64.0, 1.5
            )


class TestMonotonicities:
    @given(st.floats(min_value=0.15, max_value=1.0), st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_priv_star_monotone_in_c_and_sigma(self, c, sigma):
        base = pred.ImprovementInputs(
            g_norm_sq=2.0, g_h_g=1.0, tr_h=5.0, tr_h_sigma=3.0,
            sigma=sigma, c=c,
        )
        poorer_c = pred.ImprovementInputs(
            g_norm_sq=2.0, g_h_g=1.0, tr_h=5.0, tr_h_sigma=3.0,
            sigma=sigma, c=c - 0.1,
        )
        noisier = pred.ImprovementInputs(
            g_norm_sq=2.0, g_h_g=1.0, tr_h=5.0, tr_h_sigma=3.0,
            sigma=sigma + 0.1, c=c,
        )
        b = 16.0
        assert pred.delta_l_priv_star(b, base) >= pred.delta_l_priv_star(b, poorer_c)
        assert pred.delta_l_priv_star(b, base) > pred.delta_l_priv_star(b, noisier)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pred.ImprovementInputs(
                g_norm_sq=-1.0, g_h_g=1.0, tr_h=1.0, tr_h_sigma=1.0, sigma=0.0
            )
        with pytest.raises(ValueError):
            pred.ImprovementInputs(
                g_norm_sq=1.0, g_h_g=1.0, tr_h=1.0, tr_h_sigma=1.0, sigma=0.0, c=1.5
            )
        with pytest.raises(ValueError):
            pred.ImprovementInputs(
                g_norm_sq=1.0, g_h_g=1.0, tr_h=1.0, tr_h_sigma=1.0, sigma=-0.1
            )

    def test_alpha_clamp_warns_instead_of_failing(self):
        # the closed form stays interior for valid inputs; exercise the clamp
        # path directly through a synthetic stationary point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng = np.random.default_rng(32)
            for _ in range(200):
                pred.optimal_mix_alpha(*random_mix(rng))
