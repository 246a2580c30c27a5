import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplens.privacy import (
    CalibrationError,
    PrivacyBudget,
    calibrate_sigma,
    delta_to_mu,
    log_delta_to_mu,
    log_ndtr,
    mu_of_noisy_sgd,
    mu_to_delta,
    mu_to_log_delta,
    sigma_sq_over_b,
    sigma_sq_over_b_expansion,
)

BENCH_N = 10**6
BENCH_S = 10**6
BENCH_BUDGET = PrivacyBudget(epsilon=1.0, delta=1e-6)


def test_log_ndtr_matches_scipy_reference():
    from scipy.special import log_ndtr as reference

    # dense around the branch points -20 and -1, log-spaced down to -3e4
    grid = np.concatenate(
        [
            -np.logspace(math.log10(3e4), math.log10(20.0), 4001),
            np.linspace(-20.5, -19.5, 2001),
            np.linspace(-20.0, 40.0, 12001),
            np.linspace(-1.5, -0.5, 2001),
            np.nextafter([-20.0, -1.0], [-np.inf, np.inf]),
        ]
    )
    got = np.array([log_ndtr(float(a)) for a in grid])
    ref = reference(grid)
    np.testing.assert_array_less(np.abs(got - ref), 1e-15 * np.maximum(1.0, np.abs(ref)))


class TestDuality:
    def test_epsilon_zero_closed_form(self):
        # at eps = 0 the duality reduces to Phi(mu/2) - Phi(-mu/2)
        from scipy.special import ndtr

        expected = float(ndtr(0.5) - ndtr(-0.5))
        assert expected == pytest.approx(0.38292, abs=5e-6)
        assert mu_to_delta(1.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_perfect_privacy_limit(self):
        assert mu_to_delta(1e-6, 1.0) == 0.0
        assert mu_to_delta(1e-3, 1.0) < 1e-300

    def test_monotone_in_mu(self):
        assert mu_to_delta(2.0, 1.0) > mu_to_delta(1.0, 1.0)

    def test_monotone_in_epsilon(self):
        assert mu_to_delta(1.0, 0.5) > mu_to_delta(1.0, 1.0)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            mu_to_delta(0.0, 1.0)
        with pytest.raises(ValueError):
            mu_to_delta(-1.0, 1.0)


class TestInverseDuality:
    def test_round_trip_07(self):
        delta = mu_to_delta(0.7, 1.0)
        assert delta_to_mu(1.0, delta) == pytest.approx(0.7, abs=1e-8)

    def test_inverse_of_epsilon_zero_form(self):
        assert delta_to_mu(0.0, 0.38292) == pytest.approx(1.0, abs=1e-4)

    def test_tiny_delta_round_trip(self):
        mu = delta_to_mu(1.0, 1e-12)
        assert 0 < mu < 1
        assert mu_to_delta(mu, 1.0) == pytest.approx(1e-12, rel=1e-6)

    def test_delta_domain_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                delta_to_mu(1.0, bad)

    @given(
        st.floats(min_value=0.05, max_value=12.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_plain_round_trip_where_representable(self, mu, eps):
        # beyond mu ~ 13 the slope d(delta)/d(mu) falls under the float
        # granularity of delta near 1; the log-delta round trip covers that
        delta = mu_to_delta(mu, eps)
        if not 0.0 < delta < 1.0:
            return
        assert delta_to_mu(eps, delta) == pytest.approx(mu, abs=1e-6)

    def test_full_range_round_trip_through_log_delta(self):
        # log delta keeps mu recoverable where delta underflows to 0 (deep
        # tails) and where it rounds to 1 (large mu)
        for mu in np.geomspace(0.05, 50.0, 25):
            for eps in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
                recovered = log_delta_to_mu(eps, mu_to_log_delta(mu, eps))
                assert recovered == pytest.approx(mu, abs=1e-6)


class TestNoisySgdMu:
    def test_full_batch_single_step(self):
        assert mu_of_noisy_sgd(10, 10, 1, 1.0) == pytest.approx(math.sqrt(math.e - 1), rel=1e-12)

    def test_large_sigma_limit(self):
        assert mu_of_noisy_sgd(10, 100, 5, 1e6) < 1e-4

    def test_formula_oracle(self):
        # direct evaluation of (B/n) sqrt(T (e^{1/sigma^2} - 1))
        b, n, t, sigma = 100, 10**6, 10**4, 1.0
        expected = (b / n) * math.sqrt(t * (math.e - 1.0))
        assert expected == pytest.approx(0.0131083, abs=5e-7)
        assert mu_of_noisy_sgd(b, n, t, sigma) == pytest.approx(expected, rel=1e-12)

    def test_monotonicities(self):
        base = mu_of_noisy_sgd(50, 1000, 10, 1.0)
        assert mu_of_noisy_sgd(100, 1000, 10, 1.0) > base
        assert mu_of_noisy_sgd(50, 1000, 20, 1.0) > base
        assert mu_of_noisy_sgd(50, 1000, 10, 2.0) < base

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mu_of_noisy_sgd(11, 10, 1, 1.0)
        with pytest.raises(ValueError):
            mu_of_noisy_sgd(5, 10, 1, 0.0)


class TestCalibration:
    def test_round_trip_and_monotone_in_b(self):
        sigmas = []
        for b in (10, 100, 1000):
            sigma = calibrate_sigma(b, BENCH_N, BENCH_S, BENCH_BUDGET)
            t = math.ceil(BENCH_S / b)
            mu = mu_of_noisy_sgd(b, BENCH_N, t, sigma)
            assert mu_to_delta(mu, BENCH_BUDGET.epsilon) == pytest.approx(
                BENCH_BUDGET.delta, abs=1e-8
            )
            sigmas.append(sigma)
        assert sigmas[0] < sigmas[1] < sigmas[2]

    def test_larger_epsilon_needs_less_noise(self):
        loose = PrivacyBudget(epsilon=4.0, delta=1e-6)
        assert calibrate_sigma(100, BENCH_N, BENCH_S, loose) < calibrate_sigma(
            100, BENCH_N, BENCH_S, BENCH_BUDGET
        )

    def test_batch_above_dataset_rejected(self):
        with pytest.raises(ValueError):
            calibrate_sigma(BENCH_N + 1, BENCH_N, BENCH_S, BENCH_BUDGET)

    def test_infeasible_budget(self):
        # astronomically strict target drives sigma beyond the cap
        strict = PrivacyBudget(epsilon=1e-6, delta=1e-300)
        with pytest.raises(CalibrationError):
            calibrate_sigma(1000, 10**6, 10**9, strict)


class TestSigmaSqOverB:
    def test_decreasing_in_b(self):
        values = [
            sigma_sq_over_b(b, BENCH_N, BENCH_S, BENCH_BUDGET)
            for b in (100, 1000, 10_000, 100_000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_expansion_in_its_regime(self):
        # the two-term form is a large-B expansion: it holds to 10% once
        # mu^2 n^2 / (B S) drops below ~1.5.  B is kept to divisors of S so
        # the ceil(S/B) iteration count does not inflate the sample budget.
        mu = delta_to_mu(BENCH_BUDGET.epsilon, BENCH_BUDGET.delta)
        b_valid = mu**2 * BENCH_N**2 / (1.5 * BENCH_S)
        for b in (50_000, 100_000, 200_000, 500_000):
            assert b >= b_valid and BENCH_S % b == 0
            exact = sigma_sq_over_b(b, BENCH_N, BENCH_S, BENCH_BUDGET)
            approx = sigma_sq_over_b_expansion(b, BENCH_N, BENCH_S, mu)
            assert abs(exact - approx) <= 0.10 * approx

    def test_limit_product_approaches_half(self):
        mu = delta_to_mu(BENCH_BUDGET.epsilon, BENCH_BUDGET.delta)
        first_term = BENCH_S / (mu**2 * BENCH_N**2)
        products = []
        for b in (100, 1000, 10_000, 100_000, 1_000_000):
            value = sigma_sq_over_b(b, BENCH_N, BENCH_S, BENCH_BUDGET)
            products.append(b * (value - first_term))
        assert all(a < b for a, b in zip(products, products[1:]))
        assert products[-1] == pytest.approx(0.5, rel=0.1)


class TestBudgetTypes:
    def test_delta_below_one_over_n_enforced_when_attached(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=1e-6, dataset_size=10**6)
        PrivacyBudget(epsilon=1.0, delta=0.9e-6, dataset_size=10**6)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0, delta=1e-6)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=0.0)
