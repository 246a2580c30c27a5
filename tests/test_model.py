from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplens.cli import task_from_config
from dplens.clipping import ClippingRule, clip_factors, clip_weights
from dplens.hessian import HessianStats, stats_snapshot
from dplens.model import (
    DifferentiableTask,
    LogisticTask,
    QuadraticTask,
    TinyMlpTask,
    _sigmoid,
    population_stats,
)
from dplens.trainer import empirical_improvement_oracle
from reference import (
    DenseQuadratic,
    empirical_moments,
    generator_end_state,
    hessian_forms,
    per_sample_gradients,
    stacked_gradient_hessian_forms,
    stacked_improvement_oracle,
    trace_from_forms,
)


def quadratic_case(d=4, seed=3):
    """Diagonals of A and S with distinct entries spread over 16x, in shuffled
    order, and a nonzero mean."""
    rng = np.random.default_rng(seed)
    a = np.geomspace(0.25, 4.0, d)[rng.permutation(d)]
    s = np.geomspace(1.0 / 16.0, 1.0, d)[rng.permutation(d)]
    x_mean = rng.standard_normal(d)
    return QuadraticTask(a, x_mean, s)


def logistic_case(n=40, d=5, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(int)
    return LogisticTask(x, y)


def mlp_case(seed=11):
    return TinyMlpTask(n_in=3, hidden=8, n_out=2, teacher_seed=seed, noise_std=0.1)


def fd_gradient(task, w, batch, h=1e-6):
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (task.batch_loss(w + e, batch) - task.batch_loss(w - e, batch)) / (2 * h)
    return g


def form(task, w, batch, v):
    """v^T H v for one direction, through the reference's block forms."""
    return hessian_forms(task, w, batch, v[None, :])[0]


def bilinear(task, w, batch, u, v):
    """u^T H v by polarization of the forms."""
    return (form(task, w, batch, u + v) - form(task, w, batch, u - v)) / 4.0


def test_task_interface_is_the_batched_methods():
    assert DifferentiableTask.__abstractmethods__ == {
        "dimension",
        "batch_loss",
        "loss_and_weighted_gradient_sum",
        "gradient_hessian_forms",
        "draw_batch",
    }
    # the quadratic's gradient block lives inside its passes, as the others'
    assert not any(hasattr(cls, "per_sample_gradients")
                   for cls in (QuadraticTask, LogisticTask, TinyMlpTask))


@pytest.mark.parametrize(
    "task", [quadratic_case(), logistic_case()], ids=["quadratic", "logistic"]
)
def test_default_start_is_a_tenth_of_a_standard_normal(task):
    # the start a quadratic or logistic run has always taken; the MLP
    # overrides it with its Glorot draw
    got = task.random_parameters(np.random.default_rng(5))
    assert np.array_equal(got, 0.1 * np.random.default_rng(5).standard_normal(task.dimension))


@pytest.mark.parametrize(
    "task", [quadratic_case(), logistic_case(), mlp_case()], ids=["quadratic", "logistic", "mlp"]
)
def test_gradient_matches_finite_differences(task):
    rng = np.random.default_rng(0)
    for probe in range(3):
        w = 0.5 * rng.standard_normal(task.dimension)
        batch = task.draw_batch(rng, 1)
        analytic = per_sample_gradients(task, w, batch)[0]
        numeric = fd_gradient(task, w, batch)
        scale = max(np.linalg.norm(analytic), 1.0)
        assert np.linalg.norm(analytic - numeric) / scale <= 1e-4


@pytest.mark.parametrize(
    "task", [quadratic_case(), logistic_case(), mlp_case()], ids=["quad", "logi", "mlp"]
)
def test_hvp_linear_and_symmetric(task):
    # the forms polarize to u^T H v, which must be linear in v and symmetric
    rng = np.random.default_rng(1)
    w = 0.3 * rng.standard_normal(task.dimension)
    batch = task.draw_batch(rng, 8)
    u, v, z = rng.standard_normal((3, task.dimension))
    a_coef, b_coef = 1.7, -0.4
    combo = bilinear(task, w, batch, z, a_coef * u + b_coef * v)
    parts = a_coef * bilinear(task, w, batch, z, u) + b_coef * bilinear(task, w, batch, z, v)
    scale = max(abs(form(task, w, batch, r)) for r in (u, v, z))
    assert abs(combo - parts) <= 1e-10 * max(scale, 1.0)
    lhs = bilinear(task, w, batch, u, v)
    rhs = bilinear(task, w, batch, v, u)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize(
    "task", [quadratic_case(), logistic_case(), mlp_case()], ids=["quad", "logi", "mlp"]
)
def test_hessian_trace_is_the_sum_of_the_forms_on_the_identity(task):
    rng = np.random.default_rng(5)
    for m in (1, 2, 17):
        w = 0.5 * rng.standard_normal(task.dimension)
        batch = task.draw_batch(rng, m)
        trace = task.gradient_hessian_forms(w, batch)[3]
        assert isinstance(trace, float)
        assert trace == pytest.approx(trace_from_forms(task, w, batch), rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        task.gradient_hessian_forms(w[1:], batch)


def test_mlp_hessian_forms_match_gradient_finite_difference():
    task = mlp_case()
    rng = np.random.default_rng(5)
    w = task.random_parameters(rng)
    batch = task.draw_batch(rng, 16)
    vs = rng.standard_normal((5, task.dimension))

    def batch_gradient(p):
        return per_sample_gradients(task, p, batch).mean(axis=0)

    # reference: v^T times the central difference of the batch gradient along v
    h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(w))
    for v, got in zip(vs, hessian_forms(task, w, batch, vs)):
        v_norm = np.linalg.norm(v)
        step = (h / v_norm) * v
        hv = (batch_gradient(w + step) - batch_gradient(w - step)) * (v_norm / (2 * h))
        assert abs(got - v @ hv) <= 1e-6 * v_norm * np.linalg.norm(hv)


def test_mlp_hvp_matches_directional_second_difference():
    task = mlp_case()
    rng = np.random.default_rng(2)
    w = task.random_parameters(rng)
    batch = task.draw_batch(rng, 16)
    for _ in range(3):
        v = rng.standard_normal(task.dimension)
        quad = form(task, w, batch, v)
        # independent oracle: second central difference of the batch loss
        h = np.finfo(float).eps ** 0.25 * (1 + np.linalg.norm(w)) / np.linalg.norm(v)
        second = (
            task.batch_loss(w + h * v, batch)
            - 2 * task.batch_loss(w, batch)
            + task.batch_loss(w - h * v, batch)
        ) / h**2
        assert abs(quad - second) <= 1e-3 * max(abs(second), 1e-8)


def test_mlp_hvp_homogeneous():
    # the forms are homogeneous of degree 2
    task = mlp_case()
    rng = np.random.default_rng(3)
    w = task.random_parameters(rng)
    batch = task.draw_batch(rng, 8)
    v = rng.standard_normal(task.dimension)
    assert form(task, w, batch, 2.5 * v) == pytest.approx(6.25 * form(task, w, batch, v), rel=1e-6)
    assert form(task, w, batch, np.zeros(task.dimension)) == 0.0


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=12),
    scale=st.floats(min_value=0.1, max_value=3.0),
    rule=st.sampled_from([None, ClippingRule("auto"), ClippingRule(r=0.7)]),
)
@settings(max_examples=60, deadline=None)
def test_mlp_fused_pass_matches_explicit_per_sample_gradients(seed, m, scale, rule):
    task = mlp_case()
    rng = np.random.default_rng(seed)
    w = scale * task.random_parameters(rng)
    x, y = task.draw_batch(rng, m)
    # row 0's target is the model's own prediction, so its gradient is exactly 0
    y[0] = task.forward(w, x)[0]
    batch = (x, y)
    grads = per_sample_gradients(task, w, batch)
    norms = np.linalg.norm(grads, axis=1)
    assert norms[0] == 0.0
    seen = []

    def weight_of_norms(g_norms):
        seen.append(g_norms)
        return clip_factors(g_norms, rule)

    loss, total = task.loss_and_weighted_gradient_sum(
        w, batch, None if rule is None else weight_of_norms
    )
    assert loss == task.batch_loss(w, batch)
    factors = np.ones(m) if rule is None else clip_factors(norms, rule)
    if rule is not None:
        (ghost_norms,) = seen
        assert np.allclose(ghost_norms, norms, rtol=1e-12, atol=0.0)
    # the scale of the sum's terms, so cancellation between rows does not matter
    assert np.linalg.norm(total - factors @ grads) <= 1e-12 * (factors @ norms)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=2, max_value=64),
    scale=st.floats(min_value=0.1, max_value=3.0),
    widths=st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=3),
    ),
)
@settings(max_examples=60, deadline=None)
def test_mlp_ghost_curvature_matches_stacked_gradients(seed, m, scale, widths):
    n_in, hidden, n_out = widths
    shape = dict(n_in=n_in, hidden=hidden, n_out=n_out, teacher_seed=seed % 997, noise_std=0.1)
    task = TinyMlpTask(**shape)
    rng = np.random.default_rng(seed)
    w = scale * task.random_parameters(rng)
    # the parameters are (W1, b1), then (W2, b2)
    assert w.size == task.dimension == hidden * (n_in + 1) + n_out * (hidden + 1)
    x, y = task.draw_batch(rng, m)
    # row 0's target is the model's own prediction, so its gradient is exactly 0
    y[0] = task.forward(w, x)[0]
    batch = (x, y)
    grads = per_sample_gradients(task, w, batch)
    assert not grads[0].any()

    g_hat, forms, g_h_g, trace = task.gradient_hessian_forms(w, batch)
    ref_g, ref_forms, ref_g_h_g, ref_trace = stacked_gradient_hessian_forms(task, w, batch)
    assert forms.shape == (m,)
    # the scale of the forms, so cancellation inside one form does not matter
    tol = 1e-10 * np.abs(ref_forms).sum()
    assert np.abs(forms - ref_forms).max() <= tol
    assert abs(g_h_g - ref_g_h_g) <= tol
    assert np.linalg.norm(g_hat - ref_g) <= 1e-12 * np.linalg.norm(grads, axis=1).sum()
    assert trace == pytest.approx(ref_trace, rel=1e-12, abs=0.0)

    snap = stats_snapshot(task, w, batch)
    stacked = SimpleNamespace(
        gradient_hessian_forms=lambda w, batch: stacked_gradient_hessian_forms(task, w, batch),
    )
    ref = stats_snapshot(stacked, w, batch)
    for field in fields(ref):
        assert getattr(snap, field.name) == pytest.approx(
            getattr(ref, field.name), rel=1e-12, abs=0.0
        ), field.name


def logistic_batch_with_zero_row(seed, m, scale):
    """A logistic task, parameters, and a batch whose sample 0 has zero features."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 5))
    x[0] = 0.0  # so sample 0's gradient is exactly 0
    task = LogisticTask(x, (rng.random(40) < 0.5).astype(int))
    batch = rng.integers(40, size=m)
    batch[0] = 0
    return task, scale * rng.standard_normal(5), batch


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=12),
    scale=st.floats(min_value=0.1, max_value=3.0),
    rule=st.sampled_from([None, ClippingRule("auto"), ClippingRule(r=0.7)]),
)
@settings(max_examples=60, deadline=None)
def test_logistic_fused_pass_matches_explicit_per_sample_gradients(seed, m, scale, rule):
    task, w, batch = logistic_batch_with_zero_row(seed, m, scale)
    grads = per_sample_gradients(task, w, batch)
    norms = np.linalg.norm(grads, axis=1)
    assert norms[0] == 0.0
    seen = []

    def weight_of_norms(g_norms):
        seen.append(g_norms)
        return clip_factors(g_norms, rule)

    loss, total = task.loss_and_weighted_gradient_sum(
        w, batch, None if rule is None else weight_of_norms
    )
    assert loss == task.batch_loss(w, batch)
    factors = np.ones(m) if rule is None else clip_factors(norms, rule)
    if rule is not None:
        (ghost_norms,) = seen
        assert np.allclose(ghost_norms, norms, rtol=1e-12, atol=0.0)
    assert np.linalg.norm(total - factors @ grads) <= 1e-12 * (factors @ norms)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=2, max_value=64),
    scale=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_logistic_ghost_curvature_matches_stacked_gradients(seed, m, scale):
    task, w, batch = logistic_batch_with_zero_row(seed, m, scale)
    grads = per_sample_gradients(task, w, batch)
    g_hat, forms, g_h_g, _ = task.gradient_hessian_forms(w, batch)
    ref_g, ref_forms, ref_g_h_g, _ = stacked_gradient_hessian_forms(task, w, batch)
    assert forms.shape == (m,)
    tol = 1e-10 * np.abs(ref_forms).sum()
    assert np.abs(forms - ref_forms).max() <= tol
    assert abs(g_h_g - ref_g_h_g) <= tol
    assert np.linalg.norm(g_hat - ref_g) <= 1e-12 * np.linalg.norm(grads, axis=1).sum()
    # sample 0's centered gradient is -g_hat
    assert forms[0] == pytest.approx(g_h_g, rel=1e-12, abs=0.0)


# quadratic task blocks of configs whose bytes the dense formulas fix: scales
# times I, a hessian_diag, and a sorted covariance_diag
DENSE_CASES = {
    "oracle_small": {"dimension": 8, "hessian_scale": 0.5, "covariance_scale": 0.001},
    "oracle_quad": {"dimension": 64, "covariance_scale": 0.001},
    "defaults": {"dimension": 4},
    "scales": {"dimension": 17, "hessian_scale": 7.3, "covariance_scale": 3.0,
               "x_mean": [0.1 * (i - 8) for i in range(17)]},
    "hessian_diag": {"dimension": 5, "hessian_diag": [0.1, 0.3, 1.0, 2.5, 9.0],
                     "covariance_scale": 0.2, "x_mean": [1.0, -2.0, 0.5, 0.0, 3.0]},
    "covariance_diag": {"dimension": 6, "hessian_scale": 2.0,
                        "covariance_diag": [0.01, 0.02, 0.05, 0.1, 0.5, 1.0]},
    # long enough that a pairwise sum and a dot product round differently
    "both_diags": {"dimension": 40, "hessian_diag": np.geomspace(0.05, 20.0, 40).tolist(),
                   "covariance_diag": np.geomspace(0.001, 0.3, 40).tolist()},
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_quadratic_matches_the_dense_formulas_bit_for_bit(case):
    task = task_from_config({"kind": "quadratic", **DENSE_CASES[case]}, None)
    dense = DenseQuadratic(task)
    d = task.dimension
    batch = task.draw_batch(np.random.default_rng(1), 33)
    assert np.array_equal(batch, dense.draw_batch(np.random.default_rng(1), 33))
    rng = np.random.default_rng(2)
    w = task.x_mean + 0.5 * rng.standard_normal(d)
    drawn = [source.draw_gradients(np.random.default_rng(1), w, np.empty((33, d)))
             for source in (task, dense)]
    assert np.array_equal(*drawn)
    assert task.batch_loss(w, batch) == dense.batch_loss(w, batch)
    for rule in (None, ClippingRule("auto"), ClippingRule(r=0.7)):
        loss, total = task.loss_and_weighted_gradient_sum(w, batch, clip_weights(rule))
        assert loss == dense.batch_loss(w, batch)
        assert np.array_equal(total, dense.weighted_gradient_sum(w, batch, clip_weights(rule)))
    # g_hat, the dense forms on the stacked centered rows and g_hat, and tr(A)
    got = task.gradient_hessian_forms(w, batch)
    for part, want in zip(got, stacked_gradient_hessian_forms(task, w, batch)):
        assert np.array_equal(part, want)
    assert got[3] == float(np.trace(dense.a))
    assert np.array_equal(task.population_gradient(w), dense.population_gradient(w))
    assert np.array_equal(np.diag(task.gradient_covariance()), dense.sigma)
    ws = w + rng.standard_normal((7, d))
    assert np.array_equal(task.population_losses(ws), dense.population_losses(ws))
    assert population_stats(task, w) == dense.population_stats(w)


@pytest.mark.parametrize("case", ["oracle_small", "hessian_diag"])
def test_oracle_on_the_quadratic_matches_the_dense_formulas_bit_for_bit(case):
    task = task_from_config({"kind": "quadratic", **DENSE_CASES[case]}, None)
    w = task.x_mean + 0.3
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    etas, sigmas = [0.05, 0.2], [0.0, 0.2]
    got = empirical_improvement_oracle(task, w, etas, 16, ClippingRule(r=1.0), sigmas, 300, rng)
    want = stacked_improvement_oracle(
        DenseQuadratic(task), w, etas, 16, ClippingRule(r=1.0), sigmas, 300, ref_rng
    )
    assert [[(c.estimate, c.standard_error) for c in row] for row in got] == want
    assert generator_end_state(rng) == generator_end_state(ref_rng)


class TestDrawGradients:
    """``QuadraticTask.draw_gradients`` gives the gradients of the samples
    that ``draw_batch`` draws from the same generator state."""

    M = 300

    def draws(self, task, w, seed=1):
        """(draw_gradients' rows, the gradients of draw_batch's samples, and
        each call's generator end state)."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = task.draw_gradients(rng, w, np.empty((self.M, task.dimension)))
        batch = task.draw_batch(ref_rng, self.M)
        want = per_sample_gradients(task, w, batch)
        return got, want, batch, generator_end_state(rng), generator_end_state(ref_rng)

    def test_matches_the_gradients_of_drawn_samples_to_a_few_ulps(self):
        task = quadratic_case(d=16)
        w = task.x_mean + 0.5 * np.random.default_rng(2).standard_normal(16)
        got, want, batch, *_ = self.draws(task, w)
        # the two forms round ten times between them, each by at most half an
        # ulp of a term no larger than A (|w| + |x_mean| + |x|), which can far
        # exceed the gradient they differ by; 1.37 ulps of it were seen
        scale = task.a * (np.abs(w) + np.abs(task.x_mean) + np.abs(batch))
        assert not np.array_equal(got, want)  # on this A and mean the last bits move
        assert np.all(np.abs(got - want) <= 5 * np.finfo(float).eps * scale)

    def test_leaves_the_generator_where_draw_batch_does(self):
        task = quadratic_case(d=16)
        *_, end, ref_end = self.draws(task, task.x_mean + 0.3)
        assert end == ref_end

    @pytest.mark.parametrize("k", [-1, 0, 3])
    def test_is_bit_for_bit_when_a_is_a_power_of_two_and_the_mean_zero(self, k):
        d = 16
        s = np.geomspace(0.001, 2.5, d)[np.random.default_rng(3).permutation(d)]
        task = QuadraticTask(np.full(d, 2.0**k), np.zeros(d), s)
        got, want, *_ = self.draws(task, 0.3 * np.random.default_rng(4).standard_normal(d))
        assert np.array_equal(got, want)

    def test_writes_into_out_and_returns_it(self):
        task = quadratic_case(d=4)
        buffer = np.full((10, 4), np.nan)
        out = buffer[:6]
        assert task.draw_gradients(np.random.default_rng(5), task.x_mean, out) is out
        assert np.all(np.isfinite(buffer[:6])) and np.all(np.isnan(buffer[6:]))


class TestPopulationStats:
    def test_identity_case(self):
        task = QuadraticTask(np.ones(3), np.zeros(3), np.ones(3))
        stats = population_stats(task, np.array([1.0, 0.0, 0.0]))
        assert isinstance(stats, HessianStats)
        assert stats.standard_error_tr_h == 0.0
        assert stats.g_norm_sq == 1.0
        assert stats.g_h_g == 1.0
        assert stats.tr_h == 3.0
        assert stats.tr_h_sigma == 3.0

    def test_zero_covariance(self):
        task = QuadraticTask(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
        stats = population_stats(task, np.array([0.5, 0.5]))
        assert stats.tr_h_sigma == 0.0
        assert np.array_equal(task.gradient_covariance(), np.zeros(2))

    def test_diag_123_dense_oracle(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = np.eye(3)
        task = QuadraticTask(np.diag(a), np.zeros(3), np.diag(s))
        stats = population_stats(task, np.ones(3))
        # dense matrix-product oracle for tr(A A S A^T)
        oracle = float(np.trace(a @ a @ s @ a.T))
        assert oracle == 36.0
        assert stats.tr_h_sigma == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        task = quadratic_case()
        with pytest.raises(ValueError):
            population_stats(task, np.zeros(task.dimension + 1))


class TestEmpiricalMoments:
    def test_zero_covariance_exact(self):
        task = QuadraticTask(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2))
        g_hat, sigma_hat = empirical_moments(task, np.ones(2), 50, np.random.default_rng(0))
        assert np.array_equal(sigma_hat, np.zeros((2, 2)))
        assert np.allclose(g_hat, task.population_gradient(np.ones(2)))

    def test_mean_converges(self):
        task = quadratic_case()
        rng = np.random.default_rng(5)
        w = np.ones(task.dimension)
        g_hat, _ = empirical_moments(task, w, 100_000, rng)
        g = task.population_gradient(w)
        assert np.linalg.norm(g_hat - g) / np.linalg.norm(g) <= 0.05

    def test_m_below_two_rejected(self):
        task = quadratic_case()
        with pytest.raises(ValueError):
            empirical_moments(task, np.ones(task.dimension), 1, np.random.default_rng(0))

    def test_moments_within_monte_carlo_error(self):
        task = quadratic_case()
        rng = np.random.default_rng(6)
        w = np.ones(task.dimension)
        m = 10_000
        batch = task.draw_batch(rng, m)
        grads = per_sample_gradients(task, w, batch)
        g_hat = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(m)
        g = task.population_gradient(w)
        assert np.all(np.abs(g_hat - g) <= 3.0 * se)
        _, sigma_hat = empirical_moments(task, w, m, np.random.default_rng(7))
        sigma = np.diag(task.gradient_covariance())
        rel = np.linalg.norm(sigma_hat - sigma) / np.linalg.norm(sigma)
        assert rel <= 0.1


class TestTaskConstruction:
    def test_indefinite_hessian_rejected(self):
        with pytest.raises(ValueError):
            QuadraticTask(np.array([1.0, -1.0]), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("slot", ["a", "s"])
    def test_diagonal_entries_must_be_finite_and_nonnegative(self, slot, bad):
        diagonals = {"a": np.ones(2), "s": np.ones(2)}
        diagonals[slot][1] = bad
        with pytest.raises(ValueError, match="finite nonnegative"):
            QuadraticTask(diagonals["a"], np.zeros(2), diagonals["s"])

    def test_matrix_rejected(self):
        # A and S are given as their diagonals
        with pytest.raises(ValueError, match="diagonal"):
            QuadraticTask(np.eye(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="diagonal"):
            QuadraticTask(np.ones(2), np.zeros(2), np.eye(2))

    def test_logistic_labels_validated(self):
        with pytest.raises(ValueError):
            LogisticTask(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_logistic_predictions_in_unit_interval(self):
        task = logistic_case()
        rng = np.random.default_rng(8)
        w = 3.0 * rng.standard_normal(task.dimension)
        # the link the logistic gradients and HVPs use
        p = _sigmoid(task.features @ w)
        assert np.all(p > 0) and np.all(p < 1)

    def test_logistic_hessian_psd(self):
        task = logistic_case()
        rng = np.random.default_rng(9)
        w = rng.standard_normal(task.dimension)
        batch = task.draw_batch(rng, 12)
        for _ in range(5):
            v = rng.standard_normal(task.dimension)
            assert form(task, w, batch, v) >= -1e-12

    def test_population_loss_matches_mc(self):
        task = quadratic_case()
        rng = np.random.default_rng(10)
        w = rng.standard_normal(task.dimension)
        batch = task.draw_batch(rng, 200_000)
        mc = np.mean([0.5 * ((w - x) * task.a) @ (w - x) for x in batch[:5000]])
        exact = task.population_loss(w)
        assert mc == pytest.approx(exact, rel=0.1)
