import numpy as np
import pytest

from dplens.model import (
    LogisticTask,
    QuadraticTask,
    TinyMlpTask,
    empirical_moments,
    population_stats,
)


def quadratic_case(d=4, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    a = m @ m.T / d + 0.5 * np.eye(d)
    s_m = rng.standard_normal((d, d))
    s = s_m @ s_m.T / d
    x_mean = rng.standard_normal(d)
    return QuadraticTask(a, x_mean, s)


def logistic_case(n=40, d=5, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(int)
    return LogisticTask(x, y)


def mlp_case(seed=11):
    return TinyMlpTask(n_in=3, hidden=8, n_out=2, teacher_seed=seed, noise_std=0.1)


def fd_gradient(task, w, sample, h=1e-6):
    g = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (task.loss(w + e, sample) - task.loss(w - e, sample)) / (2 * h)
    return g


@pytest.mark.parametrize(
    "task,w,sample_of",
    [
        (quadratic_case(), None, lambda t, r: t.sample_draw(r)),
        (logistic_case(), None, lambda t, r: t.sample_draw(r)),
        (mlp_case(), None, lambda t, r: t.sample_draw(r)),
    ],
    ids=["quadratic", "logistic", "mlp"],
)
def test_gradient_matches_finite_differences(task, w, sample_of):
    rng = np.random.default_rng(0)
    for probe in range(3):
        w = 0.5 * rng.standard_normal(task.dimension)
        sample = sample_of(task, rng)
        analytic = task.per_sample_gradient(w, sample)
        numeric = fd_gradient(task, w, sample)
        scale = max(np.linalg.norm(analytic), 1.0)
        assert np.linalg.norm(analytic - numeric) / scale <= 1e-4


@pytest.mark.parametrize(
    "task", [quadratic_case(), logistic_case(), mlp_case()], ids=["quad", "logi", "mlp"]
)
def test_hvp_linear_and_symmetric(task):
    rng = np.random.default_rng(1)
    w = 0.3 * rng.standard_normal(task.dimension)
    batch = task.draw_batch(rng, 8)
    u = rng.standard_normal(task.dimension)
    v = rng.standard_normal(task.dimension)
    a_coef, b_coef = 1.7, -0.4
    combo = task.hvp(w, batch, a_coef * u + b_coef * v)
    parts = a_coef * task.hvp(w, batch, u) + b_coef * task.hvp(w, batch, v)
    assert np.linalg.norm(combo - parts) <= 1e-8 * max(np.linalg.norm(parts), 1.0)
    lhs = u @ task.hvp(w, batch, v)
    rhs = v @ task.hvp(w, batch, u)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize(
    "task", [quadratic_case(), logistic_case(), mlp_case()], ids=["quad", "logi", "mlp"]
)
def test_hvp_block_rows_match_hvp_for_any_block_size(task):
    rng = np.random.default_rng(4)
    w = 0.3 * rng.standard_normal(task.dimension)
    batch = task.draw_batch(rng, 8)
    vs = rng.standard_normal((81, task.dimension))
    rows = np.array([task.hvp(w, batch, v) for v in vs])
    scale = max(np.abs(rows).max(), 1.0)
    for size in (1, 7, 81):
        block = np.concatenate(
            [task.hvp_block(w, batch, vs[i : i + size]) for i in range(0, len(vs), size)]
        )
        assert np.abs(block - rows).max() <= 1e-12 * scale, size
    with pytest.raises(ValueError):
        task.hvp_block(w, batch, vs[0])
    with pytest.raises(ValueError):
        task.hvp_block(w, batch, vs[:, 1:])


def test_mlp_hvp_block_matches_gradient_finite_difference():
    task = mlp_case()
    rng = np.random.default_rng(5)
    w = task.random_parameters(rng)
    batch = task.draw_batch(rng, 16)
    vs = rng.standard_normal((5, task.dimension))

    def batch_gradient(p):
        return task.per_sample_gradients(p, batch).mean(axis=0)

    # reference: central difference of the batch gradient along each row
    h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(w))
    for v, hv in zip(vs, task.hvp_block(w, batch, vs)):
        v_norm = np.linalg.norm(v)
        step = (h / v_norm) * v
        ref = (batch_gradient(w + step) - batch_gradient(w - step)) * (v_norm / (2 * h))
        assert np.linalg.norm(hv - ref) <= 1e-6 * np.linalg.norm(ref)


def test_mlp_hvp_matches_directional_second_difference():
    task = mlp_case()
    rng = np.random.default_rng(2)
    w = task.random_parameters(rng)
    batch = task.draw_batch(rng, 16)
    for _ in range(3):
        v = rng.standard_normal(task.dimension)
        quad = v @ task.hvp(w, batch, v)
        # independent oracle: second central difference of the batch loss
        h = np.finfo(float).eps ** 0.25 * (1 + np.linalg.norm(w)) / np.linalg.norm(v)
        second = (
            task.batch_loss(w + h * v, batch)
            - 2 * task.batch_loss(w, batch)
            + task.batch_loss(w - h * v, batch)
        ) / h**2
        assert abs(quad - second) <= 1e-3 * max(abs(second), 1e-8)


def test_mlp_hvp_homogeneous():
    task = mlp_case()
    rng = np.random.default_rng(3)
    w = task.random_parameters(rng)
    batch = task.draw_batch(rng, 8)
    v = rng.standard_normal(task.dimension)
    assert np.allclose(task.hvp(w, batch, 2.5 * v), 2.5 * task.hvp(w, batch, v), rtol=1e-6)
    assert np.array_equal(task.hvp(w, batch, np.zeros(task.dimension)), np.zeros(task.dimension))


class TestPopulationStats:
    def test_identity_case(self):
        task = QuadraticTask(np.eye(3), np.zeros(3), np.eye(3))
        stats = population_stats(task, np.array([1.0, 0.0, 0.0]))
        assert stats.g_norm_sq == 1.0
        assert stats.g_h_g == 1.0
        assert stats.tr_h == 3.0
        assert stats.tr_h_sigma == 3.0

    def test_zero_covariance(self):
        task = QuadraticTask(np.diag([1.0, 2.0]), np.zeros(2), np.zeros((2, 2)))
        stats = population_stats(task, np.array([0.5, 0.5]))
        assert stats.tr_h_sigma == 0.0
        assert np.array_equal(task.gradient_covariance(), np.zeros((2, 2)))

    def test_diag_123_dense_oracle(self):
        a = np.diag([1.0, 2.0, 3.0])
        s = np.eye(3)
        task = QuadraticTask(a, np.zeros(3), s)
        stats = population_stats(task, np.ones(3))
        # dense matrix-product oracle for tr(A A S A^T)
        oracle = float(np.trace(a @ a @ s @ a.T))
        assert oracle == 36.0
        assert stats.tr_h_sigma == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        task = quadratic_case()
        with pytest.raises(ValueError):
            population_stats(task, np.zeros(task.dimension + 1))

    def test_actions_match_matrices(self):
        task = quadratic_case()
        rng = np.random.default_rng(4)
        w = rng.standard_normal(task.dimension)
        stats = population_stats(task, w)
        v = rng.standard_normal(task.dimension)
        assert np.allclose(stats.h_action(v), task.a @ v)
        assert np.allclose(stats.sigma_action(v), task.gradient_covariance() @ v)


class TestEmpiricalMoments:
    def test_zero_covariance_exact(self):
        task = QuadraticTask(np.diag([1.0, 2.0]), np.zeros(2), np.zeros((2, 2)))
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
        grads = task.per_sample_gradients(w, batch)
        g_hat = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(m)
        g = task.population_gradient(w)
        assert np.all(np.abs(g_hat - g) <= 3.0 * se)
        _, sigma_hat = empirical_moments(task, w, m, np.random.default_rng(7))
        sigma = task.gradient_covariance()
        rel = np.linalg.norm(sigma_hat - sigma) / np.linalg.norm(sigma)
        assert rel <= 0.1


class TestTaskConstruction:
    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError):
            QuadraticTask(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), np.eye(2))

    def test_indefinite_hessian_rejected(self):
        with pytest.raises(ValueError):
            QuadraticTask(np.diag([1.0, -1.0]), np.zeros(2), np.eye(2))

    def test_logistic_labels_validated(self):
        with pytest.raises(ValueError):
            LogisticTask(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_logistic_predictions_in_unit_interval(self):
        task = logistic_case()
        rng = np.random.default_rng(8)
        w = 3.0 * rng.standard_normal(task.dimension)
        p = task.predict_proba(w, task.features)
        assert np.all(p > 0) and np.all(p < 1)

    def test_logistic_hessian_psd(self):
        task = logistic_case()
        rng = np.random.default_rng(9)
        w = rng.standard_normal(task.dimension)
        batch = task.draw_batch(rng, 12)
        for _ in range(5):
            v = rng.standard_normal(task.dimension)
            assert v @ task.hvp(w, batch, v) >= -1e-12

    def test_mlp_width_cap(self):
        with pytest.raises(ValueError):
            TinyMlpTask(n_in=2, hidden=65, n_out=1)

    def test_population_loss_matches_mc(self):
        task = quadratic_case()
        rng = np.random.default_rng(10)
        w = rng.standard_normal(task.dimension)
        batch = task.draw_batch(rng, 200_000)
        mc = np.mean([0.5 * (w - x) @ task.a @ (w - x) for x in batch[:5000]])
        exact = task.population_loss(w)
        assert mc == pytest.approx(exact, rel=0.1)
