import numpy as np
import pytest

from dplens.hessian import (
    HessianStats,
    hutchinson_trace,
    quadratic_form,
    stats_csv,
    stats_snapshot,
    trace_h_sigma,
)
from dplens.model import QuadraticTask, TinyMlpTask, population_stats


def diag_action(values):
    d = np.asarray(values, dtype=float)
    return lambda v: d * v


class TestHutchinson:
    def test_identity_within_three_se(self):
        est = hutchinson_trace(lambda v: v, 10, 10_000, np.random.default_rng(0))
        assert abs(est.estimate - 10.0) <= 3.0 * est.standard_error

    def test_diag_1_to_5(self):
        est = hutchinson_trace(diag_action([1, 2, 3, 4, 5]), 5, 10_000, np.random.default_rng(1))
        assert abs(est.estimate - 15.0) <= 3.0 * est.standard_error

    def test_zero_operator_exact(self):
        est = hutchinson_trace(lambda v: np.zeros_like(v), 7, 100, np.random.default_rng(2))
        assert est.estimate == 0.0
        assert est.standard_error == 0.0

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            hutchinson_trace(lambda v: v, 3, 1, np.random.default_rng(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hutchinson_trace(lambda v: v * np.inf, 3, 5, np.random.default_rng(0))

    def test_rademacher_probes(self):
        est = hutchinson_trace(
            diag_action([1, 2, 3]), 3, 2000, np.random.default_rng(3), probes="rademacher"
        )
        # Rademacher probes estimate a diagonal trace with zero variance
        assert est.estimate == pytest.approx(6.0)
        assert est.standard_error == pytest.approx(0.0, abs=1e-12)

    def test_unbiased_over_runs(self):
        action = diag_action([1, 2, 3, 4, 5])
        rng = np.random.default_rng(4)
        estimates, ses = [], []
        for _ in range(50):
            est = hutchinson_trace(action, 5, 200, rng)
            estimates.append(est.estimate)
            ses.append(est.standard_error)
        pooled_se = np.mean(ses) / np.sqrt(50)
        assert abs(np.mean(estimates) - 15.0) <= 3.0 * pooled_se

    def test_se_scales_inverse_sqrt_k(self):
        action = diag_action(np.arange(1.0, 9.0))
        rng = np.random.default_rng(5)
        normalized = []
        for k in (100, 1000, 10_000):
            est = hutchinson_trace(action, 8, k, rng)
            normalized.append(est.standard_error * np.sqrt(k))
        center = np.mean(normalized)
        assert np.all(np.abs(np.asarray(normalized) - center) <= 0.2 * center)

    def test_reproducible_under_seed(self):
        action = diag_action([2, 2, 2])
        a = hutchinson_trace(action, 3, 64, np.random.default_rng(11))
        b = hutchinson_trace(action, 3, 64, np.random.default_rng(11))
        assert a == b


class TestQuadraticForm:
    def test_hand_case(self):
        assert quadratic_form(np.array([1.0, 0.0]), diag_action([2, 3])) == 2.0

    def test_zero_gradient(self):
        assert quadratic_form(np.zeros(4), diag_action([1, 2, 3, 4])) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6))
        a = m @ m.T
        g = rng.standard_normal(6)
        dense = float(g @ a @ g)
        assert quadratic_form(g, lambda V: V @ a) == pytest.approx(dense, rel=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quadratic_form(np.ones(3), lambda v: np.ones(4))


class TestTraceHSigma:
    def test_identical_gradients_zero(self):
        grads = np.tile([1.0, 2.0], (6, 1))
        est = trace_h_sigma(grads, grads.mean(axis=0), diag_action([1, 1]))
        assert est.estimate == 0.0

    def test_zero_hessian_zero(self):
        rng = np.random.default_rng(7)
        grads = rng.standard_normal((10, 3))
        est = trace_h_sigma(grads, grads.mean(axis=0), lambda v: np.zeros_like(v))
        assert est.estimate == 0.0

    def test_quadratic_task_oracle(self):
        d = 4
        task = QuadraticTask(np.eye(d), np.zeros(d), np.eye(d))
        rng = np.random.default_rng(8)
        w = np.ones(d)
        batch = task.draw_batch(rng, 100_000)
        grads = task.per_sample_gradients(w, batch)
        est = trace_h_sigma(grads, grads.mean(axis=0), lambda V: V @ task.a)
        # exact tr(A A S A^T) = d for identity matrices
        assert abs(est.estimate - d) <= 3.0 * est.standard_error

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            trace_h_sigma(np.ones((1, 2)), np.ones(2), diag_action([1, 1]))


class TestSnapshot:
    def test_matches_population_stats(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((5, 5))
        a = m @ m.T / 5 + np.eye(5)
        task = QuadraticTask(a, np.zeros(5), 0.3 * np.eye(5))
        w = rng.standard_normal(5)
        exact = population_stats(task, w)
        snap = stats_snapshot(task, w, task.draw_batch(rng, 40_000), 4000, rng)
        assert abs(snap.tr_h - exact.tr_h) <= 3 * snap.standard_error_tr_h
        assert snap.tr_h_sigma == pytest.approx(exact.tr_h_sigma, rel=0.05)
        assert snap.g_norm_sq == pytest.approx(exact.g_norm_sq, rel=0.05)
        assert snap.g_h_g == pytest.approx(exact.g_h_g, rel=0.05)

    def test_flat_landscape_all_zero(self):
        task = QuadraticTask(np.zeros((3, 3)), np.zeros(3), np.eye(3))
        rng = np.random.default_rng(10)
        snap = stats_snapshot(task, np.ones(3), task.draw_batch(rng, 50), 16, rng)
        assert snap.tr_h == 0.0
        assert snap.tr_h_sigma == 0.0
        assert snap.g_h_g == 0.0
        assert snap.g_norm_sq == 0.0

    def test_snapshot_deterministic(self):
        task = QuadraticTask(np.eye(3), np.zeros(3), np.eye(3))
        batch = task.draw_batch(np.random.default_rng(0), 30)
        a = stats_snapshot(task, np.ones(3), batch, 50, np.random.default_rng(1))
        b = stats_snapshot(task, np.ones(3), batch, 50, np.random.default_rng(1))
        assert a == b

    def test_snapshot_one_gradient_pass_and_three_block_calls(self):
        calls = {"per_sample_gradients": 0, "hvp_block": 0}

        class CountingMlp(TinyMlpTask):
            def per_sample_gradients(self, w, batch):
                calls["per_sample_gradients"] += 1
                return super().per_sample_gradients(w, batch)

            def hvp_block(self, w, batch, vs):
                calls["hvp_block"] += 1
                return super().hvp_block(w, batch, vs)

        task = CountingMlp(n_in=3, hidden=8, n_out=2, teacher_seed=1)
        rng = np.random.default_rng(0)
        w = task.random_parameters(rng)
        snap = stats_snapshot(task, w, task.draw_batch(rng, 20), 16, rng)
        assert calls == {"per_sample_gradients": 1, "hvp_block": 3}
        assert np.isfinite(snap.tr_h) and np.isfinite(snap.tr_h_sigma)


class TestStatsTypesAndCsv:
    def test_validation(self):
        with pytest.raises(ValueError):
            HessianStats(1.0, 1.0, 1.0, 1.0, probe_count=0, standard_error_tr_h=0.0)
        with pytest.raises(ValueError):
            HessianStats(1.0, 1.0, 1.0, 1.0, probe_count=5, standard_error_tr_h=-1.0)

    def test_csv_layout(self):
        stats = HessianStats(2.0, 3.0, 4.0, 5.0, probe_count=10, standard_error_tr_h=0.1)
        text = stats_csv([(0, stats, 6.0)])
        lines = text.strip().split("\n")
        assert lines[0] == "iter,tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator"
        assert lines[1] == "0,2.0,3.0,4.0,5.0,6.0"
