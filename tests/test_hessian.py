import numpy as np
import pytest

from dplens.hessian import (
    HessianStats,
    hutchinson_trace,
    stats_snapshot,
    trace_h_sigma,
)
from dplens.model import QuadraticTask, TinyMlpTask, population_stats
from dplens.cli import _run_table, _write_csv
from dplens.trainer import IterationRecord, TrainRun


def diag_action(values):
    """Forms v_j^T D v_j of the rows of a block, for D = diag(values)."""
    d = np.asarray(values, dtype=float)
    return lambda vs: (vs * vs) @ d


def identity_action(vs):
    return np.einsum("ij,ij->i", vs, vs)


def zero_action(vs):
    return np.zeros(len(vs))


def centered_forms(grads, forms_action):
    return forms_action(grads - grads.mean(axis=0))


class TestHutchinson:
    def test_identity_within_three_se(self):
        est = hutchinson_trace(identity_action, 10, 10_000, np.random.default_rng(0))
        assert abs(est.estimate - 10.0) <= 3.0 * est.standard_error

    def test_diag_1_to_5(self):
        est = hutchinson_trace(diag_action([1, 2, 3, 4, 5]), 5, 10_000, np.random.default_rng(1))
        assert abs(est.estimate - 15.0) <= 3.0 * est.standard_error

    def test_zero_operator_exact(self):
        est = hutchinson_trace(zero_action, 7, 100, np.random.default_rng(2))
        assert est.estimate == 0.0
        assert est.standard_error == 0.0

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            hutchinson_trace(identity_action, 3, 1, np.random.default_rng(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            hutchinson_trace(lambda vs: identity_action(vs) * np.inf, 3, 5, np.random.default_rng(0))

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
    """The forms v^T H v that every estimator reads, on the quadratic task."""

    def test_hand_case(self):
        task = QuadraticTask(np.diag([2.0, 3.0]), np.zeros(2), np.eye(2))
        assert task.hessian_forms(np.zeros(2), None, np.array([[1.0, 0.0]])).tolist() == [2.0]

    def test_zero_gradient(self):
        task = QuadraticTask(np.diag([1.0, 2.0, 3.0, 4.0]), np.zeros(4), np.eye(4))
        assert task.hessian_forms(np.zeros(4), None, np.zeros((1, 4))).tolist() == [0.0]

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 6))
        a = m @ m.T
        task = QuadraticTask(a, np.zeros(6), np.eye(6))
        gs = rng.standard_normal((3, 6))
        dense = [float(g @ a @ g) for g in gs]
        assert task.hessian_forms(np.zeros(6), None, gs) == pytest.approx(dense, rel=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hutchinson_trace(lambda vs: np.ones(len(vs) + 1), 3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            trace_h_sigma(np.ones((3, 1)))


class TestTraceHSigma:
    def test_identical_gradients_zero(self):
        grads = np.tile([1.0, 2.0], (6, 1))
        assert trace_h_sigma(centered_forms(grads, diag_action([1, 1]))) == 0.0

    def test_zero_hessian_zero(self):
        rng = np.random.default_rng(7)
        grads = rng.standard_normal((10, 3))
        assert trace_h_sigma(centered_forms(grads, zero_action)) == 0.0

    def test_quadratic_task_oracle(self):
        d = 4
        task = QuadraticTask(np.eye(d), np.zeros(d), np.eye(d))
        rng = np.random.default_rng(8)
        w = np.ones(d)
        batch = task.draw_batch(rng, 100_000)
        _, centered, _ = task.gradient_hessian_forms(w, batch)
        m = len(centered)
        standard_error = m / (m - 1) * centered.std(ddof=1) / np.sqrt(m)
        # exact tr(A A S A^T) = d for identity matrices
        assert abs(trace_h_sigma(centered) - d) <= 3.0 * standard_error

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            trace_h_sigma(np.ones(1))


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

    def test_snapshot_one_forms_call_and_one_gradient_forms_call(self):
        calls = {"hessian_forms": 0, "gradient_hessian_forms": 0}

        class CountingMlp(TinyMlpTask):
            def hessian_forms(self, w, batch, vs):
                calls["hessian_forms"] += 1
                return super().hessian_forms(w, batch, vs)

            def gradient_hessian_forms(self, w, batch):
                calls["gradient_hessian_forms"] += 1
                return super().gradient_hessian_forms(w, batch)

        task = CountingMlp(n_in=3, hidden=8, n_out=2, teacher_seed=1)
        rng = np.random.default_rng(0)
        w = task.random_parameters(rng)
        snap = stats_snapshot(task, w, task.draw_batch(rng, 20), 16, rng)
        assert calls == {"hessian_forms": 1, "gradient_hessian_forms": 1}
        # the MLP has no way to build the per-sample gradient matrix
        assert not hasattr(TinyMlpTask, "per_sample_gradients")
        assert np.isfinite(snap.tr_h) and np.isfinite(snap.tr_h_sigma)


class TestStatsTypesAndCsv:
    def test_validation(self):
        with pytest.raises(ValueError):
            HessianStats(1.0, 1.0, 1.0, 1.0, standard_error_tr_h=-1.0)

    def test_csv_layout(self, tmp_path):
        stats = HessianStats(2.0, 3.0, 4.0, 5.0, standard_error_tr_h=0.1)
        record = IterationRecord(
            iteration=0, phase="private", alpha=0.0, train_loss=1.5, val_loss=None,
            sigma=0.5, hessian=stats,
        )
        # batch size 4: decelerator sigma^2 tr_H / B = 0.25 * 2.0 / 4
        path = _write_csv(tmp_path / "run.csv", _run_table(TrainRun(records=[record]), 4))
        header, row = (line.split(",") for line in path.read_text().strip().split("\n"))
        assert ",".join(header[:1] + header[6:]) == "iter,tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator"
        assert ",".join(row[:1] + row[6:]) == "0,2.0,3.0,4.0,5.0,0.125"
        assert ",".join(row[1:6]) == "private,0.0,1.5,,0.5"
