import inspect
import math
import warnings

import numpy as np
import pytest

from dplens.hessian import (
    HessianStats,
    stats_snapshot,
    trace_h_sigma,
)
from dplens.model import LogisticTask, QuadraticTask, TinyMlpTask, population_stats
from dplens.cli import _run_table, _write_csv, table_columns
from dplens.trainer import IterationRecord, TrainRun
from reference import per_sample_gradients, stacked_gradient_hessian_forms


def diag_action(values):
    """Forms v_j^T D v_j of the rows of a block, for D = diag(values)."""
    d = np.asarray(values, dtype=float)
    return lambda vs: (vs * vs) @ d


def zero_action(vs):
    return np.zeros(len(vs))


def centered_forms(grads, forms_action):
    return forms_action(grads - grads.mean(axis=0))


def diag_quadratic(values):
    d = len(values)
    return QuadraticTask(np.asarray(values, dtype=float), np.zeros(d), np.ones(d))


def trace_of(task, w, batch):
    """The exact tr(H), the fourth output of the task's curvature pass."""
    return task.gradient_hessian_forms(w, batch)[3]


def three_tasks():
    """A quadratic, a logistic and an MLP task, each with parameters and a batch."""
    rng = np.random.default_rng(12)
    quad = diag_quadratic([0.5, 1.0, 2.0])
    logistic = LogisticTask(rng.standard_normal((30, 4)), (rng.random(30) < 0.5).astype(int))
    mlp = TinyMlpTask(n_in=3, hidden=8, n_out=2, teacher_seed=1, noise_std=0.1)
    return [
        (task, 0.5 * rng.standard_normal(task.dimension), task.draw_batch(rng, 16))
        for task in (quad, logistic, mlp)
    ]


class TestHutchinson:
    """The exact tr(H) that took the place of the Hutchinson probe estimate.

    Each test keeps the name of the probe test it replaces and checks the
    exact counterpart of that claim: no probes, no standard error, no draws.
    """

    def test_identity_within_three_se(self):
        task = QuadraticTask(np.ones(10), np.zeros(10), np.ones(10))
        snap = stats_snapshot(task, np.ones(10), task.draw_batch(np.random.default_rng(0), 5))
        assert snap.tr_h == 10.0
        assert snap.standard_error_tr_h == 0.0

    def test_diag_1_to_5(self):
        assert trace_of(diag_quadratic([1, 2, 3, 4, 5]), np.zeros(5), np.ones((2, 5))) == 15.0

    def test_zero_operator_exact(self):
        assert trace_of(diag_quadratic([0, 0, 0]), np.ones(3), np.zeros((2, 3))) == 0.0
        # zero features give a zero logistic Hessian at any parameters
        task = LogisticTask(np.zeros((4, 3)), [0, 1, 0, 1])
        assert trace_of(task, np.ones(3), np.arange(4)) == 0.0

    def test_k_below_two_rejected(self):
        # there is no probe count; tr(H Sigma) still needs two samples
        task = diag_quadratic([1, 2, 3])
        with pytest.raises(ValueError, match="at least 2 samples"):
            stats_snapshot(task, np.ones(3), task.draw_batch(np.random.default_rng(0), 1))

    def test_nonfinite_rejected(self):
        class InfiniteTrace(QuadraticTask):
            def gradient_hessian_forms(self, w, batch):
                return (*super().gradient_hessian_forms(w, batch)[:3], math.inf)

        task = InfiniteTrace(np.ones(3), np.zeros(3), np.ones(3))
        batch = task.draw_batch(np.random.default_rng(0), 4)
        with pytest.raises(FloatingPointError):
            stats_snapshot(task, np.ones(3), batch)
        # a diverged MLP iterate overflows the trace itself, with no warning
        mlp = TinyMlpTask(n_in=3, hidden=8, n_out=2, teacher_seed=1)
        w = 1e200 * mlp.random_parameters(np.random.default_rng(1))
        mlp_batch = mlp.draw_batch(np.random.default_rng(2), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                assert not math.isfinite(trace_of(mlp, w, mlp_batch))
            with pytest.raises(FloatingPointError):
                stats_snapshot(mlp, w, mlp_batch)

    def test_unbiased_over_runs(self):
        # the batch trace is exact for its batch, and its mean over batches
        # drawn with replacement is the trace over the whole data set
        rng = np.random.default_rng(4)
        task = LogisticTask(rng.standard_normal((200, 5)), (rng.random(200) < 0.5).astype(int))
        w = rng.standard_normal(5)
        full = trace_of(task, w, np.arange(200))
        traces = [trace_of(task, w, task.draw_batch(rng, 20)) for _ in range(400)]
        assert abs(np.mean(traces) - full) <= 3.0 * np.std(traces, ddof=1) / np.sqrt(400)

    def test_se_scales_inverse_sqrt_k(self):
        # an exact trace has a zero standard error on every task
        for task, w, batch in three_tasks():
            snap = stats_snapshot(task, w, batch)
            assert snap.standard_error_tr_h == 0.0
            assert snap.tr_h == trace_of(task, w, batch)

    def test_reproducible_under_seed(self):
        # a snapshot takes no generator and draws from no global one either
        assert list(inspect.signature(stats_snapshot).parameters) == ["task", "w", "batch"]
        for task, w, batch in three_tasks():
            before = np.random.get_state()[1].copy()
            assert stats_snapshot(task, w, batch) == stats_snapshot(task, w, batch)
            assert np.array_equal(np.random.get_state()[1], before)


def quadratic_forms(task, w, batch):
    """The quadratic's centered forms and gHg, checked bit for bit against the
    dense forms ``v^T A v`` on the stacked centered rows and g_hat."""
    _, centered, g_h_g, _ = task.gradient_hessian_forms(w, batch)
    _, want, want_g_h_g, _ = stacked_gradient_hessian_forms(task, w, batch)
    assert np.array_equal(centered, want) and g_h_g == want_g_h_g
    return centered.tolist(), g_h_g


class TestQuadraticForm:
    """The forms v^T H v that every estimator reads, on the quadratic task."""

    def test_hand_case(self):
        # gradients (1, 0) and (3, 0): centered (-1, 0) and (1, 0), g_hat (2, 0)
        task = QuadraticTask(np.array([2.0, 3.0]), np.zeros(2), np.ones(2))
        batch = np.array([[-0.5, 0.0], [-1.5, 0.0]])
        assert quadratic_forms(task, np.zeros(2), batch) == ([2.0, 2.0], 8.0)

    def test_zero_gradient(self):
        # every sample at w: zero gradients, so zero forms
        task = QuadraticTask(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4), np.ones(4))
        assert quadratic_forms(task, np.zeros(4), np.zeros((3, 4))) == ([0.0] * 3, 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        a = np.geomspace(0.1, 5.0, 6)[rng.permutation(6)]
        task = QuadraticTask(a, rng.standard_normal(6), np.ones(6))
        w = rng.standard_normal(6)
        batch = task.draw_batch(rng, 3)
        gs = per_sample_gradients(task, w, batch)
        dense = [float(g @ np.diag(a) @ g) for g in gs - gs.mean(axis=0)]
        assert quadratic_forms(task, w, batch)[0] == pytest.approx(dense, rel=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diag_quadratic([1, 2, 3]).gradient_hessian_forms(np.ones(4), np.zeros((2, 3)))
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
        task = QuadraticTask(np.ones(d), np.zeros(d), np.ones(d))
        rng = np.random.default_rng(8)
        w = np.ones(d)
        batch = task.draw_batch(rng, 100_000)
        _, centered, _, _ = task.gradient_hessian_forms(w, batch)
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
        a = np.geomspace(0.5, 8.0, 5)[rng.permutation(5)]
        s = 0.3 * np.geomspace(0.2, 2.0, 5)[rng.permutation(5)]
        task = QuadraticTask(a, rng.standard_normal(5), s)
        w = rng.standard_normal(5)
        exact = population_stats(task, w)
        snap = stats_snapshot(task, w, task.draw_batch(rng, 40_000))
        assert snap.tr_h == exact.tr_h
        assert snap.standard_error_tr_h == exact.standard_error_tr_h == 0.0
        assert snap.tr_h_sigma == pytest.approx(exact.tr_h_sigma, rel=0.05)
        assert snap.g_norm_sq == pytest.approx(exact.g_norm_sq, rel=0.05)
        assert snap.g_h_g == pytest.approx(exact.g_h_g, rel=0.05)

    def test_flat_landscape_all_zero(self):
        task = QuadraticTask(np.zeros(3), np.zeros(3), np.ones(3))
        rng = np.random.default_rng(10)
        snap = stats_snapshot(task, np.ones(3), task.draw_batch(rng, 50))
        assert snap.tr_h == 0.0
        assert snap.tr_h_sigma == 0.0
        assert snap.g_h_g == 0.0
        assert snap.g_norm_sq == 0.0

    def test_snapshot_deterministic(self):
        task = QuadraticTask(np.ones(3), np.zeros(3), np.ones(3))
        batch = task.draw_batch(np.random.default_rng(0), 30)
        a = stats_snapshot(task, np.ones(3), batch)
        b = stats_snapshot(task, np.ones(3), batch)
        assert a == b

    def test_snapshot_makes_one_task_call_and_one_pass(self):
        calls = {}

        def count(name):
            calls[name] = calls.get(name, 0) + 1

        class Counting:
            def gradient_hessian_forms(self, w, batch):
                count("gradient_hessian_forms")
                return super().gradient_hessian_forms(w, batch)

        class CountingMlp(Counting, TinyMlpTask):
            def _forward_backward(self, w, batch):
                count("pass")
                return super()._forward_backward(w, batch)

        class CountingLogistic(Counting, LogisticTask):
            def _logits(self, w, batch):
                count("pass")
                return super()._logits(w, batch)

        rng = np.random.default_rng(0)
        mlp = CountingMlp(n_in=3, hidden=8, n_out=2, teacher_seed=1)
        labels = (rng.random(30) < 0.5).astype(int)
        logistic = CountingLogistic(rng.standard_normal((30, 4)), labels)
        for task, w in ((mlp, mlp.random_parameters(rng)), (logistic, rng.standard_normal(4))):
            batch = task.draw_batch(rng, 20)
            calls.clear()
            snap = stats_snapshot(task, w, batch)
            assert calls == {"gradient_hessian_forms": 1, "pass": 1}, type(task).__name__
            assert np.isfinite(snap.tr_h) and np.isfinite(snap.tr_h_sigma)
        # the MLP has no way to build the per-sample gradient matrix
        assert not hasattr(TinyMlpTask, "per_sample_gradients")


class TestStatsTypesAndCsv:
    def test_validation(self):
        with pytest.raises(ValueError):
            HessianStats(1.0, 1.0, 1.0, 1.0, standard_error_tr_h=-1.0)

    def test_csv_layout(self, tmp_path):
        stats = HessianStats(2.0, 3.0, 4.0, 5.0, standard_error_tr_h=0.1)
        record = IterationRecord(
            iteration=0, phase="private", train_loss=1.5, val_loss=None,
            sigma=0.5, hessian=stats,
        )
        # batch size 4: decelerator sigma^2 tr_H / B = 0.25 * 2.0 / 4
        columns = table_columns("continual", {"hessian_probes": 1})
        path = _write_csv(tmp_path / "run.csv", _run_table(TrainRun(records=[record]), 4, columns))
        header, row = (line.split(",") for line in path.read_text().strip().split("\n"))
        assert ",".join(header[:1] + header[6:]) == "iter,tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator"
        assert ",".join(row[:1] + row[6:]) == "0,2.0,3.0,4.0,5.0,0.125"
        assert ",".join(row[1:6]) == "private,0.0,1.5,,0.5"
