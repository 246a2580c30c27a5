"""The in-place MLP passes, Adam step and noise step.

Each must give the bytes of its plain, allocating expression in
``tests/reference.py``, write into no array its caller holds, and, for the
1,024-row held-out set, hold at most two hidden-layer buffers at once.
"""

import tracemalloc

import numpy as np
import pytest

from dplens.clipping import ClippingRule, clip_weights, noised_mean
from dplens.hessian import stats_snapshot
from dplens.model import TinyMlpTask
from dplens.trainer import OptimizerConfig, OptimizerState, dp_step, optimizer_direction
from reference import (
    adam_direction,
    mlp_batch_loss,
    mlp_draw_batch,
    mlp_forward,
    mlp_gradient_hessian_forms,
    mlp_loss_and_weighted_gradient_sum,
    plain_noised_mean,
)

# (seed, m, widths): the bench shape at B = 64, a 200-row batch that the
# curvature pass takes in five chunks of 40 rows, one row, odd widths, and a
# hidden layer wider than 64
MLP_CASES = [
    (0, 64, (16, 64, 4)),
    (1, 200, (16, 64, 4)),
    (2, 1, (3, 8, 2)),
    (3, 37, (5, 7, 1)),
    (4, 64, (16, 128, 4)),
]
RULES = [None, ClippingRule(r=0.5), ClippingRule.auto()]


def mlp_case(seed, m, widths):
    task = TinyMlpTask(*widths, teacher_seed=seed, noise_std=0.05, target_scale=1.5)
    rng = np.random.default_rng(seed)
    return task, task.random_parameters(rng), task.draw_batch(rng, m)


def test_the_200_row_case_takes_several_chunks():
    assert TinyMlpTask.CHUNK_FLOATS // (200 * 4) == 40


@pytest.mark.parametrize("seed, m, widths", MLP_CASES)
class TestMlpBitForBit:
    def test_forward_and_batch_loss(self, seed, m, widths):
        task, w, batch = mlp_case(seed, m, widths)
        assert np.array_equal(task.forward(w, batch[0]), mlp_forward(task, w, batch[0]))
        assert task.batch_loss(w, batch) == mlp_batch_loss(task, w, batch)

    def test_draw_batch(self, seed, m, widths):
        task = mlp_case(seed, m, widths)[0]
        x, y = task.draw_batch(np.random.default_rng(seed + 10), m)
        ref_x, ref_y = mlp_draw_batch(task, np.random.default_rng(seed + 10), m)
        assert np.array_equal(x, ref_x)
        assert np.array_equal(y, ref_y)

    @pytest.mark.parametrize("rule", RULES, ids=["none", "reparam", "auto"])
    def test_fused_pass(self, seed, m, widths, rule):
        task, w, batch = mlp_case(seed, m, widths)
        loss, total = task.loss_and_weighted_gradient_sum(w, batch, clip_weights(rule))
        ref_loss, ref_total = mlp_loss_and_weighted_gradient_sum(
            task, w, batch, clip_weights(rule)
        )
        assert loss == ref_loss
        assert np.array_equal(total, ref_total)

    def test_gradient_hessian_forms(self, seed, m, widths):
        task, w, batch = mlp_case(seed, m, widths)
        g_hat, centered, g_h_g, tr_h = task.gradient_hessian_forms(w, batch)
        ref_g_hat, ref_centered, ref_g_h_g, ref_tr_h = mlp_gradient_hessian_forms(task, w, batch)
        assert np.array_equal(g_hat, ref_g_hat)
        assert np.array_equal(centered, ref_centered)
        assert g_h_g == ref_g_h_g
        assert tr_h == ref_tr_h


def _state(rng, d, t=3):
    return OptimizerState(t, rng.standard_normal(d), rng.random(d))


@pytest.mark.parametrize("t", [0, 3, 40])
def test_adam_direction_bit_for_bit(t):
    rng = np.random.default_rng(t)
    config = OptimizerConfig(kind="adam", eta=0.01)
    g = rng.standard_normal(50)
    state = _state(rng, 50, t)
    direction, new_state = optimizer_direction(g, config, state)
    ref_direction, (ref_t, ref_m, ref_v) = adam_direction(g, state)
    assert np.array_equal(direction, ref_direction)
    assert new_state.t == ref_t
    assert np.array_equal(new_state.m, ref_m)
    assert np.array_equal(new_state.v, ref_v)


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_noised_mean_bit_for_bit(shape):
    totals = np.random.default_rng(1).standard_normal(shape)
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    out = noised_mean(totals, 4, 0.7, rng)
    assert np.array_equal(out, plain_noised_mean(totals, 4, 0.7, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestNoAliasing:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_optimizer_direction_leaves_the_state_alone(self, kind):
        rng = np.random.default_rng(5)
        state = _state(rng, 20)
        m_before, v_before = state.m.copy(), state.v.copy()
        config = OptimizerConfig(kind=kind, eta=0.1)
        direction, new_state = optimizer_direction(rng.standard_normal(20), config, state)
        assert np.array_equal(state.m, m_before) and np.array_equal(state.v, v_before)
        built = [direction] + ([new_state.m, new_state.v] if kind == "adam" else [])
        for out in built:
            assert not np.shares_memory(out, state.m)
            assert not np.shares_memory(out, state.v)

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_noised_mean_leaves_totals_alone(self, sigma):
        totals = np.random.default_rng(6).standard_normal(9)
        before = totals.copy()
        out = noised_mean(totals, 3, sigma, np.random.default_rng(7))
        assert np.array_equal(totals, before)
        assert not np.shares_memory(out, totals)

    def test_step_and_snapshot_leave_the_batch_and_w_alone(self):
        task, w, batch = mlp_case(8, 64, (16, 64, 4))
        saved = [a.copy() for a in (w, *batch)]
        config = OptimizerConfig(kind="adam", eta=0.01)
        dp_step(task, w, batch, 64, ClippingRule.auto(), 1.0, config,
                OptimizerState.zeros(w.size), np.random.default_rng(9))
        stats_snapshot(task, w, batch)
        task.batch_loss(w, batch)
        for now, before in zip((w, *batch), saved):
            assert np.array_equal(now, before)


@pytest.mark.parametrize("call", ["batch_loss", "draw_batch"])
def test_held_out_set_peaks_at_two_hidden_buffers(call):
    # the held-out set of continual_pretrain at the curvature_mlp shape: one
    # 0.5 MiB hidden layer and small arrays, where the plain expressions peak
    # at 1.06 MiB (batch_loss) and 1.19 MiB (draw_batch)
    task = TinyMlpTask(16, 64, 4, teacher_seed=0, noise_std=0.05)
    rng = np.random.default_rng(10)
    w = task.random_parameters(rng)
    held_out = task.draw_batch(rng, 1024)
    tracemalloc.start()
    try:
        if call == "batch_loss":
            task.batch_loss(w, held_out)
        else:
            task.draw_batch(rng, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * task.hidden * 8
