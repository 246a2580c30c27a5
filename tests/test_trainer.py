import json
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dplens.clipping import ClippingRule
from dplens.model import QuadraticTask
from dplens.cli import (
    _run_fourway, _run_oracle, _run_table, _write_csv, load_config, run_subcommand,
    table_columns,
)
from dplens.predictor import AlphaSchedule, ImprovementInputs, delta_l_priv
from dplens import trainer
from dplens.trainer import (
    OptimizerConfig,
    OptimizerState,
    SwitchPolicy,
    continual_pretrain,
    dp_step,
    empirical_improvement_oracle,
)
from reference import generator_end_state, per_sample_gradients, stacked_improvement_oracle

REPARAM1 = ClippingRule(r=1.0)


def phase_log(run):
    return [r.phase for r in run.records]


def switch_iteration(run):
    """The iteration of the first private record, or None if there is none."""
    return next((r.iteration for r in run.records if r.phase == "private"), None)


def phase_order_ok(run):
    """True when the phase log never returns from private to public."""
    seen_private = False
    for record in run.records:
        if record.phase == "private":
            seen_private = True
        elif seen_private:
            return False
    return True


def small_quadratic(d=4, cov=0.02, seed=0):
    """Diagonals of A and of S / cov with distinct entries spread over 12.5x,
    in shuffled order, and a nonzero mean."""
    rng = np.random.default_rng(seed)
    a = np.geomspace(0.08, 1.0, d)[rng.permutation(d)]
    s = cov * np.geomspace(0.2, 2.5, d)[rng.permutation(d)]
    return QuadraticTask(a, 0.1 * rng.standard_normal(d), s)


def count_dp_steps(monkeypatch):
    """Patch ``trainer.dp_step`` to count its calls; returns the live counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return dp_step(*args, **kwargs)

    monkeypatch.setattr(trainer, "dp_step", counted)
    return calls


def first_step(task, w, batch, rule, sigma, config, rng=None):
    """``dp_step`` on a quadratic's ``(B, d)`` batch from a fresh optimizer
    state; returns (loss, w_next, state_next)."""
    state = OptimizerState.zeros(task.dimension)
    return dp_step(task, w, batch, len(batch), rule, sigma, config, state, rng)


class TestSteps:
    def test_convex_descent(self):
        task = small_quadratic()
        rng = np.random.default_rng(1)
        w = 0.4 * np.ones(task.dimension)
        config = OptimizerConfig(kind="sgd", eta=0.5)
        batch = task.draw_batch(rng, 32)
        _, w_next, _ = first_step(task, w, batch, REPARAM1, 0.0, config)
        assert task.population_loss(w_next) < task.population_loss(w)

    def test_noiseless_no_clip_is_vanilla_sgd(self):
        task = small_quadratic()
        rng = np.random.default_rng(2)
        w = 0.2 * np.ones(task.dimension)
        batch = task.draw_batch(rng, 16)
        config = OptimizerConfig(kind="sgd", eta=0.3)
        loss, stepped, _ = first_step(task, w, batch, None, 0.0, config)
        vanilla = w - config.eta * per_sample_gradients(task, w, batch).mean(axis=0)
        assert np.allclose(stepped, vanilla, rtol=1e-14)
        assert loss == task.batch_loss(w, batch)

    def test_fixed_seed_bit_identical(self):
        task = small_quadratic()
        w = 0.2 * np.ones(task.dimension)
        batch = task.draw_batch(np.random.default_rng(3), 8)
        config = OptimizerConfig(kind="sgd", eta=0.3)
        a = first_step(task, w, batch, REPARAM1, 0.8, config, np.random.default_rng(7))
        b = first_step(task, w, batch, REPARAM1, 0.8, config, np.random.default_rng(7))
        assert np.array_equal(a[1], b[1])
        assert a[0] == b[0]

    def test_auto_clipped_step_averages_unit_gradients(self):
        task = small_quadratic()
        rng = np.random.default_rng(8)
        w = 0.5 * np.ones(task.dimension)
        batch = task.draw_batch(rng, 8)
        config = OptimizerConfig(kind="sgd", eta=0.2)
        _, w_next, _ = first_step(task, w, batch, ClippingRule.auto(), 0.0, config)
        grads = per_sample_gradients(task, w, batch)
        normalized = grads / np.linalg.norm(grads, axis=1, keepdims=True)
        assert np.allclose((w - w_next) / config.eta, normalized.mean(axis=0), rtol=1e-12)

    def test_the_mean_divides_by_the_callers_b(self):
        # B is the b the caller chose, never a count read off the batch
        task = small_quadratic()
        w = 0.3 * np.ones(task.dimension)
        batch = task.draw_batch(np.random.default_rng(4), 8)
        config = OptimizerConfig(kind="sgd", eta=0.1)
        moves = [
            w - dp_step(task, w, batch, b, None, 0.0, config, OptimizerState.zeros(w.size),
                        None)[1]
            for b in (8, 16)
        ]
        assert np.allclose(moves[1], moves[0] / 2, rtol=1e-12, atol=0.0)

    def test_non_finite_loss_draws_no_noise_and_keeps_parameters(self):
        task = small_quadratic()
        w = 0.2 * np.ones(task.dimension)
        batch = task.draw_batch(np.random.default_rng(3), 8)
        batch[2, 0] = np.nan
        config = OptimizerConfig(kind="adam", eta=0.1)
        state = OptimizerState.zeros(task.dimension)
        rng = np.random.default_rng(7)
        loss, w_next, state_next = dp_step(task, w, batch, 8, REPARAM1, 0.8, config, state, rng)
        assert math.isnan(loss)
        assert w_next is w and state_next is state
        assert state.t == 0
        # the generator is untouched: its next draw is the first draw of a fresh one
        assert rng.standard_normal() == np.random.default_rng(7).standard_normal()


class TestAdamStep:
    def test_first_step_is_sign_like(self):
        task = small_quadratic(cov=0.0)  # zero covariance: all gradients equal
        rng = np.random.default_rng(4)
        w = np.array([0.5, -0.4, 0.3, -0.2])
        batch = task.draw_batch(rng, 8)
        config = OptimizerConfig(kind="adam", eta=0.01)
        _, w_next, state_next = first_step(task, w, batch, None, 0.0, config)
        g = per_sample_gradients(task, w, batch).mean(axis=0)
        direction = (w - w_next) / config.eta
        # hand evaluation at t=1: m_hat = g, v_hat = g^2, so p = g/(|g|+1e-8)
        assert np.allclose(direction, g / (np.abs(g) + 1e-8), rtol=1e-12)
        assert np.allclose(np.abs(direction), np.ones_like(g), atol=1e-6)
        assert state_next.t == 1

    def test_fixed_seed_bit_identical_adam(self):
        task = small_quadratic()
        w = 0.2 * np.ones(task.dimension)
        batch = task.draw_batch(np.random.default_rng(3), 8)
        config = OptimizerConfig(kind="adam", eta=0.05)
        runs = [
            first_step(task, w, batch, ClippingRule.auto(), 0.8, config, np.random.default_rng(7))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][2].m, runs[1][2].m)
        assert np.array_equal(runs[0][2].v, runs[1][2].v)


class TestSwitchPolicy:
    def test_patience_one_documented_trace(self):
        policy = SwitchPolicy(patience=1)
        fired = [policy.observe(v) for v in (3.0, 2.0, 1.5, 1.6)]
        assert fired == [False, False, False, True]

    def test_patience_two_documented_trace(self):
        policy = SwitchPolicy(patience=2)
        fired = [policy.observe(v) for v in (3.0, 2.0, 2.1, 2.05, 2.2)]
        assert fired == [False, False, False, False, True]

    def test_new_best_resets_streak(self):
        policy = SwitchPolicy(patience=2)
        fired = [policy.observe(v) for v in (3.0, 2.0, 2.1, 1.5, 1.9, 2.0)]
        # the new best at 1.5 clears the earlier non-improvement
        assert fired == [False, False, False, False, False, True]

    def test_fires_at_most_once(self):
        policy = SwitchPolicy(patience=1)
        fired = [policy.observe(v) for v in (1.0, 2.0, 3.0, 4.0)]
        assert fired == [False, True, False, False]

    def test_patience_validated(self):
        with pytest.raises(ValueError):
            SwitchPolicy(patience=0)


class TestContinualPretrain:
    def _run(self, **kwargs):
        # x_mean moved by -0.8 per coordinate puts the 0.1 N(0, I) start as
        # far from the optimum as a start at 0.8 is from the base task's
        base = small_quadratic(cov=0.3, seed=10)
        defaults = dict(
            task=QuadraticTask(base.a, base.x_mean - 0.8, base.s),
            config=OptimizerConfig(kind="adam", eta=0.05),
            sigma=0.4,
            epochs=12,
            rng=np.random.default_rng(11),
            batch_size=16,
            steps_per_epoch=5,
            rule=ClippingRule.auto(),
            val_size=64,
        )
        defaults.update(kwargs)
        return continual_pretrain(**defaults)

    def test_every_step_is_one_dp_step(self, monkeypatch):
        calls = count_dp_steps(monkeypatch)
        run = self._run()
        assert len(run.records) == 12 * 5
        assert len(calls) == len(run.records)

    def test_switch_fires_and_audit_passes(self):
        run = self._run()
        assert switch_iteration(run) is not None
        assert phase_order_ok(run)
        phases = phase_log(run)
        assert phases[0] == "public"
        assert phases[-1] == "private"
        for record in run.records:
            if record.phase == "public":
                assert record.sigma == 0.0 and record.alpha == 1.0
            else:
                assert record.sigma == 0.4 and record.alpha == 0.0

    @pytest.mark.parametrize("patience", [1, 2])
    def test_patience_switches_where_its_policy_fires(self, patience):
        # a SwitchPolicy(patience) fed the run's held-out losses fires at
        # the epoch after which the first private step runs: iteration 25
        # for patience 1 and 30 for patience 2
        run = self._run(patience=patience)
        policy = SwitchPolicy(patience)
        val_losses = [r.val_loss for r in run.records if r.val_loss is not None]
        epoch = next(e for e, loss in enumerate(val_losses) if policy.observe(loss))
        assert switch_iteration(run) == 5 * (epoch + 1) == 20 + 5 * patience

    def _switch_states(self, monkeypatch):
        """The optimizer state the last public step leaves, and the one the
        first private step starts from."""
        states = []  # each step's state in, then its state out
        direction = trainer.optimizer_direction

        def spy(g, config, state):
            states.append(state)
            g, state = direction(g, config, state)
            states.append(state)
            return g, state

        monkeypatch.setattr(trainer, "optimizer_direction", spy)
        k = switch_iteration(self._run())
        assert k is not None and k > 0
        return states[2 * k - 1], states[2 * k]

    def test_momentum_reset_zeroes_adams_m_alone(self, monkeypatch):
        # the switch binds a new m, so the last public state keeps its own
        before, after = self._switch_states(monkeypatch)
        assert np.any(before.m) and not np.any(after.m)
        assert after.v is before.v and np.any(after.v) and after.t == before.t > 0

    def test_indicator_schedule_flips_at_fraction(self):
        total = 60  # 12 epochs x 5 steps
        run = self._run(schedule=AlphaSchedule("indicator", s=0.4, total=total))
        phases = phase_log(run)
        cut = int(math.ceil(0.4 * total))
        assert all(p == "public" for p in phases[:cut])
        assert all(p == "private" for p in phases[cut:])
        assert switch_iteration(run) == cut

    def test_only_public_schedule_never_switches(self):
        run = self._run(schedule=AlphaSchedule(kind="only_public"))
        assert all(p == "public" for p in phase_log(run))

    def test_fractional_schedule_rejected(self):
        with pytest.raises(ValueError):
            self._run(schedule=AlphaSchedule("dpmd", k=10))

    def test_deterministic(self):
        a = self._run(rng=np.random.default_rng(123))
        b = self._run(rng=np.random.default_rng(123))
        assert a.records == b.records
        assert switch_iteration(a) == switch_iteration(b)

    def test_divergence_aborts_with_diagnostic(self):
        run = self._run(
            config=OptimizerConfig(kind="sgd", eta=1e6),
            schedule=AlphaSchedule(kind="only_public"),
        )
        assert "non-finite" in run.abort_reason
        assert run.records  # partial log retained

    def test_hessian_probes_recorded_and_csv(self, tmp_path):
        run = self._run(epochs=2, curvature=True)
        assert all(r.hessian is not None for r in run.records)
        columns = table_columns("continual", {"hessian_probes": 1})
        text = _write_csv(tmp_path / "run.csv", _run_table(run, 16, columns)).read_text()
        header = text.splitlines()[0]
        assert header == "iter,phase,alpha,train_loss,val_loss,sigma,tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator"

    def test_csv_without_hessian(self, tmp_path):
        run = self._run(epochs=2)
        table = _run_table(run, 16, table_columns("continual", {}))
        lines = _write_csv(tmp_path / "run.csv", table).read_text().splitlines()
        assert lines[0] == "iter,phase,alpha,train_loss,val_loss,sigma"
        # val_loss cell is empty except at epoch boundaries
        first = lines[1].split(",")
        assert first[4] == ""


def cell_pairs(grid):
    """(estimate, standard error) per sigma, per eta of an oracle grid."""
    return [[(cell.estimate, cell.standard_error) for cell in row] for row in grid]


class TestImprovementOracle:
    def test_zero_eta_is_exactly_zero(self):
        task = small_quadratic()
        [[result]] = empirical_improvement_oracle(
            task, np.ones(task.dimension), [0.0], 8, REPARAM1, [0.5], 200,
            np.random.default_rng(13),
        )
        assert result.estimate == 0.0
        assert result.standard_error == 0.0

    def test_matches_public_closed_form(self):
        task = small_quadratic(cov=0.05, seed=14)
        rng = np.random.default_rng(15)
        w = 0.5 * np.ones(task.dimension)
        from dplens.model import population_stats

        stats = population_stats(task, w)
        eta, b = 0.3, 16
        inputs = ImprovementInputs.from_stats(stats, 0.0)
        closed = delta_l_priv(eta, b, inputs)
        [[result]] = empirical_improvement_oracle(task, w, [eta], b, None, [0.0], 20_000, rng)
        assert abs(result.estimate - closed) <= 3.0 * result.standard_error

    def test_large_noise_negative_improvement(self):
        task = small_quadratic(cov=0.05, seed=16)
        rng = np.random.default_rng(17)
        w = 0.5 * np.ones(task.dimension)
        from dplens.model import population_stats

        stats = population_stats(task, w)
        eta, b, sigma = 0.5, 4, 8.0
        inputs = ImprovementInputs.from_stats(stats, sigma)
        closed = delta_l_priv(eta, b, inputs)
        assert closed < 0
        [[result]] = empirical_improvement_oracle(task, w, [eta], b, None, [sigma], 20_000, rng)
        assert result.estimate < 0
        assert abs(result.estimate - closed) <= 3.0 * result.standard_error

    def test_too_few_trials_rejected(self):
        task = small_quadratic()
        with pytest.raises(ValueError):
            empirical_improvement_oracle(
                task, np.ones(task.dimension), [0.1], 4, None, [0.0], 99,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "etas, sigmas, message",
        [([0.1, -0.1], [0.0], "eta"), ([0.1], [0.5, -0.5], "sigma")],
        ids=["eta", "sigma"],
    )
    def test_a_negative_grid_value_is_rejected_before_any_draw(self, etas, sigmas, message):
        task = small_quadratic()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{message} must be nonnegative"):
            empirical_improvement_oracle(
                task, np.ones(task.dimension), etas, 4, None, sigmas, 200, rng
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "d, b, trials, sigmas",
        [
            # one chunk: the 1x1 call's draws end where the grid's first sigma's do
            (8, 16, 300, [0.5, 1.0]),
            # 122/122/6-trial chunks, and the later sigma draws no noise
            (64, 256, 250, [0.5, 0.0]),
        ],
    )
    def test_first_sigma_cells_are_those_of_one_cell_calls(self, d, b, trials, sigmas):
        task = wide_quadratic(d)
        w = task.x_mean + 0.3 * np.random.default_rng(25).standard_normal(d)
        etas = [0.05, 0.2, 1.0]
        grid = empirical_improvement_oracle(
            task, w, etas, b, REPARAM1, sigmas, trials, np.random.default_rng(26)
        )
        for eta, cell in zip(etas, grid[0]):
            [[alone]] = empirical_improvement_oracle(
                task, w, [eta], b, REPARAM1, sigmas[:1], trials, np.random.default_rng(26)
            )
            assert (cell.estimate, cell.standard_error) == (alone.estimate, alone.standard_error)

    def test_z_scores_are_calibrated_over_seeds(self):
        # cells that share B share batches, so their z-scores are correlated;
        # across seeds each cell's z must still be N(0, 1) up to sampling
        cfg = {
            "schema": 1,
            "task": {"kind": "quadratic", "dimension": 8, "hessian_scale": 0.5,
                     "covariance_scale": 0.001},
            "clipping": {"kind": "reparam", "r": 1.0},
            "offset_scale": 0.3,
            "eta_grid": [0.05, 0.2],
            "batch_grid": [4, 16],
            "sigma_grid": [0.0, 0.2],
            "trials": 200,
        }
        zs = np.array([[row[6] for row in _run_oracle(cfg, seed).rows] for seed in range(100)])
        assert zs.shape == (100, 8)
        assert np.abs(zs.mean(axis=0)).max() <= 0.3
        sds = zs.std(axis=0, ddof=1)
        assert 0.75 <= sds.min() and sds.max() <= 1.25


def wide_quadratic(d, seed=20):
    """A d-dimensional quadratic whose diagonals of A and S have distinct
    entries spread over 20x and 50x, in shuffled order, and a nonzero mean."""
    rng = np.random.default_rng(seed)
    a = np.geomspace(0.1, 2.0, d)[rng.permutation(d)]
    s = 0.001 * np.geomspace(0.05, 2.5, d)[rng.permutation(d)]
    return QuadraticTask(a, rng.standard_normal(d), s)


def patch_cores(monkeypatch, n):
    """Make ``trainer.usable_cores`` give ``n``, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    """No forked worker is left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestStreamedOracle:
    """The oracle reduces each chunk block by block, each chunk from its own
    spawned generator; the bytes are those of the stacked reference, which
    runs the chunks one after another, and the generator ends in the same
    state with the same spawn count."""

    @pytest.mark.parametrize(
        "d, b, trials, rule, etas, sigmas",
        [
            # 122/122/6-trial chunks in blocks of 2
            (64, 256, 250, ClippingRule(r=0.5), [0.2], [0.5]),
            (64, 256, 250, None, [0.2], [0.5]),
            (64, 256, 250, ClippingRule.auto(), [0.2], [0.0]),
            # b d > 2^15: one-trial blocks, 30/30/30/10-trial chunks
            (64, 1024, 100, ClippingRule.auto(), [0.2], [0.5]),
            (64, 1024, 100, None, [0.2], [0.0]),
            # blocks of 3 with a one-trial remainder in a 208-trial chunk
            (48, 200, 250, ClippingRule(r=0.5), [0.2], [0.5]),
            # one chunk, and a block longer than it
            (4, 8, 300, ClippingRule(r=0.5), [0.2], [0.5]),
            # a 2x2 grid over three chunks: each chunk's samples, then the
            # noise of sigma 0.5, then that of sigma 1, from its own stream
            (64, 256, 250, ClippingRule(r=0.5), [0.05, 0.2], [0.5, 1.0]),
        ],
    )
    def test_matches_stacked_reference(self, d, b, trials, rule, etas, sigmas):
        task = wide_quadratic(d)
        w = task.x_mean + 0.3 * np.random.default_rng(21).standard_normal(d)
        rng = np.random.default_rng(22)
        ref_rng = np.random.default_rng(22)
        result = empirical_improvement_oracle(task, w, etas, b, rule, sigmas, trials, rng)
        reference = stacked_improvement_oracle(task, w, etas, b, rule, sigmas, trials, ref_rng)
        assert cell_pairs(result) == reference
        assert generator_end_state(rng) == generator_end_state(ref_rng)

    def test_bytes_do_not_depend_on_the_core_count(self, monkeypatch):
        # three chunks run on 1, 2 or 3 workers; no child outlives a call
        task = wide_quadratic(64)
        w = task.x_mean + 0.3
        grid = ([0.05, 0.2], 256, ClippingRule(r=0.5), [0.0, 0.5], 250)
        results = []
        for n in (1, 2, 3):
            patch_cores(monkeypatch, n)
            rng = np.random.default_rng(27)
            cells = empirical_improvement_oracle(task, w, *grid, rng)
            results.append((cell_pairs(cells), generator_end_state(rng)))
            assert_no_child_left()
        assert results[1] == results[0] and results[2] == results[0]

    def test_oracle_run_writes_the_same_bytes_on_any_core_count(self, monkeypatch, tmp_path):
        config = str(Path(__file__).resolve().parents[1] / "configs" / "oracle_small.json")
        outputs = []
        for n in (1, 2, 3):
            patch_cores(monkeypatch, n)
            out = tmp_path / str(n)
            assert run_subcommand(["oracle", "--config", config, "--out", str(out)]) == 0
            outputs.append((out / "oracle.csv").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("b", [16, 256])
    def test_traced_peak_is_one_block(self, monkeypatch, b):
        # the oracle_quad shape and grid: at B = 256 one (trials, B, d) array
        # of a 122-trial chunk is 15 MiB, and the stacked form holds about
        # five at once; the streamed form holds a chunk's two 256 KiB block
        # buffers, of gradients and of their squares, and no third array of
        # a block's size (the traced peak read 708 KiB at B = 16 and 647 KiB
        # at B = 256, against 963 and 902 KiB when each block drew new
        # samples, gradients and squares).  On one core every chunk runs in
        # this process, where tracemalloc sees it, not in a forked worker
        patch_cores(monkeypatch, 1)
        task = wide_quadratic(64)
        w = task.x_mean + 0.3 * np.random.default_rng(23).standard_normal(64)
        rng = np.random.default_rng(24)
        tracemalloc.start()
        try:
            empirical_improvement_oracle(
                task, w, [0.05, 0.2], b, ClippingRule(r=1.0), [0.0, 0.5], 250, rng
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**18

    @pytest.mark.parametrize("cores", [2, 3], ids=lambda n: f"{n}-core")
    @pytest.mark.parametrize("call", [1, 2], ids=["first-block", "second-block"])
    @pytest.mark.parametrize("stripe", ["caller", "worker"])
    def test_a_failure_is_raised_here_and_the_worker_reaped(
        self, monkeypatch, cores, call, stripe
    ):
        # a 250-trial run at B = 256 and d = 64 makes 122/122/6-trial chunks
        # of two-trial blocks, chunk 0 in this process and chunk 1 in a
        # forked worker, so the failure comes at the start of, or partway
        # through, the stripe's first chunk; the exception names the process
        # that raised it
        patch_cores(monkeypatch, cores)
        task = FailingQuadratic(call, stripe)
        with pytest.raises(InjectedFailure) as caught:
            empirical_improvement_oracle(
                task, task.x_mean + 0.3, [0.2], 256, ClippingRule(r=0.5), [0.5], 250,
                np.random.default_rng(25),
            )
        assert str(caught.value) == f"draw_gradients call {call} on the {stripe}"
        assert (caught.value.pid == os.getpid()) == (stripe == "caller")
        assert_no_child_left()

    def test_concurrent_calls_under_fast_switching_match_the_reference(self, monkeypatch):
        # three calls at once from threads, each forking two workers, on
        # fewer cores than processes and switching every 10 us: a chunk
        # joined in the wrong place, or drawn from the wrong stream, would
        # move a byte
        patch_cores(monkeypatch, 3)
        task = wide_quadratic(64)
        w = task.x_mean + 0.3
        grid = ([0.05, 0.2], 256, ClippingRule(r=0.5), [0.0, 0.5], 250)
        results = {}

        def run(seed):
            rng = np.random.default_rng(seed)
            cells = empirical_improvement_oracle(task, w, *grid, rng)
            results[seed] = cell_pairs(cells), generator_end_state(rng)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(seed,), daemon=True)
                       for seed in (30, 31, 32)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert_no_child_left()
        for seed in (30, 31, 32):
            rng = np.random.default_rng(seed)
            reference = stacked_improvement_oracle(task, w, *grid, rng)
            assert results[seed] == (reference, generator_end_state(rng))

    def test_worker_runs_under_the_callers_error_state(self, monkeypatch):
        # at B = 4096 and d = 8 the 100 trials make 61/39-trial chunks, the
        # second in a forked worker, whose exception carries the worker's
        # overflow mode back; this process records its own
        patch_cores(monkeypatch, 2)
        caller = os.getpid()
        modes = []

        class Recording(QuadraticTask):
            def draw_gradients(self, rng, w, out):
                if os.getpid() != caller:
                    raise InjectedFailure("worker")
                modes.append(np.geterr()["over"])
                return super().draw_gradients(rng, w, out)

        task = Recording(np.ones(8), np.zeros(8), np.full(8, 1e-3))
        with np.errstate(over="raise"), pytest.raises(InjectedFailure) as caught:
            empirical_improvement_oracle(
                task, np.zeros(8), [0.1], 4096, ClippingRule(r=1.0), [0.0], 100,
                np.random.default_rng(26),
            )
        assert caught.value.pid != caller
        assert caught.value.over == "raise"
        assert modes and set(modes) == {"raise"}
        assert np.geterr()["over"] != "raise"


class InjectedFailure(Exception):
    """A test's failure; ``pid`` and ``over`` are the raising process's id
    and numpy overflow mode, which pickling carries back from a worker."""

    def __init__(self, message):
        super().__init__(message)
        self.pid, self.over = os.getpid(), np.geterr()["over"]


class FailingQuadratic(QuadraticTask):
    """``wide_quadratic(64)``, whose ``draw_gradients`` raises
    InjectedFailure on its ``failing_call``-th call in ``stripe``: the
    process that built it ("caller") or a forked worker ("worker").  Each
    process counts its own calls."""

    def __init__(self, failing_call, stripe):
        base = wide_quadratic(64)
        super().__init__(base.a, base.x_mean, base.s)
        self.failing_call, self.stripe, self.calls = failing_call, stripe, 0
        self.caller = os.getpid()

    def draw_gradients(self, rng, w, out):
        if (os.getpid() == self.caller) == (self.stripe == "caller"):
            self.calls += 1
            if self.calls == self.failing_call:
                raise InjectedFailure(f"draw_gradients call {self.calls} on the {self.stripe}")
        return super().draw_gradients(rng, w, out)


FOURWAY_ARMS = ("sgd", "sgd_clip", "sgd_noise", "dp_sgd")


def arm_rows(table):
    """Each fourway arm's rows without the arm cell: iter, phase, alpha,
    train_loss, val_loss, sigma."""
    rows = {}
    for arm, *row in table.rows:
        rows.setdefault(arm, []).append(row)
    return rows


class TestFourWay:
    def _cfg(self, steps=10, batch_size=8):
        return {
            "schema": 1,
            "task": {"kind": "tinymlp", "n_in": 3, "hidden": 8, "n_out": 2, "teacher_seed": 2,
                     "noise_std": 0.02, "target_scale": 0.3},
            "optimizer": {"kind": "sgd", "eta": 0.05},
            "clipping": {"kind": "reparam", "r": 1.0},
            "sigma": 0.5, "steps": steps, "batch_size": batch_size, "val_size": 32,
        }

    def _inactive_clipping(self):
        # at hessian scale 0.05 every per-sample gradient norm stays below
        # R = 1, where the reparam factor min(1/|g|, 1/R) is exactly 1
        cfg = {**self._cfg(steps=20), "task": {"kind": "quadratic", "dimension": 4,
                                                "hessian_scale": 0.05}}
        return {arm: [(row[3], row[4]) for row in rows]
                for arm, rows in arm_rows(_run_fourway(cfg, 18)).items()}

    def test_noiseless_arms_coincide_when_clipping_inactive(self):
        losses = self._inactive_clipping()
        assert losses["sgd_clip"] == losses["sgd"]
        assert losses["sgd_noise"] != losses["sgd"]

    def test_noised_arms_coincide_when_clipping_inactive(self):
        # common random numbers: the noised arms draw the same noise
        losses = self._inactive_clipping()
        assert losses["dp_sgd"] == losses["sgd_noise"]

    def test_all_arms_have_the_same_first_loss(self):
        # identical initial point and first batch
        rows = arm_rows(_run_fourway(self._cfg(steps=30, batch_size=16), 19))
        assert list(rows) == list(FOURWAY_ARMS)
        assert len({arm[0][3] for arm in rows.values()}) == 1

    def test_final_eval_recorded(self):
        for rows in arm_rows(_run_fourway(self._cfg(), 20)).values():
            assert rows[-1][4] > 0.0

    def test_deterministic(self):
        assert _run_fourway(self._cfg(), 21) == _run_fourway(self._cfg(), 21)

    def test_every_step_of_every_arm_is_one_dp_step(self, monkeypatch):
        calls = count_dp_steps(monkeypatch)
        steps = 7
        rows = arm_rows(_run_fourway(self._cfg(steps=steps), 23))
        assert all(len(arm) == steps for arm in rows.values())
        assert len(calls) == len(FOURWAY_ARMS) * steps

    def test_each_arm_is_one_continual_pretrain_call(self, monkeypatch):
        schedules = []
        loop = trainer.continual_pretrain

        def counted(*args, **kwargs):
            schedules.append(kwargs["schedule"].kind)
            return loop(*args, **kwargs)

        monkeypatch.setattr(trainer, "continual_pretrain", counted)
        rows = arm_rows(_run_fourway(self._cfg(steps=5), 24))
        assert schedules == ["only_public"] + ["only_private"] * 3
        for arm in FOURWAY_ARMS:
            phase = "public" if arm == "sgd" else "private"
            assert [row[1] for row in rows[arm]] == [phase] * 5

    def test_each_arms_rows_are_its_continual_runs_csv(self, tmp_path):
        cfg = self._cfg(steps=12, batch_size=4)
        cfg_path = tmp_path / "fourway.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_subcommand(["fourway", "--config", str(cfg_path), "--seed", "3",
                               "--out", str(tmp_path)]) == 0
        fourway = (tmp_path / "fourway.csv").read_text(encoding="utf-8").splitlines()
        common = {"schema": 1, "task_public": cfg["task"], "optimizer": cfg["optimizer"],
                  "epochs": 1, "steps_per_epoch": 12, "batch_size": 4, "val_size": 32}
        private = {"schedule": {"kind": "only_private"}, "clipping": cfg["clipping"],
                   "sigma": 0.5}
        arms = {
            "sgd": {"schedule": {"kind": "only_public"}},
            "sgd_clip": {**private, "sigma": 0.0},
            "sgd_noise": {**private, "clipping": {"kind": "none"}},
            "dp_sgd": private,
        }
        for arm, keys in arms.items():
            out = tmp_path / arm
            path = tmp_path / f"{arm}.json"
            path.write_text(json.dumps({**common, **keys}), encoding="utf-8")
            assert run_subcommand(["continual", "--config", str(path), "--seed", "3",
                                   "--out", str(out)]) == 0
            header, *rows = (out / "continual.csv").read_text(encoding="utf-8").splitlines()
            assert fourway[0] == "arm," + header
            assert [line for line in fourway[1:] if line.startswith(arm + ",")] == [
                f"{arm},{row}" for row in rows
            ]

    def test_clipping_costs_less_than_noise_in_every_shipped_seed(self):
        # the paper's claim that noise, not clipping, slows DP training: the
        # clipped-only arm ends below the noised-only arm on held-out loss
        cfg = load_config(Path(__file__).parents[1] / "configs" / "fourway_mlp.json", "fourway")
        assert len(cfg["seeds"]) == 5
        for seed in cfg["seeds"]:
            final = {arm: rows[-1][4] for arm, rows in arm_rows(_run_fourway(cfg, seed)).items()}
            assert final["sgd_clip"] < final["sgd_noise"], (seed, final)


class TestOptimizerConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="sgd", eta=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(kind="rmsprop", eta=0.1)
