import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dplens.clipping import ClippingRule
from dplens.model import QuadraticTask, TinyMlpTask
from dplens.cli import _run_oracle, _run_table, _write_csv, run_subcommand, table_columns
from dplens.predictor import AlphaSchedule, ImprovementInputs, delta_l_priv
from dplens import trainer
from dplens.trainer import (
    FOUR_WAY_ARMS,
    OptimizerConfig,
    OptimizerState,
    SwitchPolicy,
    continual_pretrain,
    dp_step,
    empirical_improvement_oracle,
    four_way_comparison,
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


def count_loop_runs(monkeypatch):
    """Patch the shared training loop to count its runs; returns the live counter."""
    calls = []
    loop = trainer._train_loop

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loop(*args, **kwargs)

    monkeypatch.setattr(trainer, "_train_loop", counted)
    return calls


def first_step(task, w, batch, rule, sigma, config, rng=None, state=None):
    """``dp_step`` on a quadratic's ``(B, d)`` batch from a fresh optimizer
    state; returns (loss, w_next, state_next)."""
    if state is None:
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

    def test_zero_decays_give_stateless_adaptive_step(self):
        task = small_quadratic()
        rng = np.random.default_rng(5)
        w = 0.3 * np.ones(task.dimension)
        batch = task.draw_batch(rng, 8)
        config = OptimizerConfig(kind="adam", eta=0.1, beta1=0.0, beta2=0.0)
        state = OptimizerState.zeros(task.dimension)
        state.m = np.ones(task.dimension)  # stale state must not matter
        state.v = np.ones(task.dimension)
        _, w_next, _ = first_step(task, w, batch, None, 0.0, config, state=state)
        g = per_sample_gradients(task, w, batch).mean(axis=0)
        expected = w - config.eta * g / (np.abs(g) + 1e-8)
        assert np.allclose(w_next, expected, rtol=1e-12)

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
        task = small_quadratic(cov=0.3, seed=10)
        defaults = dict(
            config=OptimizerConfig(kind="adam", eta=0.05),
            switch=SwitchPolicy(patience=1),
            sigma=0.4,
            epochs=12,
            rng=np.random.default_rng(11),
            batch_size=16,
            steps_per_epoch=5,
            rule=ClippingRule.auto(),
            val_size=64,
            w0=0.8 * np.ones(task.dimension),
        )
        defaults.update(kwargs)
        return continual_pretrain(task, task, **defaults)

    def test_every_step_is_one_dp_step(self, monkeypatch):
        calls = count_dp_steps(monkeypatch)
        run = self._run()
        assert len(run.records) == 12 * 5
        assert len(calls) == len(run.records)

    def test_one_run_of_the_shared_loop(self, monkeypatch):
        loops = count_loop_runs(monkeypatch)
        self._run()
        assert len(loops) == 1

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

    def _switch_states(self, monkeypatch, **kwargs):
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
        k = switch_iteration(self._run(**kwargs))
        assert k is not None and k > 0
        return states[2 * k - 1], states[2 * k]

    def test_momentum_reset_applied(self, monkeypatch):
        before, after = self._switch_states(monkeypatch)
        assert np.linalg.norm(before.m) > 0.0
        assert np.linalg.norm(after.m) == 0.0

    def test_momentum_reset_zeroes_adams_m_alone(self, monkeypatch):
        # the switch binds a new m, so the last public state keeps its own
        before, after = self._switch_states(
            monkeypatch, config=OptimizerConfig(kind="adam", eta=0.05, beta1=0.5)
        )
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
        run = self._run(schedule=AlphaSchedule.only_public())
        assert all(p == "public" for p in phase_log(run))

    def test_fractional_schedule_rejected(self):
        with pytest.raises(ValueError):
            self._run(schedule=AlphaSchedule.dpmd(10))

    def test_deterministic(self):
        a = self._run(rng=np.random.default_rng(123))
        b = self._run(rng=np.random.default_rng(123))
        assert a.records == b.records
        assert switch_iteration(a) == switch_iteration(b)

    def test_divergence_aborts_with_diagnostic(self):
        run = self._run(
            config=OptimizerConfig(kind="sgd", eta=1e6),
            schedule=AlphaSchedule.only_public(),
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
        # three chunks run on 1, 2 or 3 workers; no thread outlives a call
        task = wide_quadratic(64)
        w = task.x_mean + 0.3
        grid = ([0.05, 0.2], 256, ClippingRule(r=0.5), [0.0, 0.5], 250)
        threads = threading.active_count()
        results = []
        for n in (1, 2, 3):
            patch_cores(monkeypatch, n)
            rng = np.random.default_rng(27)
            cells = empirical_improvement_oracle(task, w, *grid, rng)
            results.append((cell_pairs(cells), generator_end_state(rng)))
            assert threading.active_count() == threads
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
    def test_traced_peak_is_one_block(self, b):
        # the oracle_quad shape and grid: at B = 256 one (trials, B, d) array
        # of a 122-trial chunk is 15 MiB, and the stacked form holds about
        # five at once; the streamed form holds, per chunk running, one
        # 256 KiB sample block and that block's gradients
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
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("cores", [2, 3], ids=lambda n: f"{n}-core")
    @pytest.mark.parametrize("method", ["per_sample_gradients", "draw_batch"])
    @pytest.mark.parametrize("stripe", ["caller", "worker"])
    def test_a_failure_is_raised_here_and_the_worker_joined(
        self, monkeypatch, cores, method, stripe
    ):
        # a 250-trial run at B = 256 and d = 64 makes 122/122/6-trial chunks
        # of two-trial blocks, chunk 0 on the caller and chunk 1 on a worker,
        # so the failure comes partway through the stripe's first chunk
        patch_cores(monkeypatch, cores)
        task = FailingQuadratic(method, stripe)
        threads = threading.active_count()
        with pytest.raises(InjectedFailure):
            empirical_improvement_oracle(
                task, task.x_mean + 0.3, [0.2], 256, ClippingRule(r=0.5), [0.5], 250,
                np.random.default_rng(25),
            )
        assert task.calls >= 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cores", [1, 2, 3], ids=lambda n: f"{n}-core")
    def test_the_lowest_failing_chunk_is_raised_after_every_stripe_ends(
        self, monkeypatch, cores
    ):
        # worker k runs chunks k, k + W, ...; each stripe stops at its first
        # failure, and chunk 2 fails before chunk 3, whatever the timing
        patch_cores(monkeypatch, cores)
        ran = {}

        def run_chunk(c):
            ran[c] = threading.current_thread()  # an ident may be reused
            if c in (2, 3, 5):
                raise InjectedFailure(f"chunk {c}")

        with pytest.raises(InjectedFailure, match="^chunk 2$"):
            trainer._run_striped(run_chunk, 7)
        stripes = {k: list(range(k, 7, cores)) for k in range(cores)}
        for chunks in stripes.values():
            failed = next((c for c in chunks if c in (2, 3, 5)), None)
            want = chunks if failed is None else chunks[:chunks.index(failed) + 1]
            assert [c for c in sorted(ran) if c in chunks] == want
            assert len({ran[c] for c in want}) == 1
        assert ran[0] is threading.current_thread()
        assert len(set(ran.values())) == cores

    def test_concurrent_calls_under_fast_switching_match_the_reference(self, monkeypatch):
        # three calls at once, each with two chunk threads, on fewer cores
        # than threads and switching every 10 us: a chunk written into the
        # wrong columns, or drawn from the wrong stream, would move a byte
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
        for seed in (30, 31, 32):
            rng = np.random.default_rng(seed)
            reference = stacked_improvement_oracle(task, w, *grid, rng)
            assert results[seed] == (reference, generator_end_state(rng))

    def test_worker_runs_under_the_callers_error_state(self, monkeypatch):
        # A = 1e200 I: the draws and the loss at w = x_mean are finite, but
        # the squared gradient norms overflow; at B = 4096 and d = 8 the 100
        # trials make 61/39-trial chunks, the second on a worker thread
        patch_cores(monkeypatch, 2)
        seen = set()

        class Recording(QuadraticTask):
            def per_sample_gradients(self, w, batch):
                seen.add((threading.get_ident(), np.geterr()["over"]))
                return super().per_sample_gradients(w, batch)

        task = Recording(np.full(8, 1e200), np.zeros(8), np.full(8, 1e-3))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            empirical_improvement_oracle(
                task, np.zeros(8), [0.1], 4096, ClippingRule(r=1.0), [0.0], 100,
                np.random.default_rng(26),
            )
        assert len(seen) == 2
        assert {over for _, over in seen} == {"raise"}


class InjectedFailure(Exception):
    pass


class FailingQuadratic(QuadraticTask):
    """``wide_quadratic(64)``, whose ``method`` raises InjectedFailure on its
    second call from ``stripe``: the thread that built it ("caller") or any
    other ("worker")."""

    def __init__(self, method, stripe):
        base = wide_quadratic(64)
        super().__init__(base.a, base.x_mean, base.s)
        self.method, self.stripe, self.calls = method, stripe, 0
        self.caller = threading.get_ident()
        self.lock = threading.Lock()

    def _count(self, method):
        on_caller = threading.get_ident() == self.caller
        if method == self.method and on_caller == (self.stripe == "caller"):
            with self.lock:
                self.calls += 1
                nth = self.calls
            if nth == 2:
                raise InjectedFailure(f"{method} call 2 on the {self.stripe}")

    def per_sample_gradients(self, w, batch):
        self._count("per_sample_gradients")
        return super().per_sample_gradients(w, batch)

    def draw_batch(self, rng, m):
        self._count("draw_batch")
        return super().draw_batch(rng, m)


class TestFourWay:
    def _task(self):
        return TinyMlpTask(n_in=3, hidden=8, n_out=2, teacher_seed=2,
                           noise_std=0.02, target_scale=0.3)

    def test_noiseless_arms_coincide_when_clipping_inactive(self):
        # small targets and a small initial point keep every per-sample
        # gradient norm below R = 1, so the clipped arm is the plain arm
        task = TinyMlpTask(n_in=3, hidden=8, n_out=2, teacher_seed=2,
                           noise_std=0.01, target_scale=0.1)
        w0 = 0.2 * task.random_parameters(np.random.default_rng(99))
        runs = four_way_comparison(
            task, OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, 40,
            np.random.default_rng(18), batch_size=16, eval_size=64, w0=w0,
        )
        sgd = [r.train_loss for r in runs["sgd"].records]
        clip = [r.train_loss for r in runs["sgd_clip"].records]
        assert np.allclose(sgd, clip, rtol=1e-10)

    def test_arms_share_data_but_not_noise(self):
        task = self._task()
        runs = four_way_comparison(
            task, OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, 30,
            np.random.default_rng(19), batch_size=16, eval_size=64,
        )
        first_losses = {name: runs[name].records[0].train_loss for name in runs}
        # identical initial point and first batch: the first loss agrees everywhere
        assert len(set(first_losses.values())) == 1
        noisy = [r.train_loss for r in runs["sgd_noise"].records]
        dp = [r.train_loss for r in runs["dp_sgd"].records]
        assert not np.allclose(noisy, dp)

    def test_final_eval_recorded(self):
        task = self._task()
        runs = four_way_comparison(
            task, OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, 10,
            np.random.default_rng(20), batch_size=8, eval_size=32,
        )
        for run in runs.values():
            assert run.records[-1].val_loss > 0.0

    def test_deterministic(self):
        task = self._task()
        kwargs = dict(batch_size=8, eval_size=32)
        a = four_way_comparison(
            task, OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, 10,
            np.random.default_rng(21), **kwargs,
        )
        b = four_way_comparison(
            task, OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, 10,
            np.random.default_rng(21), **kwargs,
        )
        for name in a:
            assert a[name].records == b[name].records

    def test_every_step_of_every_arm_is_one_dp_step(self, monkeypatch):
        calls = count_dp_steps(monkeypatch)
        steps = 7
        runs = four_way_comparison(
            self._task(), OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, steps,
            np.random.default_rng(23), batch_size=8, eval_size=32,
        )
        assert all(len(run.records) == steps for run in runs.values())
        assert len(calls) == len(FOUR_WAY_ARMS) * steps

    def test_each_arm_is_a_one_phase_run_of_the_shared_loop(self, monkeypatch):
        loops = count_loop_runs(monkeypatch)
        runs = four_way_comparison(
            self._task(), OptimizerConfig(kind="sgd", eta=0.05), 0.5, REPARAM1, 5,
            np.random.default_rng(24), batch_size=8, eval_size=32,
        )
        assert len(loops) == len(FOUR_WAY_ARMS)
        for name in FOUR_WAY_ARMS:
            phase = "public" if name == "sgd" else "private"
            assert phase_log(runs[name]) == [phase] * 5

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            four_way_comparison(
                self._task(), OptimizerConfig(kind="sgd", eta=0.05), 0.0, REPARAM1,
                10, np.random.default_rng(22),
            )


class TestOptimizerConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="sgd", eta=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(kind="adam", beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(kind="rmsprop")
