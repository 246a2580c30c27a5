"""Training: the public-then-private continual pre-training loop, the
four-way clip/noise comparison, and the Monte-Carlo oracle that validates the
closed-form improvement predictors.

There is one training loop, ``_train_loop``: public steps, then at most one
permanent switch to private steps.  :func:`continual_pretrain` runs it once.
Each arm of :func:`four_way_comparison` is a one-phase run of it, public
throughout for plain SGD and private throughout for the other three, and so
is the ``train`` subcommand.  Every training step in the package, the loop's
and the membership-inference target's, is one :func:`dp_step`: the task's
fused loss and clipped-gradient-sum pass, the Gaussian noise, and the SGD or
Adam update.  Public, clipped-only, noised-only and DP steps differ only in
the clipping rule and sigma passed to it.

:func:`empirical_improvement_oracle` covers one batch size's whole
(sigma, eta) grid in one call: every cell reduces the same sample batches
(common random numbers), and the cells of one sigma share the noise too.
Each cell's trials stay i.i.d., but the z-scores of cells that share a batch
size are correlated.  The trials run in chunks, each drawing from its own
generator spawned from the caller's.  The chunks run striped over the
usable cores (:func:`usable_cores`), the calling thread being one of them,
and the output bytes depend on the chunk size alone.

Determinism contract: every stochastic choice flows through caller-owned
generators; identical seeds and configurations produce bit-identical runs.
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .clipping import ClippingRule, clip_weights, noised_mean, weighted_gradient_sums
from .hessian import Estimate, HessianStats, stats_snapshot
from .model import DifferentiableTask, QuadraticTask
from .predictor import AlphaSchedule, alpha_schedule_value

Array = np.ndarray


@dataclass(frozen=True)
class OptimizerConfig:
    """First-order optimizer settings shared by DP and non-DP loops."""

    kind: str = "sgd"  # sgd | adam
    eta: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_stabilizer: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.eta <= 0:
            raise ValueError("learning rate must be positive")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")


@dataclass
class OptimizerState:
    """Step counter ``t`` and Adam's moments ``m`` and ``v``; plain SGD
    advances only ``t``.

    Nothing writes into ``m`` or ``v``: a step, or the switch to private
    steps, which zeroes ``m``, binds new arrays, so successive states may
    share the arrays a step leaves alone.
    """

    t: int
    m: Array
    v: Array

    @classmethod
    def zeros(cls, d: int) -> "OptimizerState":
        return cls(t=0, m=np.zeros(d), v=np.zeros(d))


def optimizer_direction(
    g: Array, config: OptimizerConfig, state: OptimizerState
) -> tuple[Array, OptimizerState]:
    """Post-process a gradient into an update direction, advancing the state."""
    g = np.asarray(g, dtype=float)
    t = state.t + 1
    if config.kind == "sgd":
        return g, OptimizerState(t, state.m, state.v)
    # Adam, each of m, v and the direction built in its own new array with the
    # rounding of beta1 m + (1 - beta1) g, beta2 v + (1 - beta2) g g and
    # m_hat / (sqrt(v_hat) + epsilon); scratch holds each term in turn
    m = state.m * config.beta1
    scratch = g * (1.0 - config.beta1)
    m += scratch
    v = state.v * config.beta2
    np.multiply(g, 1.0 - config.beta2, out=scratch)
    scratch *= g
    v += scratch
    direction = m / (1.0 - config.beta1**t)
    np.divide(v, 1.0 - config.beta2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += config.epsilon_stabilizer
    direction /= scratch
    return direction, OptimizerState(t, m, v)


def dp_step(
    task: DifferentiableTask,
    w: Array,
    batch: Any,
    b: int,
    rule: ClippingRule | None,
    sigma: float,
    config: OptimizerConfig,
    state: OptimizerState,
    rng: np.random.Generator | None,
) -> tuple[float, Array, OptimizerState]:
    """One training step on ``batch``; returns ``(loss, w_next, state_next)``.

    The task's fused pass gives the mean batch loss and ``sum_i C_i g_i``;
    the privatized gradient ``(sum_i C_i g_i + sigma * N(0, I)) / B`` goes
    through ``optimizer_direction`` and ``w_next = w - eta * direction``.
    B is the caller's ``b``, the batch size it chose, never a count read off
    the batch.
    ``rule=None`` sums the raw gradients and ``sigma=0`` draws no noise, so
    the same step serves public, clipped-only, noised-only and DP training.
    A non-finite loss returns ``(loss, w, state)`` at once, with no overflow
    warning: no noise is drawn and nothing is updated.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        loss, total = task.loss_and_weighted_gradient_sum(w, batch, clip_weights(rule))
    if not math.isfinite(loss):
        return loss, w, state
    g = noised_mean(total, b, sigma, rng)
    direction, state = optimizer_direction(g, config, state)
    return loss, w - config.eta * direction, state


@dataclass
class SwitchPolicy:
    """Early-stopping trigger that flips training from public to private.

    A reading strictly worse than the previous one lengthens the
    non-improvement streak; a new best resets it; anything in between leaves
    it unchanged.  The policy fires once, when the streak reaches
    ``patience``.  With patience 1 this is exactly the single-step rule
    "switch when the loss goes up".
    """

    patience: int = 1
    _prev: float | None = field(default=None, repr=False)
    _best: float = field(default=math.inf, repr=False)
    _streak: int = field(default=0, repr=False)
    fired: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be at least 1")

    def observe(self, value: float) -> bool:
        """Feed one validation reading; True exactly when the switch fires."""
        if self.fired:
            return False
        if self._prev is not None:
            if value > self._prev:
                self._streak += 1
            elif value < self._best:
                self._streak = 0
        if value < self._best:
            self._best = value
        self._prev = value
        if self._streak >= self.patience:
            self.fired = True
            return True
        return False


@dataclass
class IterationRecord:
    iteration: int
    phase: str  # public | private
    alpha: float
    train_loss: float
    val_loss: float | None
    sigma: float
    hessian: HessianStats | None = None


@dataclass
class TrainRun:
    """Per-iteration log of one training run; ``cli`` writes it as CSV.

    ``abort_reason`` says why the run stopped early, or is None if it did not.
    """

    records: list[IterationRecord] = field(default_factory=list)
    abort_reason: str | None = None


def _initial_parameters(
    task: DifferentiableTask, rng: np.random.Generator, w0: Array | None
) -> Array:
    if w0 is not None:
        return np.asarray(w0, dtype=float).copy()
    initializer = getattr(task, "random_parameters", None)
    if initializer is not None:
        return initializer(rng)
    return 0.1 * rng.standard_normal(task.dimension)


def _train_loop(
    task_public: DifferentiableTask, task_private: DifferentiableTask,
    config: OptimizerConfig, w: Array, val_set: Any,
    switch: SwitchPolicy | None, schedule: AlphaSchedule | None,
    sigma: float, rule: ClippingRule | None,
    data_rng: np.random.Generator, noise_rng: np.random.Generator,
    *, total_steps: int, steps_per_epoch: int, batch_size: int, curvature: bool,
) -> TrainRun:
    """The one training loop: public steps, then at most one switch to private.

    A public step is :func:`dp_step` with no clipping and sigma 0; a private
    step uses ``rule`` and ``sigma``.  The run starts private when
    ``schedule`` gives alpha 0 at iteration 0.  Otherwise it switches when
    ``schedule`` first gives alpha 0 or, with no schedule, when ``switch``
    fires on the held-out loss, which is measured on ``val_set`` after every
    ``steps_per_epoch`` steps.  The switch zeroes Adam's first moment ``m``
    and keeps ``v`` and ``t``.  A one-sided schedule makes a one-phase run.
    With ``curvature``, each record carries a
    :func:`~dplens.hessian.stats_snapshot` of the step's task at the updated
    parameters on the step's batch.  A non-finite loss, or a snapshot with a
    non-finite statistic, ends the run with ``abort_reason`` set and the
    records before that iteration kept.
    """
    state = OptimizerState.zeros(task_public.dimension)
    run = TrainRun()
    public = schedule is None or alpha_schedule_value(schedule, 0) != 0.0
    fired = False
    for t in range(total_steps):
        if public and schedule is not None:
            fired = alpha_schedule_value(schedule, t) == 0.0
        if public and fired:
            state = OptimizerState(state.t, np.zeros_like(state.m), state.v)
            public = False
        task = task_public if public else task_private
        batch = task.draw_batch(data_rng, batch_size)
        sigma_t = 0.0 if public else sigma
        train_loss, w, state = dp_step(
            task, w, batch, batch_size, None if public else rule, sigma_t, config, state,
            noise_rng,
        )
        if not math.isfinite(train_loss):
            run.abort_reason = f"non-finite training loss at iteration {t}"
            break

        stats = None
        if curvature:
            try:
                stats = stats_snapshot(task, w, batch)
            except FloatingPointError:
                run.abort_reason = f"non-finite curvature at iteration {t}"
                break
        val_loss = None
        if (t + 1) % steps_per_epoch == 0:
            val_loss = task_public.batch_loss(w, val_set)
        run.records.append(
            IterationRecord(
                iteration=t,
                phase="public" if public else "private",
                alpha=1.0 if public else 0.0,
                train_loss=train_loss,
                val_loss=val_loss,
                sigma=sigma_t,
                hessian=stats,
            )
        )
        if schedule is None and public and val_loss is not None:
            fired = switch.observe(val_loss)
    return run


def continual_pretrain(
    task_public: DifferentiableTask,
    task_private: DifferentiableTask,
    config: OptimizerConfig,
    switch: SwitchPolicy,
    sigma: float,
    epochs: int,
    rng: np.random.Generator,
    *,
    batch_size: int = 32,
    steps_per_epoch: int = 50,
    rule: ClippingRule | None = ClippingRule(),
    schedule: AlphaSchedule | None = None,
    val_size: int = 1024,
    w0: Array | None = None,
    curvature: bool = False,
) -> TrainRun:
    """Two-phase training: public steps, then a permanent switch to DP steps.

    The public phase ends when the validation loss (mean loss on a held-out
    set of ``val_size`` public samples, evaluated once per epoch) fails to
    improve per the switch policy; the switch zeroes Adam's first moment.
    Passing a binary alpha schedule instead forces the phase change at a
    fixed iteration with no early stopping: an indicator schedule switches
    at step ceil(s total).  The private task must have as many parameters
    as the public one.  Private steps clip with ``rule``, and ``rule=None``
    leaves them unclipped, as in :func:`dp_step`.  With ``curvature``, every
    record carries the step's curvature statistics.  Training aborts with a
    diagnostic record if the loss turns non-finite.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if epochs < 1 or steps_per_epoch < 1 or batch_size < 1:
        raise ValueError("epochs, steps_per_epoch and batch_size must be positive")
    binary = ("indicator", "only_public", "only_private")
    if schedule is not None and schedule.kind not in binary:
        raise ValueError("only binary alpha schedules drive the two-phase loop")
    if task_private.dimension != task_public.dimension:
        raise ValueError(
            f"private task has {task_private.dimension} parameters, "
            f"public task {task_public.dimension}"
        )
    init_rng, val_rng, data_rng, noise_rng = rng.spawn(4)
    w = _initial_parameters(task_public, init_rng, w0)
    val_set = task_public.draw_batch(val_rng, val_size)
    return _train_loop(
        task_public, task_private, config, w, val_set, switch, schedule, sigma, rule,
        data_rng, noise_rng, total_steps=epochs * steps_per_epoch,
        steps_per_epoch=steps_per_epoch, batch_size=batch_size, curvature=curvature,
    )


# The oracle's draw-order unit (floats of samples per chunk) and its memory
# bound (floats of per-sample gradients per block); see the docstring below.
_ORACLE_CHUNK_FLOATS = 2_000_000
_ORACLE_BLOCK_FLOATS = 2**15


def usable_cores() -> int:
    """The number of cores this process may run on (``os.sched_getaffinity``;
    ``taskset -c 0`` gives one), or 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_striped(run_chunk, n_chunks: int) -> None:
    """Call ``run_chunk(c)`` for every c in ``range(n_chunks)``, striped over
    W = min(n_chunks, usable cores) workers.

    Worker k runs the chunks with c = k (mod W) in turn.  The calling
    thread is worker 0, and each other worker is a thread that runs in a
    copy of the caller's context, which holds numpy's error state
    (``np.errstate``).  A worker stops at its first failing chunk.  Every
    thread is joined on every path; then the exception of the
    lowest-numbered chunk that failed is raised here.  With one worker no
    thread starts.
    """
    workers = min(n_chunks, usable_cores())
    errors: dict[int, BaseException] = {}

    def stripe(k: int) -> None:
        for c in range(k, n_chunks, workers):
            try:
                run_chunk(c)
            except BaseException as exc:  # re-raised in the caller
                errors[c] = exc
                return

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(stripe, k), daemon=True
            )
            thread.start()
            threads.append(thread)
        stripe(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def empirical_improvement_oracle(
    task: QuadraticTask,
    w: Array,
    etas: Sequence[float],
    b: int,
    rule: ClippingRule | None,
    sigmas: Sequence[float],
    trials: int,
    rng: np.random.Generator,
) -> list[list[Estimate]]:
    """Monte-Carlo estimates of the expected one-step population-loss drop
    at batch size ``b``, one per (sigma, eta) cell of the two grids.

    Returns ``estimates[i][j]`` for ``sigmas[i]`` and ``etas[j]``.  Each trial
    draws a fresh batch, and for each sigma fresh noise, takes one privatized
    SGD step per eta, and evaluates the exact population loss before and
    after; the quadratic task makes both evaluations closed-form, so the only
    error is sampling noise.  This is the toolkit's independent check of the
    improvement predictors.

    The cells share their batches (common random numbers): trial t of every
    cell reduces the same samples, and the cells of one sigma also share the
    noise.  Within a cell the trials stay i.i.d., so each cell's mean and
    standard error, and its z-score against the closed form, have the
    distribution a call for that cell alone would give them; but the z-scores
    of different cells are correlated, most strongly between two etas at one
    sigma, whose steps differ only in length.

    Trials run in chunks of ``_ORACLE_CHUNK_FLOATS / (b d)`` trials, and each
    chunk c draws from its own generator, ``rng.spawn(n_chunks)[c]``: first
    all of its samples, then the noise of each sigma in grid order (sigma 0
    draws none).  ``rng`` itself draws nothing; only its spawn count moves.
    Within a chunk, samples are drawn and reduced to ``sum_i C_i g_i`` in
    blocks of ``_ORACLE_BLOCK_FLOATS / (b d)`` trials (at least one), so the
    largest transient per chunk is one block's samples and ``(k b, d)``
    gradients, not the chunk's.  Splitting a normal draw into consecutive
    pieces gives the same stream, and every other step works row by row, so
    the block size moves no byte.

    The chunks run striped over the usable cores (:func:`_run_striped`): the
    calling thread runs chunks 0, W, 2W, ... and one thread per further core
    the others, each writing its own trials' columns of the result.  numpy
    releases the GIL while a generator fills an array, so the draws of two
    chunks overlap.  Since every chunk owns its stream and its columns, the
    output bytes depend on the chunk size alone, not on the core count or
    the thread timing.  The threads inherit the caller's numpy error state,
    so an ``np.errstate`` around the call covers every chunk, and the
    exception of the lowest-numbered failing chunk is raised here once every
    thread has been joined.
    """
    if not isinstance(task, QuadraticTask):
        raise TypeError("the improvement oracle requires a QuadraticTask")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if any(eta < 0 for eta in etas):
        raise ValueError("eta must be nonnegative")
    if any(sigma < 0 for sigma in sigmas):
        raise ValueError("sigma must be nonnegative")
    w = np.asarray(w, dtype=float)
    d = task.dimension
    weights = clip_weights(rule)
    loss_before = task.population_loss(w)
    chunk = max(1, int(_ORACLE_CHUNK_FLOATS / (b * d)))
    block = max(1, _ORACLE_BLOCK_FLOATS // (b * d))
    starts = range(0, trials, chunk)
    streams = rng.spawn(len(starts))
    improvements = np.empty((len(sigmas), len(etas), trials))

    def run_chunk(c: int) -> None:
        first, stream = starts[c], streams[c]
        n = min(chunk, trials - first)
        totals = np.empty((n, d))
        for start in range(0, n, block):
            k = min(block, n - start)
            grads = task.per_sample_gradients(w, task.draw_batch(stream, k * b))
            totals[start:start + k] = weighted_gradient_sums(grads.reshape(k, b, d), weights)
        for i, sigma in enumerate(sigmas):
            steps = noised_mean(totals, b, sigma, stream)
            for j, eta in enumerate(etas):
                w_next = w[None, :] - eta * steps
                improvements[i, j, first:first + n] = loss_before - task.population_losses(w_next)

    _run_striped(run_chunk, len(starts))
    return [
        [
            Estimate(
                estimate=float(cell.mean()),
                standard_error=float(cell.std(ddof=1) / np.sqrt(trials)),
            )
            for cell in row
        ]
        for row in improvements
    ]


FOUR_WAY_ARMS = ("sgd", "sgd_clip", "sgd_noise", "dp_sgd")


def four_way_comparison(
    task: DifferentiableTask,
    config: OptimizerConfig,
    sigma: float,
    rule: ClippingRule,
    steps: int,
    rng: np.random.Generator,
    *,
    batch_size: int = 32,
    w0: Array | None = None,
    eval_size: int = 512,
) -> dict[str, TrainRun]:
    """Four training arms on one shared data stream.

    Arms: plain SGD, clipped SGD without noise, noisy SGD without clipping,
    and full DP-SGD, each a one-phase run of the training loop: public for
    ``sgd``, private with its own rule and sigma for the others.  All arms
    start from the same parameters and replay one data stream, each from its
    own copy of the data generator; each owns a separate noise substream, so
    arms differ only where the algorithm differs.  A shared held-out set is
    evaluated at the final iterate of each arm.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive to make the noisy arms distinct")
    if steps < 1:
        raise ValueError("need at least one step")
    init_rng, data_rng, eval_rng, *noise_rngs = rng.spawn(3 + len(FOUR_WAY_ARMS))
    w_init = _initial_parameters(task, init_rng, w0)
    eval_set = task.draw_batch(eval_rng, eval_size)

    arms = {
        "sgd": (None, 0.0),
        "sgd_clip": (rule, 0.0),
        "sgd_noise": (None, sigma),
        "dp_sgd": (rule, sigma),
    }
    return {
        name: _train_loop(
            task, task, config, w_init.copy(), eval_set, None,
            AlphaSchedule.only_public() if name == "sgd" else AlphaSchedule.only_private(),
            arm_sigma, arm_rule, copy.deepcopy(data_rng), noise_rng,
            total_steps=steps, steps_per_epoch=steps, batch_size=batch_size, curvature=False,
        )
        for (name, (arm_rule, arm_sigma)), noise_rng in zip(arms.items(), noise_rngs)
    }
