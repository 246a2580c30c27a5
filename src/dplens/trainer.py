"""Training: the public-then-private continual pre-training loop, and the
Monte-Carlo oracle that validates the closed-form improvement predictors.

There is one training loop, :func:`continual_pretrain`: public steps, then
at most one permanent switch to private steps, at a step the caller fixes
or, by early stopping, the step after the first held-out loss reading above
the one before it.  A ``train`` run is a one-phase run of it, public or
private throughout, and ``fourway`` is four such runs of one seed
(``cli``): plain SGD public, and clipped-only, noised-only and DP-SGD
private, each with its own rule and sigma, so the arms share the initial
point, the held-out set, the data and the noise.  Every training step in
the package, the loop's and the membership-inference target's, is one
:func:`dp_step`: the task's fused loss and clipped-gradient-sum pass, the
Gaussian noise, and the SGD or Adam update.  Public, clipped-only,
noised-only and DP steps differ only in the clipping rule and sigma passed
to it.

:func:`empirical_improvement_oracle` covers one batch size's whole
(sigma, eta) grid in one call: every cell reduces the same sample batches
(common random numbers), and the cells of one sigma share the noise too.
Each cell's trials stay i.i.d., but the z-scores of cells that share a batch
size are correlated.  The trials run in chunks, each drawing from its own
generator spawned from the caller's.  The chunks run striped over the
usable cores (:func:`usable_cores`) by :func:`_run_striped`, the one way the
package uses more than one core: the calling process is one worker and a
forked child each other one.  ``cli`` runs a multi-seed run's seeds on it
too.  The output bytes depend on the chunk size alone.

Determinism contract: every stochastic choice flows through caller-owned
generators; identical seeds and configurations produce bit-identical runs.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .clipping import ClippingRule, clip_weights, noised_mean, weighted_gradient_sums
from .hessian import Estimate, HessianStats, stats_snapshot
from .model import DifferentiableTask, QuadraticTask

Array = np.ndarray


# Adam's moment decay rates and the stabilizer added to sqrt(v_hat)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """First-order optimizer settings shared by DP and non-DP loops."""

    kind: str  # sgd | adam
    eta: float

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.eta <= 0:
            raise ValueError("learning rate must be positive")


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
    m = state.m * ADAM_BETA1
    scratch = g * (1.0 - ADAM_BETA1)
    m += scratch
    v = state.v * ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    v += scratch
    direction = m / (1.0 - ADAM_BETA1**t)
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPSILON
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
class IterationRecord:
    iteration: int
    phase: str  # public | private
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


def continual_pretrain(
    task: DifferentiableTask,
    config: OptimizerConfig,
    sigma: float,
    epochs: int,
    rng: np.random.Generator,
    *,
    batch_size: int,
    steps_per_epoch: int,
    rule: ClippingRule | None,
    switch_at: int | None = None,
    val_size: int = 1024,
    curvature: bool = False,
) -> TrainRun:
    """The one training loop: public steps, then at most one switch to DP steps.

    Every step trains ``task``.  A public step is :func:`dp_step` with no
    clipping and sigma 0; a private step clips with ``rule`` (``rule=None``
    leaves it unclipped) and noises with ``sigma``.  The validation loss is
    the mean loss on a held-out set of ``val_size`` samples, evaluated once
    per epoch.  ``switch_at`` is the index of the first private step: 0
    runs private throughout, and a value at or past the step count public
    throughout.  With ``switch_at=None`` early stopping picks it: the step
    after the first validation reading strictly above the one before it, so
    at the earliest the step after the second epoch.  The switch zeroes
    Adam's first moment ``m`` and keeps ``v`` and ``t``.  With
    ``curvature``, each record carries a
    :func:`~dplens.hessian.stats_snapshot` of the task at the updated
    parameters on the step's batch.  A non-finite training or held-out loss,
    or a snapshot with a non-finite statistic, ends the run with
    ``abort_reason`` set and the records before that iteration kept.

    ``rng`` spawns four streams, for the initial point (the task's
    ``random_parameters``), the held-out set, the batches and the noise, so
    runs of one seed that differ only in the clipping rule, sigma or
    switch share all four streams.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if epochs < 1 or steps_per_epoch < 1 or batch_size < 1:
        raise ValueError("epochs, steps_per_epoch and batch_size must be positive")
    if switch_at is not None and switch_at < 0:
        raise ValueError("switch_at must be nonnegative")
    init_rng, val_rng, data_rng, noise_rng = rng.spawn(4)
    w = task.random_parameters(init_rng)
    val_set = task.draw_batch(val_rng, val_size)

    state = OptimizerState.zeros(task.dimension)
    run = TrainRun()
    prev_val_loss = math.inf
    for t in range(epochs * steps_per_epoch):
        if t == switch_at:
            state = OptimizerState(state.t, np.zeros_like(state.m), state.v)
        public = switch_at is None or t < switch_at
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
            with np.errstate(over="ignore", invalid="ignore"):
                val_loss = task.batch_loss(w, val_set)
            if not math.isfinite(val_loss):
                run.abort_reason = f"non-finite held-out loss at iteration {t}"
                break
            if switch_at is None and val_loss > prev_val_loss:
                switch_at = t + 1
            prev_val_loss = val_loss
        run.records.append(
            IterationRecord(
                iteration=t,
                phase="public" if public else "private",
                train_loss=train_loss,
                val_loss=val_loss,
                sigma=sigma_t,
                hessian=stats,
            )
        )
    return run


# The oracle's draw-order unit (floats of samples per chunk) and its memory
# bound (floats of per-sample gradients per block); see the docstring below.
_ORACLE_CHUNK_FLOATS = 2_000_000
_ORACLE_BLOCK_FLOATS = 2**15


def usable_cores() -> int:
    """The number of cores this process may run on (``os.sched_getaffinity``;
    ``taskset -c 0`` gives one), or 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# True in a child forked by _run_striped, whose nested calls run serially
_in_worker = False


def _run_striped(run, jobs: Sequence):
    """Yield ``run(job)`` for each job, in job order.

    W = min(len(jobs), usable cores) workers share the jobs: this process
    is worker 0 and runs ``jobs[0::W]`` itself, and W - 1 children forked at
    the start run ``jobs[k::W]``.  After each job child k sends one pickled
    ``(result, exception)`` message down its own pipe, and it stops after
    its first exception.  A job's exception is raised when its turn comes,
    and a child that dies without sending a job's message is a
    ChildProcessError naming the job.  When the generator ends, fails or is
    closed, the pipes are closed and every child still alive is killed and
    reaped.  A child inherits the caller's numpy error state
    (``np.errstate``).  With one job or one core nothing is forked, and this
    is a serial loop; so is a call made inside a child, such as an oracle
    run's chunks in a seed's worker, so that killing a child stops its jobs'
    work and W workers never fork W^2 processes.
    """
    global _in_worker
    workers = 1 if _in_worker else min(len(jobs), usable_cores())
    children = {}  # worker k -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _in_worker = True
                code = 1
                try:
                    # keep only this pipe's write end, so that a write to a
                    # pipe whose reader is gone fails rather than blocks
                    os.close(read_fd)
                    for _, reader in children.values():
                        reader.close()
                    with open(write_fd, "wb") as out:
                        for job in jobs[k::workers]:
                            try:
                                result, error = run(job), None
                            except Exception as exc:
                                result, error = None, exc
                            pickle.dump((result, error), out)
                            out.flush()
                            if error is not None:
                                break
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[k] = (pid, open(read_fd, "rb"))
        for i, job in enumerate(jobs):
            if i % workers == 0:
                yield run(job)
                continue
            pid, reader = children[i % workers]
            try:
                result, error = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                reader.close()
                del children[i % workers]
                _, status = os.waitpid(pid, 0)
                raise ChildProcessError(
                    f"the worker for job {job!r} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} before sending its result"
                ) from None
            if error is not None:
                raise error
            yield result
    finally:
        for _, reader in children.values():
            reader.close()
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    Within a chunk, per-sample gradients are drawn and reduced to
    ``sum_i C_i g_i`` in blocks of ``_ORACLE_BLOCK_FLOATS / (b d)`` trials
    (at least one).  The chunk owns two ``(k b, d)`` buffers of one block,
    one that :meth:`~dplens.model.QuadraticTask.draw_gradients` fills with
    the gradients and one that holds their squares for the norms, and every
    block reuses them: no block allocates an array of its size, and both
    are freed before the (sigma, eta) loop.  Splitting a normal draw into
    consecutive pieces gives the same stream, and every other step works row
    by row, so the block size moves no byte.

    The chunks run striped over the usable cores (:func:`_run_striped`): the
    calling process runs chunks 0, W, 2W, ... and one forked child per
    further core the others.  Each chunk returns its trials' block of the
    result, and the blocks are joined in chunk order.  Since every chunk
    owns its stream, the output bytes depend on the chunk size alone, not on
    the core count or the timing.  A forked child inherits the caller's
    numpy error state, so an ``np.errstate`` around the call covers every
    chunk, and the exception of the lowest-numbered failing chunk is raised
    here.
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

    def run_chunk(c: int) -> Array:
        stream = streams[c]
        n = min(chunk, trials - starts[c])
        totals = np.empty((n, d))
        grads = np.empty((min(block, n), b, d))
        squares = np.empty_like(grads)
        for start in range(0, n, block):
            k = min(block, n - start)
            task.draw_gradients(stream, w, grads[:k].reshape(k * b, d))
            totals[start:start + k] = weighted_gradient_sums(grads[:k], weights, squares[:k])
        del grads, squares
        out = np.empty((len(sigmas), len(etas), n))
        for i, sigma in enumerate(sigmas):
            steps = noised_mean(totals, b, sigma, stream)
            for j, eta in enumerate(etas):
                w_next = w[None, :] - eta * steps
                out[i, j] = loss_before - task.population_losses(w_next)
        return out

    improvements = np.concatenate(list(_run_striped(run_chunk, range(len(starts)))), axis=2)
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
