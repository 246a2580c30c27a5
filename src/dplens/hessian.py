"""Curvature statistics of a batch: tr(H), tr(H Sigma) and the batch gradient's form.

A snapshot reads the Hessian H of a task's mean batch loss through one task
call, one forward and backward pass of the batch, and builds neither H nor
any product ``H v``.  The task's ``gradient_hessian_forms`` gives the
batch-mean gradient g_hat, the centered forms ``(g_i - g_hat)^T H (g_i -
g_hat)`` of the batch's own per-sample gradients, ``g_hat^T H g_hat``, and
tr(H) in closed form.  tr(H Sigma) is estimated from the centered forms; the
other statistics are exact for the batch, and no snapshot draws a random
number.  The forms along an arbitrary block of directions, which no snapshot
needs, live in ``tests/reference.py`` as the check on each task's pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate and its standard error."""

    estimate: float
    standard_error: float


@dataclass(frozen=True)
class HessianStats:
    """Scalar curvature statistics measured at one point of a loss landscape.

    ``standard_error_tr_h`` is the standard error of ``tr_h``: 0 for an
    exact trace, which is what every snapshot and population value holds.
    """

    tr_h: float
    tr_h_sigma: float
    g_h_g: float
    g_norm_sq: float
    standard_error_tr_h: float

    def __post_init__(self):
        if self.standard_error_tr_h < 0:
            raise ValueError("standard error must be nonnegative")


def trace_h_sigma(centered_forms: Array) -> float:
    """Estimate tr(H Sigma) = E[(g_i - G)^T H (g_i - G)] from a batch.

    Takes the ``(m,)`` centered forms ``(g_i - g_hat)^T H (g_i - g_hat)`` of
    the batch's per-sample gradients and applies the m/(m-1) small-sample
    correction that makes the estimate unbiased under an exact mean.
    """
    values = np.asarray(centered_forms, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"centered forms have shape {values.shape}, expected (m,)")
    m = values.shape[0]
    if m < 2:
        raise ValueError("need at least 2 samples")
    return float(m / (m - 1) * values.mean())


def stats_snapshot(task, w: Array, batch) -> HessianStats:
    """Curvature statistics of a task's mean batch loss at parameters ``w``.

    Fills a :class:`HessianStats` from one ``gradient_hessian_forms`` call:
    the batch-mean gradient g_hat, the centered forms behind tr(H Sigma),
    g_hat^T H g_hat, and the exact tr(H), so its standard error is 0, as in
    :func:`~dplens.model.population_stats`.  Raises
    :class:`FloatingPointError`, and emits no warning, when a statistic
    overflows or is not a number, as at a diverged iterate.
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        g_hat, centered, g_h_g, tr_h = task.gradient_hessian_forms(w, batch)
        tr_h_sigma = trace_h_sigma(centered)
        g_norm_sq = float(g_hat @ g_hat)
    # the fifth field, the standard error, is the constant 0.0
    if not all(map(math.isfinite, (tr_h, tr_h_sigma, g_h_g, g_norm_sq))):
        raise FloatingPointError("curvature statistics are not finite")
    return HessianStats(
        tr_h=tr_h,
        tr_h_sigma=tr_h_sigma,
        g_h_g=g_h_g,
        g_norm_sq=g_norm_sq,
        standard_error_tr_h=0.0,
    )
