"""Stochastic curvature probes: trace, tr(H Sigma), and the batch gradient's form.

All estimators consume quadratic forms ``v_j^T H v_j`` rather than a
materialised Hessian or the products ``H v_j``, so they scale to any model
that can give the forms.  A forms action takes a ``(k, d)`` array whose rows
are directions and returns the ``(k,)`` forms of its rows in one call (a
task's ``hessian_forms``); the centered forms of a batch's own gradients
come from the task's ``gradient_hessian_forms``.  The trace estimate carries
its standard error, and all are reproducible under a fixed generator.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

Array = np.ndarray
FormsAction = Callable[[Array], Array]


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate and its standard error."""

    estimate: float
    standard_error: float


@dataclass(frozen=True)
class HessianStats:
    """Scalar curvature statistics measured at one point of a loss landscape."""

    tr_h: float
    tr_h_sigma: float
    g_h_g: float
    g_norm_sq: float
    standard_error_tr_h: float

    def __post_init__(self):
        if self.standard_error_tr_h < 0:
            raise ValueError("standard error must be nonnegative")


def hutchinson_trace(
    forms_action: FormsAction,
    d: int,
    k: int,
    rng: np.random.Generator,
) -> Estimate:
    """Randomized trace estimate mean_j v_j^T H v_j over k Gaussian probes.

    Unbiased for any symmetric operator; the standard error is the sample
    standard deviation of the per-probe values over sqrt(k).
    """
    if k < 2:
        raise ValueError("need k >= 2 probes to report a standard error")
    values = np.asarray(forms_action(rng.standard_normal((k, d))), dtype=float)
    if values.shape != (k,):
        raise ValueError(f"forms action returned shape {values.shape}, expected ({k},)")
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("forms action produced non-finite values")
    return Estimate(
        estimate=float(values.mean()),
        standard_error=float(values.std(ddof=1) / np.sqrt(k)),
    )


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


def stats_snapshot(task, w: Array, batch, k: int, rng: np.random.Generator) -> HessianStats:
    """One-shot curvature measurement of a task at parameters ``w``.

    Fills a :class:`HessianStats` from one ``gradient_hessian_forms`` call
    (the batch-mean gradient g_hat, the centered forms behind tr(H Sigma),
    and g_hat^T H g_hat) and one ``hessian_forms`` call on the k Hutchinson
    probes.  Raises :class:`FloatingPointError`, and emits no warning, when
    a statistic overflows or is not a number, as at a diverged iterate.
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        g_hat, centered, g_h_g = task.gradient_hessian_forms(w, batch)
        trace = hutchinson_trace(
            lambda vs: task.hessian_forms(w, batch, vs), task.dimension, k, rng
        )
        stats = HessianStats(
            tr_h=trace.estimate,
            tr_h_sigma=trace_h_sigma(centered),
            g_h_g=g_h_g,
            g_norm_sq=float(g_hat @ g_hat),
            standard_error_tr_h=trace.standard_error,
        )
    if not all(map(math.isfinite, astuple(stats))):
        raise FloatingPointError("curvature statistics are not finite")
    return stats
