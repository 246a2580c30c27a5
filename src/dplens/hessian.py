"""Stochastic curvature probes: trace, quadratic form, and tr(H Sigma).

All estimators consume a block Hessian action ``V -> H V`` rather than a
materialised matrix, so they scale to any model that can provide the
action.  The action takes a ``(k, d)`` array whose rows are directions and
returns the ``(k, d)`` array of the Hessian applied to each row, so every
estimator applies the Hessian to all of its directions in one call (a task's
``hvp_block``).  Estimates are reported with standard errors and are
reproducible under a fixed generator.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray
HvpBlockAction = Callable[[Array], Array]


def _row_forms(vs: Array, hvp_action: HvpBlockAction) -> Array:
    """The quadratic forms v_j^T H v_j of the rows of ``vs``, in one block call."""
    hvs = np.asarray(hvp_action(vs), dtype=float)
    if hvs.shape != vs.shape:
        raise ValueError(
            f"hvp action returned shape {hvs.shape}, expected {vs.shape}"
        )
    return np.einsum("ij,ij->i", vs, hvs)


@dataclass(frozen=True)
class TraceEstimate:
    estimate: float
    standard_error: float


@dataclass(frozen=True)
class HessianStats:
    """Scalar curvature statistics measured at one point of a loss landscape."""

    tr_h: float
    tr_h_sigma: float
    g_h_g: float
    g_norm_sq: float
    probe_count: int
    standard_error_tr_h: float

    def __post_init__(self):
        if self.probe_count < 1:
            raise ValueError("probe_count must be positive")
        if self.standard_error_tr_h < 0:
            raise ValueError("standard error must be nonnegative")


def hutchinson_trace(
    hvp_action: HvpBlockAction,
    d: int,
    k: int,
    rng: np.random.Generator,
    probes: str = "gaussian",
) -> TraceEstimate:
    """Randomized trace estimate mean_j v_j^T H v_j over k isotropic probes.

    Gaussian probes are the default; Rademacher probes are available for
    variance reduction.  Unbiased for any symmetric operator; the standard
    error is the sample standard deviation of the per-probe values over
    sqrt(k).
    """
    if k < 2:
        raise ValueError("need k >= 2 probes to report a standard error")
    if probes == "gaussian":
        vs = rng.standard_normal((k, d))
    elif probes == "rademacher":
        vs = rng.integers(0, 2, size=(k, d)) * 2.0 - 1.0
    else:
        raise ValueError(f"unknown probe distribution {probes!r}")
    values = _row_forms(vs, hvp_action)
    if not np.all(np.isfinite(values)):
        raise ValueError("hvp action produced non-finite values")
    return TraceEstimate(
        estimate=float(values.mean()),
        standard_error=float(values.std(ddof=1) / np.sqrt(k)),
    )


def quadratic_form(g: Array, hvp_action: HvpBlockAction) -> float:
    """g^T H g through one application of the Hessian action to the row g."""
    g = np.asarray(g, dtype=float)
    return float(_row_forms(g[None, :], hvp_action)[0])


def trace_h_sigma(
    per_sample_grads: Array, g_hat: Array, hvp_action: HvpBlockAction
) -> TraceEstimate:
    """Estimate tr(H Sigma) = E[(g_i - G)^T H (g_i - G)] from a batch.

    Uses the centered quadratic forms with the m/(m-1) small-sample
    correction that makes the estimate unbiased under an exact mean.
    """
    grads = np.atleast_2d(np.asarray(per_sample_grads, dtype=float))
    m = grads.shape[0]
    if m < 2:
        raise ValueError("need at least 2 samples")
    g_hat = np.asarray(g_hat, dtype=float)
    values = _row_forms(grads - g_hat[None, :], hvp_action)
    correction = m / (m - 1)
    return TraceEstimate(
        estimate=float(correction * values.mean()),
        standard_error=float(correction * values.std(ddof=1) / np.sqrt(m)),
    )


def stats_snapshot(task, w: Array, batch, k: int, rng: np.random.Generator) -> HessianStats:
    """One-shot curvature measurement of a task at parameters ``w``.

    Fills a :class:`HessianStats` from the batch-mean gradient, a Hutchinson
    trace with k probes, and the centered tr(H Sigma) estimator, all sharing
    the batch Hessian action: one per-sample-gradient pass and three block
    Hessian applications (the probes, the centered gradients, and g_hat).
    """
    w = np.asarray(w, dtype=float)
    grads = task.per_sample_gradients(w, batch)
    g_hat = grads.mean(axis=0)
    action = lambda vs: task.hvp_block(w, batch, vs)
    trace = hutchinson_trace(action, task.dimension, k, rng)
    hs = trace_h_sigma(grads, g_hat, action)
    return HessianStats(
        tr_h=trace.estimate,
        tr_h_sigma=hs.estimate,
        g_h_g=quadratic_form(g_hat, action),
        g_norm_sq=float(g_hat @ g_hat),
        probe_count=k,
        standard_error_tr_h=trace.standard_error,
    )


STATS_CSV_HEADER = "iter,tr_H,tr_H_Sigma,gHg,g_norm_sq,decelerator"


def stats_csv(rows: list[tuple[int, HessianStats, float]]) -> str:
    """Render per-iteration curvature rows as CSV text.

    Each row is ``(iteration, stats, decelerator)``; callers supply the
    decelerator because it depends on the run's (sigma, c, B) context.
    """
    out = io.StringIO()
    out.write(STATS_CSV_HEADER + "\n")
    for iteration, stats, decel in rows:
        out.write(
            f"{iteration},{stats.tr_h!r},{stats.tr_h_sigma!r},"
            f"{stats.g_h_g!r},{stats.g_norm_sq!r},{decel!r}\n"
        )
    return out.getvalue()
