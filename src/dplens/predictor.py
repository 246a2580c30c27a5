"""Closed-form per-iteration loss-improvement predictors.

Under a second-order expansion of the objective, one step of privatized SGD
with learning rate eta, batch size B, clip scale c and noise multiplier
sigma improves the population loss in expectation by

    dL(eta) = eta c |G|^2
              - eta^2/2 (c^2 G^T H G + c^2 tr(H Sigma)/B + sigma^2 tr(H)/B^2).

Maximising over eta and normalising per processed sample yields

    dL*(B) = |G|^4 / (2 (B G^T H G + tr(H Sigma) + sigma^2 tr(H)/(B c^2))),

whose private-only extra denominator term sigma^2 tr(H)/(B c^2) (the
"decelerator") quantifies the slowdown caused by noising and clipping.
This module provides those forms, the induced optima (batch size,
public/private mixing ratio) and cumulative schedule comparisons.  Every
form reads one :class:`ImprovementInputs`; :meth:`ImprovementInputs.from_stats`
builds it from exact or measured curvature statistics.  The public special
case is sigma = 0: :func:`delta_l_pub_star` equals :func:`delta_l_priv_star`
there and reads no sigma.  :func:`denominator_pub` is the one source
of the noiseless part B G^T H G + tr(H Sigma) of the denominator of dL*(B),
and :func:`denominator` adds the decelerator to it.
The inputs hold no batch size: every form that depends on B takes it as an
argument, and the mixed public/private forms take the public and the private
batch sizes ``b_public`` and ``b_private``.  All functions are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from .hessian import HessianStats


class NonPositiveCurvatureError(ArithmeticError):
    """A denominator that the theory assumes positive is not."""


class NoInteriorOptimumError(ArithmeticError):
    """No interior optimum exists (noiseless improvement is monotone in B)."""


class SaddleOrDegenerateError(ArithmeticError):
    """The bivariate quadratic has no interior maximum."""


@dataclass(frozen=True)
class ImprovementInputs:
    """Scalar statistics parameterising every closed-form predictor."""

    g_norm_sq: float
    g_h_g: float
    tr_h: float
    tr_h_sigma: float
    sigma: float
    c: float = 1.0

    def __post_init__(self):
        if self.g_norm_sq < 0:
            raise ValueError("|G|^2 must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 < self.c <= 1.0:
            raise ValueError("clip scale c must lie in (0, 1]")

    @classmethod
    def from_stats(
        cls, stats: HessianStats, sigma: float, c: float = 1.0
    ) -> "ImprovementInputs":
        """Predictor inputs from exact or measured curvature statistics."""
        return cls(
            g_norm_sq=stats.g_norm_sq,
            g_h_g=stats.g_h_g,
            tr_h=stats.tr_h,
            tr_h_sigma=stats.tr_h_sigma,
            sigma=sigma,
            c=c,
        )


# -- single-route improvement forms -----------------------------------------


def delta_l_priv(eta: float, b: float, inputs: ImprovementInputs) -> float:
    """Expected one-step improvement of privatized SGD at learning rate eta, batch B."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if b <= 0:
        raise ValueError("batch size must be positive")
    c, sigma = inputs.c, inputs.sigma
    curvature = (
        c * c * inputs.g_h_g
        + c * c * inputs.tr_h_sigma / b
        + sigma * sigma * inputs.tr_h / (b * b)
    )
    return eta * c * inputs.g_norm_sq - 0.5 * eta * eta * curvature


def delta_l_priv_star(b: float, inputs: ImprovementInputs) -> float:
    """Per-sample improvement at the optimal learning rate, batch size B.

    Equals max_eta delta_l_priv(eta, B) / B; at sigma = 0 it is
    :func:`delta_l_pub_star`.
    """
    return _per_sample_star(b, inputs, denominator)


def delta_l_pub_star(b: float, inputs: ImprovementInputs) -> float:
    """Per-sample improvement of plain SGD at the optimal learning rate.

    Reads no sigma: it is :func:`delta_l_priv_star` at sigma = 0.
    """
    return _per_sample_star(b, inputs, denominator_pub)


def _per_sample_star(
    b: float,
    inputs: ImprovementInputs,
    denominator_of: Callable[[float, ImprovementInputs], float],
) -> float:
    """|G|^4 / (2 D) for the denominator D = ``denominator_of(b, inputs)``."""
    if b <= 0:
        raise ValueError("batch size must be positive")
    if inputs.g_norm_sq == 0.0:
        return 0.0
    denom = denominator_of(b, inputs)
    if denom <= 0:
        raise NonPositiveCurvatureError(
            f"denominator {denom:g} is not positive at B={b:g}"
        )
    return 0.5 * _g_fourth(inputs) / denom


def _g_fourth(inputs: ImprovementInputs) -> float:
    """|G|^4; an OverflowError that names it when a float cannot hold it."""
    try:
        return inputs.g_norm_sq**2
    except OverflowError as exc:
        raise OverflowError(
            f"|G|^4 overflows a float at g_norm_sq = {inputs.g_norm_sq:g}"
        ) from exc


def denominator(b: float, inputs: ImprovementInputs) -> float:
    """The denominator B G^T H G + tr(H Sigma) + sigma^2 tr(H)/(B c^2) of dL*(B)."""
    return denominator_pub(b, inputs) + decelerator(b, inputs)


def denominator_pub(b: float, inputs: ImprovementInputs) -> float:
    """The noiseless denominator B G^T H G + tr(H Sigma): the sigma = 0 case."""
    return b * inputs.g_h_g + inputs.tr_h_sigma


def decelerator(b: float, inputs: ImprovementInputs) -> float:
    """The private-only denominator term sigma^2 tr(H) / (B c^2) at batch size B."""
    return inputs.sigma**2 * inputs.tr_h / (b * inputs.c**2)


def optimal_batch_dp(inputs: ImprovementInputs) -> float:
    """Batch size maximising the private per-sample improvement.

    Balances the B G^T H G and decelerator terms:
    B* = sqrt(sigma^2 tr(H) / (c^2 G^T H G)).  At B* the private per-sample
    improvement equals the public one at batch size 2 B*.
    """
    if inputs.sigma == 0.0:
        raise NoInteriorOptimumError(
            "sigma = 0: noiseless improvement is monotone in B"
        )
    if inputs.g_h_g <= 0:
        raise NonPositiveCurvatureError("G^T H G must be positive")
    if inputs.tr_h <= 0:
        raise NonPositiveCurvatureError("tr(H) must be positive")
    return math.sqrt(inputs.sigma**2 * inputs.tr_h / (inputs.c**2 * inputs.g_h_g))


# -- mixed public/private training -------------------------------------------


def mixed_quadratic_coefficients(
    inputs: ImprovementInputs, b_public: float, b_private: float
) -> tuple[float, float, float, float, float]:
    """Coefficients (A, B, C, D, E) of the bivariate improvement quadratic.

    The improvement as a function of the split learning rates
    (eta_pub, eta_priv) is -(A eta_pub^2 + B eta_priv^2 + C eta_pub
    + D eta_priv + E eta_pub eta_priv).  The public mini-batch has
    ``b_public`` samples and the private one ``b_private``.
    """
    if b_public <= 0:
        raise ValueError("public batch size must be positive")
    if b_private <= 0:
        raise ValueError("private batch size must be positive")
    c = inputs.c
    a = 0.5 * inputs.g_h_g + 0.5 * inputs.tr_h_sigma / b_public
    b = (
        0.5 * c * c * inputs.g_h_g
        + 0.5 * c * c * inputs.tr_h_sigma / b_private
        + 0.5 * inputs.sigma**2 * inputs.tr_h / b_private**2
    )
    c_lin = -inputs.g_norm_sq
    d_lin = -c * inputs.g_norm_sq
    e = c * inputs.g_h_g
    return a, b, c_lin, d_lin, e


def mixed_improvement(
    eta0: float, eta1: float, inputs: ImprovementInputs, b_public: float, b_private: float
) -> float:
    """Expected one-step improvement of the mixed gradient.

    ``eta0`` scales the public mini-batch mean, ``eta1`` the privatized
    private gradient; at eta0 = 0 this is the private-only improvement and
    at eta1 = 0 the public-only one.
    """
    if eta0 < 0 or eta1 < 0:
        raise ValueError("split learning rates must be nonnegative")
    a, b, c_lin, d_lin, e = mixed_quadratic_coefficients(inputs, b_public, b_private)
    return -(
        a * eta0 * eta0
        + b * eta1 * eta1
        + c_lin * eta0
        + d_lin * eta1
        + e * eta0 * eta1
    )


def _mixed_stationary_point(
    inputs: ImprovementInputs, b_public: float, b_private: float
) -> tuple[float, float, float]:
    a, b, c_lin, d_lin, e = mixed_quadratic_coefficients(inputs, b_public, b_private)
    det = 4.0 * a * b - e * e
    if det <= 0 or a <= 0:
        raise SaddleOrDegenerateError(
            "the improvement quadratic has no interior maximum"
        )
    eta0 = -(2.0 * b * c_lin - d_lin * e) / det
    eta1 = -(2.0 * a * d_lin - c_lin * e) / det
    # c_lin^2 is |G|^4, and d_lin^2 = c^2 |G|^4 fits wherever it does, as c <= 1
    value = (b * _g_fourth(inputs) + a * d_lin**2 - c_lin * d_lin * e) / det
    return eta0, eta1, value


def optimal_mixed_improvement(
    inputs: ImprovementInputs, b_public: float, b_private: float
) -> float:
    """Improvement at the jointly optimal split learning rates.

    Restricted to one gradient, the optimum is ``b_public *``
    :func:`delta_l_pub_star` at ``b_public`` (public only) or ``b_private *``
    :func:`delta_l_priv_star` at ``b_private`` (private only).
    """
    return _mixed_stationary_point(inputs, b_public, b_private)[2]


def optimal_mix_alpha(
    inputs: ImprovementInputs, b_public: float, b_private: float
) -> float:
    """Optimal public weight alpha* = eta0* / (eta0* + eta1*).

    Strictly interior in (0, 1) whenever the quadratic has an interior
    maximum: both data kinds help.  Out-of-range values under extreme
    inputs are clamped with a warning.
    """
    eta0, eta1, _ = _mixed_stationary_point(inputs, b_public, b_private)
    total = eta0 + eta1
    if total <= 0:
        raise SaddleOrDegenerateError("optimal split learning rates are degenerate")
    alpha = eta0 / total
    if not 0.0 <= alpha <= 1.0:
        warnings.warn(
            f"optimal alpha {alpha:g} outside [0, 1]; clamping", stacklevel=2
        )
        alpha = min(max(alpha, 0.0), 1.0)
    return alpha


# -- cumulative schedules ------------------------------------------------------


@dataclass(frozen=True)
class ScheduleComparison:
    mixed_sum: float
    public_sum: float
    gap: float


def schedule_cumulative(
    stats_sequence: Sequence[ImprovementInputs], b: float, s: float
) -> ScheduleComparison:
    """Cumulative optimal improvement of a public-then-private schedule.

    Sums the per-sample optimal improvements at batch size B over the
    iteration sequence, activating each step's decelerator only from
    iteration s*T onward, and compares against the fully public sum.  The
    gap is exactly the total improvement forfeited to the decelerator.
    """
    if len(stats_sequence) == 0:
        raise ValueError("need a nonempty sequence")
    if not 0.0 <= s <= 1.0:
        raise ValueError("switch fraction s must lie in [0, 1]")
    total = len(stats_sequence)
    cutoff = s * total
    mixed = 0.0
    public = 0.0
    for t, inputs in enumerate(stats_sequence):
        pub_t = delta_l_pub_star(b, inputs)
        public += pub_t
        if t < cutoff:
            mixed += pub_t
        else:
            mixed += delta_l_priv_star(b, inputs)
    return ScheduleComparison(mixed_sum=mixed, public_sum=public, gap=public - mixed)
