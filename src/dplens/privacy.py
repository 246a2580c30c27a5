"""Gaussian differential privacy accounting.

Implements the mu <-> (epsilon, delta) duality

    delta(eps; mu) = Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2),

the GDP parameter of subsampled noisy SGD with unit per-step sensitivity

    mu = (B/n) * sqrt(T * (e^(1/sigma^2) - 1)),

and the exact noise calibration obtained by inverting the two maps.

delta itself underflows to 0 in double precision for strong privacy at large
epsilon, so the duality is also provided in log(delta), which stays finite
and keeps mu recoverable across the whole mu range, including where delta is
within rounding of 1.  The plain (epsilon, delta) functions remain the
primary interface.

log Phi is :func:`log_ndtr`, built on ``math.erfc`` and, in the far lower
tail, the Mills-ratio series, so accounting loads nothing beyond the
standard library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

MU_BRACKET = (1e-8, 1e4)
SIGMA_MAX = 1e6
_BISECTION_STEPS = 200
_LOG_SMALLEST_NORMAL = math.log(sys.float_info.min)


class CalibrationError(ArithmeticError):
    """Privacy calibration cannot reach the requested target."""


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential privacy target.

    When a dataset size is attached, delta must be smaller than 1/n.
    """

    epsilon: float
    delta: float
    dataset_size: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly in (0, 1)")
        if self.dataset_size is not None and self.delta >= 1.0 / self.dataset_size:
            raise ValueError("delta must be below 1/n for a dataset of size n")


def _log1mexp(q: float) -> float:
    """log(1 - e^q) for q < 0, stable across the whole range."""
    if q < -math.log(2.0):
        return math.log1p(-math.exp(q))
    return math.log(-math.expm1(q))


_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_ndtr(a: float) -> float:
    """log Phi(a), the log of the standard normal CDF, for every float ``a``.

    Above -1, log1p(-Q(a)) with the upper tail Q(a) = erfc(a/sqrt 2)/2 keeps
    the relative accuracy of log Phi near 0; on (-20, -1], Phi(a) =
    erfc(-a/sqrt 2)/2 is accurate as it stands; below -20, where erfc nears
    underflow, log Phi(a) = -a^2/2 - log(-a sqrt(2 pi)) + log(1 - 1/a^2 +
    3/a^4 - ...), and the first nine terms of that Mills-ratio series leave
    an error below 2e-16 at a = -20, less further out.
    """
    if a > -1.0:
        return math.log1p(-0.5 * math.erfc(a * _SQRT_HALF))
    if a > -20.0:
        return math.log(0.5 * math.erfc(-a * _SQRT_HALF))
    # the series' coefficients are (-1)^k (2k - 1)!!, in Horner form in 1/a^2
    x = 1.0 / (a * a)
    series = 1.0 + x * (-1.0 + x * (3.0 + x * (-15.0 + x * (105.0 + x * (
        -945.0 + x * (10395.0 + x * (-135135.0 + x * 2027025.0)))))))
    return -0.5 * a * a - _LOG_SQRT_2PI - math.log(-a) + math.log(series)


def mu_to_log_delta(mu: float, epsilon: float) -> float:
    """log delta(eps; mu), finite even where delta underflows to zero.

    Writes delta = Phi(a) * (1 - exp(q)) with q = eps + log Phi(b) - log Phi(a),
    which is exact in exact arithmetic and avoids the subtractive cancellation
    of the direct formula in the deep-tail regime.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    a = -epsilon / mu + mu / 2.0
    b = -epsilon / mu - mu / 2.0
    log_a = log_ndtr(a)
    q = epsilon + log_ndtr(b) - log_a
    # q < 0 always (delta > 0); guard rounding that pushes it to 0
    q = min(q, -1e-17)
    return log_a + _log1mexp(q)


def mu_to_delta(mu: float, epsilon: float) -> float:
    """delta(eps; mu) of the Gaussian-DP duality; increasing in mu.

    A delta below the smallest normal double reads 0.0: a subnormal keeps too
    few significant bits for :func:`delta_to_mu` to recover mu from it.
    """
    log_delta = mu_to_log_delta(mu, epsilon)
    if log_delta < _LOG_SMALLEST_NORMAL:
        return 0.0
    return math.exp(log_delta)


def delta_to_mu(epsilon: float, delta: float) -> float:
    """Inverse duality: the mu whose delta(eps; mu) equals the target.

    Bisection on the monotone map over mu in [1e-8, 1e4]; the returned mu
    reproduces delta to well below 1e-10 wherever delta is representable.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly in (0, 1)")
    return log_delta_to_mu(epsilon, math.log(delta))


def log_delta_to_mu(epsilon: float, log_delta: float) -> float:
    """Inverse duality parameterised by log delta (increasing in mu)."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if log_delta >= 0.0:
        raise ValueError("log delta must be negative")
    lo, hi = MU_BRACKET
    if mu_to_log_delta(lo, epsilon) > log_delta or mu_to_log_delta(hi, epsilon) < log_delta:
        raise CalibrationError(
            f"no mu in [{lo:g}, {hi:g}] attains log delta={log_delta:g} "
            f"at epsilon={epsilon:g}"
        )
    for _ in range(_BISECTION_STEPS):
        mid = math.sqrt(lo * hi)  # log-space midpoint: the bracket spans decades
        if mu_to_log_delta(mid, epsilon) >= log_delta:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def mu_of_noisy_sgd(b: int, n: int, t: int, sigma: float) -> float:
    """GDP parameter of T uniformly subsampled unit-sensitivity noisy steps."""
    if b <= 0 or n <= 0 or t <= 0:
        raise ValueError("B, n, T must be positive")
    if b > n:
        raise ValueError("batch size B cannot exceed dataset size n")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return (b / n) * math.sqrt(t * math.expm1(1.0 / sigma**2))


def calibrate_sigma(b: int, n: int, s: int, budget: PrivacyBudget) -> float:
    """Smallest noise multiplier meeting the budget over a sample budget S.

    The iteration count is T = ceil(S/B); inverting the subsampled-GDP
    parameter gives the closed form sigma = 1/sqrt(log1p((mu n / B)^2 / T)).
    Raises :class:`CalibrationError` when no sigma <= 1e6 suffices.
    """
    if b <= 0 or n <= 0 or s <= 0:
        raise ValueError("B, n, S must be positive")
    if b > n:
        raise ValueError("batch size B cannot exceed dataset size n")
    t = math.ceil(s / b)
    mu = delta_to_mu(budget.epsilon, budget.delta)
    arg = (mu * n / b) ** 2 / t
    inv_sq = math.log1p(arg)
    if inv_sq <= 0.0:
        raise CalibrationError("degenerate privacy target")
    sigma = 1.0 / math.sqrt(inv_sq)
    if sigma > SIGMA_MAX:
        raise CalibrationError(
            f"required sigma {sigma:g} exceeds the feasibility cap {SIGMA_MAX:g}"
        )
    return sigma


def sigma_sq_over_b(b: int, n: int, s: int, budget: PrivacyBudget) -> float:
    """Exact calibrated sigma(B)^2 / B at the given budget."""
    return calibrate_sigma(b, n, s, budget) ** 2 / b


def sigma_sq_over_b_expansion(b: int, n: int, s: int, mu: float) -> float:
    """Two-term large-batch expansion S/(mu^2 n^2) + 1/(2B) of sigma^2/B."""
    if b <= 0 or n <= 0 or s <= 0 or mu <= 0:
        raise ValueError("B, n, S, mu must be positive")
    return s / (mu**2 * n**2) + 0.5 / b
