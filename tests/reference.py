"""Reference implementations the tests compare the package against.

Each is the plain, per-sample form of something the package computes in a
vectorised or fused way: the scalar clip factor, the privatized gradient of
an explicit per-sample gradient matrix, and the empirical gradient moments.
"""

import numpy as np

from dplens.clipping import clip_weights, noised_mean, weighted_gradient_sums


def clip_factor(g_norm, rule):
    """Scalar C multiplying a per-sample gradient of the given norm.

    A zero-norm gradient under AUTO clipping returns 0.0: the sample's
    contribution C * g is the zero vector either way, and this keeps the
    factor finite for downstream averaging.
    """
    if g_norm < 0:
        raise ValueError("gradient norm must be nonnegative")
    if rule.kind == "auto":
        return 0.0 if g_norm == 0.0 else 1.0 / g_norm
    if g_norm == 0.0:
        return 1.0 / rule.r
    return min(1.0 / g_norm, 1.0 / rule.r)


def privatize_gradient(per_sample_grads, rule, sigma, rng=None):
    """Clipped, noised, batch-averaged gradient of an explicit ``(B, d)`` matrix.

    Returns ``(sum_i C_i g_i + sigma * N(0, I_d)) / B``.  With ``rule=None``
    the raw per-sample gradients are summed (no clipping).  With ``sigma=0``
    no noise is drawn and the generator is left untouched.
    """
    grads = np.atleast_2d(np.asarray(per_sample_grads, dtype=float))
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise ValueError("need a nonempty batch of 1-D gradients")
    total = weighted_gradient_sums(grads, clip_weights(rule))
    return noised_mean(total, grads.shape[0], sigma, rng)


def empirical_moments(task, w, m, rng):
    """Sample mean and unbiased covariance of ``m`` drawn per-sample gradients.

    Returns ``(g_hat, sigma_hat)`` with the (m - 1)-denominator covariance;
    converges to the exact (G, Sigma) of a QuadraticTask as m grows.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples for a covariance, got m={m}")
    batch = task.draw_batch(rng, m)
    grads = task.per_sample_gradients(w, batch)
    g_hat = grads.mean(axis=0)
    centered = grads - g_hat[None, :]
    sigma_hat = centered.T @ centered / (m - 1)
    return g_hat, sigma_hat
