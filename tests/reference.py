"""Reference implementations the tests compare the package against.

Each is the plain, per-sample form of something the package computes in a
vectorised or fused way: the stacked per-sample gradients of each task, the
Hessian forms along any block of directions and along those stacked
gradients, the scalar clip factor, the privatized gradient of an explicit
per-sample gradient matrix, the empirical gradient moments, the improvement
oracle that stacks each chunk's ``(trials, B, d)`` gradients at once and
runs the chunks one after another, the end state of a generator, the
quadratic task's formulas on the dense ``(d, d)`` matrices of its
diagonal A and S, and the plain, allocating expressions of the MLP passes,
the Adam step and the noise step that the package computes in place.
"""

import numpy as np

from dplens.clipping import clip_weights, noised_mean, weighted_gradient_sums
from dplens.hessian import HessianStats
from dplens.model import LogisticTask, QuadraticTask, TinyMlpTask, _row_sq_norms, _sigmoid


def _mlp_factors(task, w, batch):
    """Inputs x, hidden activations h, residuals r and hidden errors delta of
    sample loss 0.5 |W2 h + b2 - y|^2 with h = tanh(W1 x + b1), as ``forward``."""
    w1, b1, w2, b2 = task._unpack(w)
    x, y = batch
    h = np.tanh(x @ w1.T + b1)
    r = h @ w2.T + b2 - y
    return x, h, r, (r @ w2) * (1.0 - h * h)


def per_sample_gradients(task, w, batch):
    """The ``(m, d)`` per-sample gradients of a batch, one row per sample."""
    w = np.asarray(w, dtype=float)
    if isinstance(task, QuadraticTask):
        return DenseQuadratic(task).per_sample_gradients(w, batch)
    if isinstance(task, LogisticTask):
        x = task.features[batch]
        return (_sigmoid(x @ w) - task.labels[batch])[:, None] * x
    if isinstance(task, TinyMlpTask):
        x, h, r, delta = _mlp_factors(task, w, batch)
        outer = [np.einsum("mi,mj->mij", u, v).reshape(len(x), -1) for u, v in ((delta, x), (r, h))]
        return np.concatenate([outer[0], delta, outer[1], r], axis=1)
    raise TypeError(f"no per-sample gradients for {type(task).__name__}")


def hessian_forms(task, w, batch, vs):
    """The ``(k,)`` forms ``v_j^T H v_j`` of the mean batch loss at ``w``, for
    the rows ``v_j`` of the ``(k, d)`` block ``vs``.

    The quadratic's are ``v^T A v`` on the dense A; the logistic's are
    ``(1/m) sum_i p_i (1 - p_i) (v . x_i)^2``; the MLP's come from one
    forward R-pass along each row (Pearlmutter 1994), as ``TinyMlpTask``'s
    docstring derives them, with every direction's rates held at once.
    """
    w = np.asarray(w, dtype=float)
    if isinstance(task, QuadraticTask):
        return DenseQuadratic(task).hessian_forms(vs)
    if isinstance(task, LogisticTask):
        x = task.features[batch]
        p = _sigmoid(x @ w)
        return ((vs @ x.T) ** 2 * (p * (1.0 - p))).sum(axis=1) / len(x)
    if isinstance(task, TinyMlpTask):
        x, h, r, delta = _mlp_factors(task, w, batch)
        w2 = task._unpack(w)[2]
        v1, c1, v2, c2 = task._unpack(vs)
        # rates of every sample along every row, shapes (k, m, hidden) and (k, m, n_out)
        dz1 = np.einsum("mi,khi->kmh", x, v1) + c1[:, None, :]
        dh = (1.0 - h * h) * dz1
        dout = dh @ w2.T + np.einsum("mh,koh->kmo", h, v2) + c2[:, None, :]
        forms = (
            np.einsum("kmo,kmo->k", dout, dout)
            + 2.0 * np.einsum("mo,koh,kmh->k", r, v2, dh)
            - 2.0 * np.einsum("mh,kmh->k", delta * h, dz1 * dz1)
        )
        return forms / len(x)
    raise TypeError(f"no Hessian forms for {type(task).__name__}")


def trace_from_forms(task, w, batch):
    """tr(H) as the sum of the forms on the identity."""
    return hessian_forms(task, w, batch, np.eye(task.dimension)).sum()


def stacked_gradient_hessian_forms(task, w, batch):
    """``gradient_hessian_forms`` from the stacked per-sample gradients.

    One :func:`hessian_forms` call on the centered rows and ``g_hat`` gives
    the centered forms and ``g_hat^T H g_hat``; a second one, on the
    identity, gives tr(H).
    """
    grads = per_sample_gradients(task, w, batch)
    g_hat = grads.mean(axis=0)
    forms = hessian_forms(task, w, batch, np.vstack([grads - g_hat[None, :], g_hat]))
    return g_hat, forms[:-1], float(forms[-1]), trace_from_forms(task, w, batch)


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
    grads = per_sample_gradients(task, w, batch)
    g_hat = grads.mean(axis=0)
    centered = grads - g_hat[None, :]
    sigma_hat = centered.T @ centered / (m - 1)
    return g_hat, sigma_hat


def stacked_improvement_oracle(task, w, etas, b, rule, sigmas, trials, rng):
    """``trainer.empirical_improvement_oracle`` with each chunk's gradients
    stacked as one ``(n, B, d)`` array, as the oracle computed them before it
    reduced them block by block, and with the chunks run one after another,
    each drawing from its own generator of ``rng.spawn(n_chunks)``: its
    samples' gradients, by ``task.draw_gradients`` into one new array, then
    the noise of each sigma in turn.  Returns the improvement's (estimate,
    standard error) per sigma, per eta."""
    w = np.asarray(w, dtype=float)
    d = task.dimension
    loss_before = task.population_loss(w)
    chunk = max(1, int(2_000_000 / (b * d)))  # bound transient memory
    starts = range(0, trials, chunk)
    pieces = [[[] for _ in etas] for _ in sigmas]
    for done, stream in zip(starts, rng.spawn(len(starts))):
        n = min(chunk, trials - done)
        grads = task.draw_gradients(stream, w, np.empty((n * b, d))).reshape(n, b, d)
        totals = weighted_gradient_sums(grads, clip_weights(rule))
        for sigma, row in zip(sigmas, pieces):
            steps = noised_mean(totals, b, sigma, stream)
            for eta, cell in zip(etas, row):
                w_next = w[None, :] - eta * steps
                cell.append(loss_before - task.population_losses(w_next))
    return [
        [
            (float(improvements.mean()), float(improvements.std(ddof=1) / np.sqrt(trials)))
            for improvements in map(np.concatenate, row)
        ]
        for row in pieces
    ]


def generator_end_state(rng):
    """The bit generator's state and the number of children spawned from
    its seed sequence: what an oracle call may move of its ``rng``."""
    return rng.bit_generator.state, rng.bit_generator.seed_seq.n_children_spawned


class DenseQuadratic:
    """A ``QuadraticTask``'s formulas on the dense matrices ``A = diag(a)``
    and ``S = diag(s)``: a draw through the ``eigh`` factor F of S, products
    with A, and traces of matrix products.  Drawn gradients take the task's
    closed form ``c - (A F) z``, with ``c = A (w - x_mean)``.

    Each entry of these products has one nonzero term, so every result equals
    the task's elementwise one bit for bit whenever ``eigh`` keeps the order
    of S's diagonal: for S a scale times I or a sorted diagonal, as a config
    builds it.  An unsorted diagonal is drawn in ``eigh``'s ascending order.
    """

    def __init__(self, task):
        self.dimension = task.dimension
        self.x_mean = task.x_mean
        self.a = np.diag(task.a)
        self.s = np.diag(task.s)
        vals, vecs = np.linalg.eigh(self.s)
        self.s_factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
        self.sigma = self.a @ self.s @ self.a.T
        self.noise_loss = 0.5 * float(np.trace(self.a @ self.s))

    def draw_batch(self, rng, m):
        z = rng.standard_normal((m, self.dimension))
        return self.x_mean[None, :] + z @ self.s_factor.T

    def draw_gradients(self, rng, w, out):
        z = rng.standard_normal(out.shape)
        out[...] = self.population_gradient(w)[None, :] - z @ (self.a @ self.s_factor).T
        return out

    def per_sample_gradients(self, w, batch):
        return (w[None, :] - np.atleast_2d(batch)) @ self.a

    def batch_loss(self, w, batch):
        r = w[None, :] - np.atleast_2d(batch)
        return 0.5 * float(np.mean(np.einsum("ij,ij->i", r @ self.a, r)))

    def weighted_gradient_sum(self, w, batch, weight_of_norms):
        """``sum_i C_i g_i`` with the norms from ``np.linalg.norm``."""
        grads = self.per_sample_gradients(w, batch)
        if weight_of_norms is None:
            return grads.sum(axis=0)
        factors = weight_of_norms(np.linalg.norm(grads, axis=-1))
        return np.einsum("i,ij->j", factors, grads)

    def hessian_forms(self, vs):
        return np.einsum("ij,ij->i", vs, vs @ self.a)

    def population_gradient(self, w):
        return self.a @ (w - self.x_mean)

    def population_loss(self, w):
        return float(self.population_losses(w[None, :])[0])

    def population_losses(self, ws):
        r = np.atleast_2d(ws) - self.x_mean[None, :]
        return 0.5 * np.einsum("ij,ij->i", r @ self.a, r) + self.noise_loss

    def population_stats(self, w):
        g = self.population_gradient(w)
        return HessianStats(
            tr_h=float(np.trace(self.a)),
            tr_h_sigma=float(np.trace(self.a @ self.sigma)),
            g_h_g=float(g @ self.a @ g),
            g_norm_sq=float(g @ g),
            standard_error_tr_h=0.0,
        )


# the plain expressions of the in-place passes -------------------------------


def mlp_forward(task, w, x):
    """``TinyMlpTask.forward`` as one expression."""
    w1, b1, w2, b2 = task._unpack(w)
    return np.tanh(x @ w1.T + b1) @ w2.T + b2


def mlp_batch_loss(task, w, batch):
    """``TinyMlpTask.batch_loss`` as one expression."""
    resid = mlp_forward(task, w, batch[0]) - batch[1]
    return 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))


def mlp_draw_batch(task, rng, m):
    """``TinyMlpTask.draw_batch`` with the label noise added as one expression."""
    x = rng.standard_normal((m, task.n_in))
    y = mlp_forward(task, task._teacher, x)
    if task.noise_std > 0.0:
        y = y + task.noise_std * rng.standard_normal(y.shape)
    return x, y


def _mlp_gradient_sum(task, x, h, r, delta):
    return task._pack(delta.T @ x, delta.sum(axis=0), r.T @ h, r.sum(axis=0))


def mlp_loss_and_weighted_gradient_sum(task, w, batch, weight_of_norms):
    """``TinyMlpTask.loss_and_weighted_gradient_sum``, each step a new array."""
    x, h, r, delta = _mlp_factors(task, w, batch)
    loss = 0.5 * float(np.mean(np.sum(r * r, axis=1)))
    if weight_of_norms is not None:
        sq_norms = _row_sq_norms(delta) * (_row_sq_norms(x) + 1.0)
        sq_norms += _row_sq_norms(r) * (_row_sq_norms(h) + 1.0)
        weights = weight_of_norms(np.sqrt(sq_norms))[:, None]
        delta = weights * delta
        r = weights * r
    return loss, _mlp_gradient_sum(task, x, h, r, delta)


def mlp_gradient_hessian_forms(task, w, batch):
    """``TinyMlpTask.gradient_hessian_forms``, each step a new array, with the
    same chunks of sample rows."""
    w2 = task._unpack(w)[2]
    x, hidden, resid, g_z1 = _mlp_factors(task, w, batch)
    m = x.shape[0]
    slope = 1.0 - hidden * hidden
    curve = -2.0 * g_z1 * hidden
    per_unit = (slope * slope) @ np.einsum("oh,oh->h", w2, w2)
    per_unit -= 2.0 * np.einsum("jh,jh->j", g_z1, hidden)
    traces = task.n_out * (_row_sq_norms(hidden) + 1.0) + (_row_sq_norms(x) + 1.0) * per_unit
    g_hat = _mlp_gradient_sum(task, x, hidden, resid, g_z1) / m
    v1, c1, v2, c2 = task._unpack(g_hat)
    mu = x @ v1.T + c1
    s_mu = slope * mu
    e = s_mu @ w2.T
    e += hidden @ v2.T + c2
    rho = resid @ v2
    shared = 2.0 * np.vdot(rho, s_mu) + np.vdot(curve, mu * mu)
    forms = np.empty(m)
    rows = max(1, task.CHUNK_FLOATS // (m * task.n_out))
    for start in range(0, m, rows):
        part = slice(start, start + rows)
        delta, h_i, r_i = g_z1[part], hidden[part], resid[part]
        k = x[part] @ x.T + 1.0
        ka = h_i @ hidden.T + 1.0
        r_out = (
            k * ((w2[:, None, :] * delta) @ slope.T)
            + ka * r_i.T[:, :, None]
            - e.T[:, None, :]
        )
        cross = (r_i @ resid.T) * (k * ((h_i * delta) @ slope.T) - h_i @ s_mu.T)
        cross -= k * (delta @ (rho * slope).T)
        curv = k * (k * ((delta * delta) @ curve.T) - 2.0 * (delta @ (curve * mu).T))
        forms[part] = np.einsum("oim,oim->i", r_out, r_out) + (2.0 * cross + curv).sum(axis=1)
    g_h_g = float((np.vdot(e, e) + shared) / m)
    return g_hat, (forms + shared) / m, g_h_g, float(traces.mean())


def adam_direction(g, state):
    """The Adam branch of ``trainer.optimizer_direction`` on a gradient ``g``,
    with the usual beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-8: the
    direction and the new ``(t, m, v)``."""
    t = state.t + 1
    m = 0.9 * state.m + (1.0 - 0.9) * g
    v = 0.999 * state.v + (1.0 - 0.999) * g * g
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return m_hat / (np.sqrt(v_hat) + 1e-8), (t, m, v)


def plain_noised_mean(totals, b, sigma, rng):
    """``clipping.noised_mean`` for ``sigma > 0`` as one expression."""
    return (totals + sigma * rng.standard_normal(totals.shape)) / b
