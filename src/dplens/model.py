"""Synthetic differentiable tasks with a batched training pass and curvature pass.

Every task exposes the same batched surface, the methods the training loops
and the curvature snapshot call: the mean batch loss (``batch_loss``), the
fused training-step pass (``loss_and_weighted_gradient_sum``: mean batch loss
and a norm-weighted sum of per-sample gradients), the curvature pass
(``gradient_hessian_forms``: the batch gradient, the Hessian forms of its
centered per-sample gradients, and the exact trace of the Hessian of the mean
batch loss), seeded batch drawing, and a seeded start (``random_parameters``).
Each task has its own closed forms for them; the logistic and MLP ones never
build the ``(m, d)`` matrix of per-sample gradients.

No method builds the Hessian H or a product ``H v``.  The snapshot reads H
through the forms ``v^T H v`` along the batch's own centered gradients and
its mean gradient, and through tr(H), which each task gives in closed form
from the factors of the same pass.  ``tests/reference.py`` computes the
forms along any block of directions from the stacked per-sample gradients,
and the tests check the curvature pass against it.

The quadratic task additionally carries exact population oracles (gradient,
Hessian, per-sample gradient covariance) and its closed-form per-sample
gradients, so that every stochastic estimator in this package can be checked
against ground truth.  Its A and S are diagonal, held as ``(d,)`` vectors, so
every product is elementwise.  :func:`population_stats`
gives its exact statistics as the same :class:`~dplens.hessian.HessianStats`
that a measured snapshot fills, with a zero standard error.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from .clipping import NormWeights, weighted_gradient_sums
from .hessian import HessianStats

Array = np.ndarray


def _as_diagonal(values: Array, name: str) -> Array:
    """The ``(d,)`` diagonal of a diagonal PSD matrix, checked entry by entry."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be given as its (d,) diagonal, got shape {values.shape}")
    # NaN fails both comparisons
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError(f"{name} must have finite nonnegative diagonal entries")
    return values


class DifferentiableTask(abc.ABC):
    """A loss landscape with a fused gradient pass and a curvature pass.

    Instances are immutable after construction and safe for concurrent
    reads; all randomness flows through caller-owned generators.
    """

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Number of trainable parameters."""

    @abc.abstractmethod
    def batch_loss(self, w: Array, batch: Any) -> float:
        """Mean loss over a batch."""

    @abc.abstractmethod
    def loss_and_weighted_gradient_sum(
        self, w: Array, batch: Any, weight_of_norms: NormWeights | None = None
    ) -> tuple[float, Array]:
        """Mean batch loss and ``sum_i C_i g_i`` over the batch's per-sample gradients.

        ``C = weight_of_norms(norms)`` maps the ``(m,)`` per-sample gradient
        norms to weights; with ``None`` the sum is the plain ``sum_i g_i``.
        The loss is bit-identical to :meth:`batch_loss`.
        """

    @abc.abstractmethod
    def gradient_hessian_forms(
        self, w: Array, batch: Any
    ) -> tuple[Array, Array, float, float]:
        """Batch gradient ``g_hat``, centered forms, ``g_hat^T H g_hat`` and tr(H).

        The centered forms are the ``(m,)`` values
        ``(g_i - g_hat)^T H (g_i - g_hat)`` over the batch's per-sample
        gradients ``g_i``, with H the Hessian of the mean batch loss, and
        ``tr_h`` is the exact trace of H, the sum of the forms on the unit
        directions.  All four come from one pass and equal, up to rounding,
        the reference in ``tests/reference.py`` that forms them from the
        stacked per-sample gradients.
        """

    @abc.abstractmethod
    def draw_batch(self, rng: np.random.Generator, m: int) -> Any:
        """Draw ``m`` samples as a batch."""

    def random_parameters(self, rng: np.random.Generator) -> Array:
        """A run's starting point, 0.1 N(0, I)."""
        return 0.1 * rng.standard_normal(self.dimension)

    def _check_dim(self, w: Array) -> Array:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dimension,):
            raise ValueError(
                f"parameter vector has shape {w.shape}, expected ({self.dimension},)"
            )
        return w


class QuadraticTask(DifferentiableTask):
    """Gaussian-data quadratic: per-sample loss ``0.5 (w - x)^T A (w - x)``.

    Samples are drawn from N(x_mean, S).  A and S are diagonal, held as
    their finite, nonnegative ``(d,)`` diagonals ``a`` and ``s``: every
    config builds them so, and the norms, the isotropic noise and the traces
    that the oracle checks do not depend on the basis, so this covers any A
    and S with shared eigenvectors.  Every product is elementwise, O(m d) a
    batch, with one nonzero term per entry of the dense formulas that
    ``tests/reference.py`` keeps, so both give the same bytes.  Exact oracles:

    * population gradient  G(w) = A (w - x_mean)
    * population Hessian   H = A
    * gradient covariance  Sigma = A S A, diagonal too
    * population loss      0.5 (w - x_mean)^T A (w - x_mean) + 0.5 tr(A S)

    A sample is ``x = sqrt(S) z + x_mean`` with z standard normal, so its
    gradient is ``A (w - x) = c - D z`` with ``c = A (w - x_mean)`` and
    ``D = A sqrt(S)``.  :meth:`draw_gradients` draws the gradients of fresh
    samples in that form, from the normals ``draw_batch`` would draw, into
    the caller's array; D is computed once, here.
    """

    def __init__(self, a: Array, x_mean: Array, s: Array):
        self.a = _as_diagonal(a, "A")
        d = self.a.shape[0]
        self.x_mean = np.asarray(x_mean, dtype=float)
        if self.x_mean.shape != (d,):
            raise ValueError(f"x_mean shape {self.x_mean.shape} != ({d},)")
        if not np.all(np.isfinite(self.x_mean)):
            raise ValueError("x_mean must have finite entries")
        self.s = _as_diagonal(s, "S")
        if self.s.shape != (d,):
            raise ValueError("S dimension mismatch with A")
        self._d = d
        self._s_sqrt = np.sqrt(self.s)
        self._a_s_sqrt = self.a * self._s_sqrt

    @property
    def dimension(self) -> int:
        return self._d

    def _residuals(self, w: Array, batch: Array) -> Array:
        """The rows ``w - x_i``, a new array; sample i's gradient is ``A (w - x_i)``."""
        w = self._check_dim(w)
        return w[None, :] - np.atleast_2d(np.asarray(batch, dtype=float))

    def batch_loss(self, w: Array, batch: Array) -> float:
        r = self._residuals(w, batch)
        return 0.5 * float(np.mean(np.einsum("ij,ij->i", r * self.a, r)))

    def loss_and_weighted_gradient_sum(
        self, w: Array, batch: Array, weight_of_norms: NormWeights | None = None
    ) -> tuple[float, Array]:
        r = self._residuals(w, batch)
        grads = r * self.a
        loss = 0.5 * float(np.mean(np.einsum("ij,ij->i", grads, r)))
        return loss, weighted_gradient_sums(grads, weight_of_norms)

    def gradient_hessian_forms(
        self, w: Array, batch: Array
    ) -> tuple[Array, Array, float, float]:
        grads = self._residuals(w, batch)
        grads *= self.a
        g_hat = grads.mean(axis=0)
        # v^T A v of the centered rows and of g_hat, stacked
        vs = np.vstack([grads - g_hat[None, :], g_hat])
        forms = np.einsum("ij,ij->i", vs, vs * self.a)
        return g_hat, forms[:-1], float(forms[-1]), float(self.a.sum())

    def draw_batch(self, rng: np.random.Generator, m: int) -> Array:
        z = rng.standard_normal((m, self._d))
        z *= self._s_sqrt
        z += self.x_mean
        return z

    def draw_gradients(self, rng: np.random.Generator, w: Array, out: Array) -> Array:
        """Fill the ``(m, d)`` array ``out`` with the per-sample gradients of m
        fresh samples at ``w``, and return it.

        ``out`` first holds the normals z that ``draw_batch(rng, m)`` draws,
        in the same order, so the generator ends where that call leaves it;
        two in-place passes then make each row ``c - D z`` (class docstring).
        These are the gradients ``A (w - x_i)`` of ``draw_batch(rng, m)``'s
        samples up to the last bits, and exactly them when A = 2^k I and x_mean = 0.
        """
        c = self.population_gradient(w)
        rng.standard_normal(out=out)
        out *= self._a_s_sqrt
        np.subtract(c, out, out=out)
        return out

    # exact oracles -------------------------------------------------------

    def population_gradient(self, w: Array) -> Array:
        w = self._check_dim(w)
        return self.a * (w - self.x_mean)

    def gradient_covariance(self) -> Array:
        """The ``(d,)`` diagonal of Sigma = A S A."""
        return (self.a * self.s) * self.a

    def population_loss(self, w: Array) -> float:
        # shares the vectorised path so scalar and batched evaluations agree
        # bit-for-bit (the improvement oracle relies on exact cancellation)
        return float(self.population_losses(self._check_dim(w)[None, :])[0])

    def population_losses(self, ws: Array) -> Array:
        """Vectorised population loss for a stack of parameter vectors."""
        ws = np.atleast_2d(np.asarray(ws, dtype=float))
        r = ws - self.x_mean[None, :]
        # 0.5 tr(A S), the loss's noise floor, computed where it is read: a task
        # whose A S overflows then warns only if a run asks for its loss
        return 0.5 * np.einsum("ij,ij->i", r * self.a, r) + 0.5 * float(np.sum(self.a * self.s))


def population_stats(task: QuadraticTask, w: Array) -> HessianStats:
    """Exact (|G|^2, G^T H G, tr H, tr H Sigma) at w, with zero standard error."""
    if not isinstance(task, QuadraticTask):
        raise TypeError("population_stats requires a QuadraticTask")
    g = task.population_gradient(w)
    a = task.a
    return HessianStats(
        tr_h=float(a.sum()),
        tr_h_sigma=float(np.sum(a * task.gradient_covariance())),
        g_h_g=float((g * a) @ g),
        g_norm_sq=float(g @ g),
        standard_error_tr_h=0.0,
    )


class LogisticTask(DifferentiableTask):
    """Binary logistic regression over a fixed design matrix.

    Samples are row indices into the dataset; the Hessian of the mean batch
    loss is the standard ``(1/m) sum s_i x_i x_i^T`` with s_i = p_i (1 - p_i),
    hence always PSD.

    Sample i's gradient is ``g_i = a_i x_i`` with ``a = p - y``, so no pass
    builds the ``(m, d)`` per-sample gradient matrix: ``|g_i| = |a_i| |x_i|``
    and ``sum_i C_i g_i = X^T (C a)``.  With ``K = X X^T`` and ``u = X g_hat``,
    the centered gradient of sample i moves sample j's logit at the rate
    ``(g_i - g_hat) . x_j = a_i K_ij - u_j``, so its form is
    ``(1/m) sum_j s_j (a_i K_ij - u_j)^2`` and
    ``g_hat^T H g_hat = (1/m) sum_j s_j u_j^2``.  The trace is
    ``tr(H) = (1/m) sum_j s_j |x_j|^2``.
    """

    def __init__(self, features: Array, labels: Array):
        self.features = np.atleast_2d(np.asarray(features, dtype=float))
        self.labels = np.asarray(labels, dtype=float).ravel()
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise ValueError("labels must be binary 0/1")
        self._d = self.features.shape[1]

    @property
    def dimension(self) -> int:
        return self._d

    def _logits(self, w: Array, batch: Array) -> tuple[Array, Array, Array]:
        """Features x, labels y and logits ``z = x w`` of the batch's samples."""
        w = self._check_dim(w)
        idx = np.asarray(batch, dtype=int)
        x = self.features[idx]
        return x, self.labels[idx], x @ w

    def batch_loss(self, w: Array, batch: Array) -> float:
        _, y, z = self._logits(w, batch)
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def loss_and_weighted_gradient_sum(
        self, w: Array, batch: Array, weight_of_norms: NormWeights | None = None
    ) -> tuple[float, Array]:
        x, y, z = self._logits(w, batch)
        # the same arithmetic as batch_loss, so the two losses agree exactly
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        a = _sigmoid(z) - y
        if weight_of_norms is not None:
            a = weight_of_norms(np.abs(a) * np.sqrt(_row_sq_norms(x))) * a
        return loss, a @ x

    def gradient_hessian_forms(
        self, w: Array, batch: Array
    ) -> tuple[Array, Array, float, float]:
        x, y, z = self._logits(w, batch)
        m = len(z)
        p = _sigmoid(z)
        a = p - y
        slope = p * (1.0 - p)
        g_hat = a @ x / m
        u = x @ g_hat
        rates = a[:, None] * (x @ x.T) - u
        tr_h = float(slope @ _row_sq_norms(x) / m)
        return g_hat, rates**2 @ slope / m, float(slope @ (u * u) / m), tr_h

    def draw_batch(self, rng: np.random.Generator, m: int) -> Array:
        return rng.integers(len(self.labels), size=m)


def _row_sq_norms(a: Array) -> Array:
    return np.einsum("ij,ij->i", a, a)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class TinyMlpTask(DifferentiableTask):
    """One-hidden-layer tanh regressor on teacher-generated data.

    Inputs are standard normal; targets come from a frozen teacher network
    of the same architecture plus optional label noise, so the problem is
    realisable up to the noise floor.

    A training step takes one forward and one backward pass and never builds
    the ``(m, d)`` per-sample gradient matrix.  Sample i's gradient is rank 1
    in each layer: ``delta1_i x_i^T`` and ``delta1_i`` for (W1, b1),
    ``r_i h_i^T`` and ``r_i`` for (W2, b2), with residual r_i, hidden
    activation h_i and hidden-layer error
    ``delta1_i = (W2^T r_i) * (1 - h_i^2)``.  So its norm comes from the
    layer factors (ghost clipping)::

        |g_i|^2 = |delta1_i|^2 (|x_i|^2 + 1) + |r_i|^2 (|h_i|^2 + 1)

    and the weighted sum ``sum_i C_i g_i`` is one weighted back-propagation:
    ``(C delta1)^T X``, ``sum C delta1``, ``(C r)^T H``, ``sum C r``.

    The curvature pass is analytic too, and builds no ``(m, d)`` matrix
    either.  Along a direction ``v = (V1, c1, V2, c2)`` sample j's
    pre-activation, hidden activation and output move at the rates (a
    forward R-pass, Pearlmutter 1994)::

        dz1_j = V1 x_j + c1,   dh_j = s_j * dz1_j,   dout_j = W2 dh_j + V2 h_j + c2

    with slope ``s_j = 1 - h_j^2``.  The form ``v^T H v`` of the mean batch
    loss is the mean over j of the second derivative of ``0.5 |r_j|^2`` along
    v, which is, since ``W2^T r_j * s_j = delta1_j``::

        v^T H_j v = |dout_j|^2 + 2 (V2^T r_j) . dh_j - 2 sum_h (delta1_j * h_j)_h dz1_jh^2

    The centered forms ``(g_i - g_hat)^T H (g_i - g_hat)`` of the batch's own
    gradients come from the layer factors.  Stack the batch's ``x_j``,
    ``h_j``, ``r_j`` and ``delta1_j`` as the rows of X, A, R and Delta.
    Along the centered gradient of sample i, sample j's rates are::

        dz1_ij = K_ij delta1_i - mu_j                  K  = X X^T + 1
        V2 h_j + c2 = Ka_ij r_i - nu_j                  Ka = A A^T + 1
        V2^T r_j = (R R^T)_ij h_i - rho_j

    where ``mu_j``, ``nu_j`` and ``rho_j`` are the same rates along
    ``g_hat``, e.g. ``mu = K^T Delta / m``.  Putting them into the form above
    turns each of its three terms into ``(m, m)`` products of inner size
    ``hidden``, plus an ``(n_out, m, m)`` array for ``dout``.  The terms
    that do not depend on i are terms of ``g_hat^T H g_hat``, so the same
    pass gives that form too.  Sample rows i are processed a chunk at a
    time, as many rows as keep the ``(n_out, rows, m)`` array within
    ``CHUNK_FLOATS`` float64s.

    The trace sums the form over the unit directions (diagonal-curvature
    back-propagation, Becker & LeCun 1988).  A unit direction in (W2, b2)
    moves only ``dout``, by ``h_jh`` or 1; a unit direction on entry
    ``(h, i)`` of (W1, b1) has ``dz1_j = x_ji e_h`` (1 for b1) and adds
    ``x_ji^2 (s_jh^2 |W2[:, h]|^2 - 2 delta1_jh h_jh)``.  So::

        tr(H) = (1/m) sum_j [n_out (|h_j|^2 + 1)
                             + (|x_j|^2 + 1) sum_h (s_jh^2 |W2[:, h]|^2 - 2 delta1_jh h_jh)]

    ``gradient_hessian_forms`` reads it off the factors ``x``, ``h``,
    ``delta1``, ``s`` and ``W2`` of the one forward and backward pass that
    also gives the centered forms, so a curvature snapshot makes one pass.

    Each pass writes only into arrays it has just allocated itself, never
    into ``w``, the batch's ``x`` and ``y`` or the teacher, and its in-place
    steps keep the rounding order of the plain expressions (only ``a + b``
    as ``b + a`` and ``a b`` as ``b a``), so ``tests/reference.py`` checks
    them bit for bit.
    """

    # float64s in the (n_out, rows, m) array of a chunk of sample rows:
    # 2**15 * 8 B = 256 KiB, small enough to stay in cache between the passes
    # over it
    CHUNK_FLOATS = 2**15

    def __init__(
        self,
        n_in: int,
        hidden: int,
        n_out: int,
        teacher_seed: int = 0,
        noise_std: float = 0.0,
        target_scale: float = 1.0,
    ):
        if min(n_in, hidden, n_out) < 1:
            raise ValueError("all widths must be positive")
        self.n_in = n_in
        self.hidden = hidden
        self.n_out = n_out
        self.noise_std = float(noise_std)
        # NaN fails both comparisons
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and nonnegative")
        if not np.isfinite(target_scale):
            raise ValueError("target_scale must be finite")
        self._d = hidden * (n_in + 1) + n_out * (hidden + 1)
        teacher_rng = np.random.default_rng(teacher_seed)
        self._teacher = self.random_parameters(teacher_rng) * target_scale

    @property
    def dimension(self) -> int:
        return self._d

    def random_parameters(self, rng: np.random.Generator) -> Array:
        """Glorot-style random parameter vector."""
        w1 = rng.standard_normal((self.hidden, self.n_in)) / np.sqrt(self.n_in)
        b1 = np.zeros(self.hidden)
        w2 = rng.standard_normal((self.n_out, self.hidden)) / np.sqrt(self.hidden)
        b2 = np.zeros(self.n_out)
        return self._pack(w1, b1, w2, b2)

    def _pack(self, w1, b1, w2, b2) -> Array:
        """Flatten the blocks along their last axes; leading axes index vectors."""
        lead = b1.shape[:-1]
        return np.concatenate([p.reshape(*lead, -1) for p in (w1, b1, w2, b2)], axis=-1)

    def _unpack(self, w: Array):
        """Split the last axis of ``w`` into (W1, b1, W2, b2)."""
        h, nin, nout = self.hidden, self.n_in, self.n_out
        lead = w.shape[:-1]
        i = 0
        w1 = w[..., i : i + h * nin].reshape(*lead, h, nin)
        i += h * nin
        b1 = w[..., i : i + h]
        i += h
        w2 = w[..., i : i + nout * h].reshape(*lead, nout, h)
        i += nout * h
        b2 = w[..., i : i + nout]
        return w1, b1, w2, b2

    def _hidden_and_output(self, w: Array, x: Array) -> tuple[Array, Array]:
        """Hidden activations ``tanh(x W1^T + b1)`` and outputs ``h W2^T + b2``
        of a checked ``w``, each a new array."""
        w1, b1, w2, b2 = self._unpack(w)
        hidden = x @ w1.T
        hidden += b1
        np.tanh(hidden, out=hidden)
        out = hidden @ w2.T
        out += b2
        return hidden, out

    def forward(self, w: Array, x: Array) -> Array:
        """Batched forward pass; x has shape (m, n_in)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._hidden_and_output(self._check_dim(w), x)[1]

    def _forward_backward(self, w: Array, batch: tuple[Array, Array]):
        """Inputs x, hidden activations h, residuals r, hidden errors delta1
        and tanh slopes ``s = 1 - h^2``."""
        w = self._check_dim(w)
        x, y = batch
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        hidden, resid = self._hidden_and_output(w, x)
        resid -= y
        slope = hidden * hidden
        np.subtract(1.0, slope, out=slope)
        g_z1 = resid @ self._unpack(w)[2]
        g_z1 *= slope
        return x, hidden, resid, g_z1, slope

    def batch_loss(self, w: Array, batch: tuple[Array, Array]) -> float:
        x, y = batch
        resid = self.forward(w, x)
        resid -= np.atleast_2d(np.asarray(y, dtype=float))
        resid *= resid
        return 0.5 * float(np.mean(np.sum(resid, axis=1)))

    def loss_and_weighted_gradient_sum(
        self,
        w: Array,
        batch: tuple[Array, Array],
        weight_of_norms: NormWeights | None = None,
    ) -> tuple[float, Array]:
        x, hidden, resid, g_z1, _ = self._forward_backward(w, batch)
        # the same arithmetic as batch_loss, so the two losses agree exactly
        loss = 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))
        if weight_of_norms is not None:
            sq_norms = _row_sq_norms(g_z1) * (_row_sq_norms(x) + 1.0)
            sq_norms += _row_sq_norms(resid) * (_row_sq_norms(hidden) + 1.0)
            weights = weight_of_norms(np.sqrt(sq_norms))[:, None]
            g_z1 *= weights
            resid *= weights
        return loss, self._gradient_sum(x, hidden, resid, g_z1)

    def _gradient_sum(self, x: Array, hidden: Array, resid: Array, g_z1: Array) -> Array:
        """``sum_i g_i`` from the layer factors of the per-sample gradients."""
        total = np.empty(self._d)
        w1, b1, w2, b2 = self._unpack(total)
        np.matmul(g_z1.T, x, out=w1)
        g_z1.sum(axis=0, out=b1)
        np.matmul(resid.T, hidden, out=w2)
        resid.sum(axis=0, out=b2)
        return total

    def gradient_hessian_forms(
        self, w: Array, batch: tuple[Array, Array]
    ) -> tuple[Array, Array, float, float]:
        w2 = self._unpack(self._check_dim(w))[2]
        x, hidden, resid, g_z1, slope = self._forward_backward(w, batch)
        m = x.shape[0]
        curve = -2.0 * g_z1 * hidden
        # each sample's diagonal of H, summed (the class docstring's tr(H))
        per_unit = (slope * slope) @ np.einsum("oh,oh->h", w2, w2)
        per_unit -= 2.0 * np.einsum("jh,jh->j", g_z1, hidden)
        traces = self.n_out * (_row_sq_norms(hidden) + 1.0) + (_row_sq_norms(x) + 1.0) * per_unit
        g_hat = self._gradient_sum(x, hidden, resid, g_z1) / m
        # rates along g_hat: mu = dz1, e = dout, rho_j = V2_bar^T r_j
        v1, c1, v2, c2 = self._unpack(g_hat)
        mu = x @ v1.T + c1
        s_mu = slope * mu
        e = s_mu @ w2.T
        e += hidden @ v2.T + c2
        rho = resid @ v2
        # the terms of g_hat's form other than |e_j|^2, which every centered form shares
        shared = 2.0 * np.vdot(rho, s_mu) + np.vdot(curve, mu * mu)
        # the chunk loop's factors that do not depend on the rows
        rho_slope_t = (rho * slope).T
        curve_mu_t = (curve * mu).T
        forms = np.empty(m)
        rows = max(1, self.CHUNK_FLOATS // (m * self.n_out))
        for start in range(0, m, rows):
            part = slice(start, start + rows)
            delta, h_i, r_i = g_z1[part], hidden[part], resid[part]
            k = x[part] @ x.T
            k += 1.0
            ka = h_i @ hidden.T
            ka += 1.0
            # dout_ij, shape (n_out, rows, m)
            r_out = (w2[:, None, :] * delta) @ slope.T
            r_out *= k
            r_out += ka * r_i.T[:, :, None]
            r_out -= e.T[:, None, :]
            # (V2^T r_j) . dh_ij and the tanh-curvature term, less their shared parts
            rate = (h_i * delta) @ slope.T
            rate *= k
            rate -= h_i @ s_mu.T
            cross = r_i @ resid.T
            cross *= rate
            rate = delta @ rho_slope_t
            rate *= k
            cross -= rate
            curv = (delta * delta) @ curve.T
            curv *= k
            rate = delta @ curve_mu_t
            rate *= 2.0
            curv -= rate
            curv *= k
            cross *= 2.0
            cross += curv
            forms[part] = np.einsum("oim,oim->i", r_out, r_out) + cross.sum(axis=1)
        g_h_g = float((np.vdot(e, e) + shared) / m)
        return g_hat, (forms + shared) / m, g_h_g, float(traces.mean())

    def draw_batch(self, rng: np.random.Generator, m: int) -> tuple[Array, Array]:
        x = rng.standard_normal((m, self.n_in))
        y = self.forward(self._teacher, x)
        if self.noise_std > 0.0:
            noise = rng.standard_normal(y.shape)
            noise *= self.noise_std
            y += noise
        return x, y
