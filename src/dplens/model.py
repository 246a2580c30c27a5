"""Synthetic differentiable tasks with per-sample gradients and Hessian access.

Every task exposes the same batched surface, the methods the training loops
and curvature probes call: the mean batch loss (``batch_loss``), the stacked
``(m, d)`` per-sample gradients, the fused training-step pass
(``loss_and_weighted_gradient_sum``: mean batch loss and a norm-weighted sum
of per-sample gradients), block Hessian-vector products of the mean batch
loss (``hvp_block``), and seeded batch drawing.
The quadratic task additionally carries exact population oracles (gradient,
Hessian, per-sample gradient covariance) so that every stochastic estimator
in this package can be checked against ground truth.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from .clipping import NormWeights, weighted_gradient_sums

Array = np.ndarray


def _as_symmetric_psd(mat: Array, name: str) -> Array:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals.min() < -1e-10 * max(1.0, abs(eigvals.max())):
        raise ValueError(f"{name} must be positive semi-definite")
    return 0.5 * (mat + mat.T)


def _psd_factor(mat: Array) -> Array:
    """Return F with F @ F.T == mat, valid for singular PSD matrices."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


class DifferentiableTask(abc.ABC):
    """A loss landscape with per-sample gradients and batch Hessian action.

    Instances are immutable after construction and safe for concurrent
    reads; all randomness flows through caller-owned generators.
    """

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Number of trainable parameters."""

    @abc.abstractmethod
    def per_sample_gradients(self, w: Array, batch: Any) -> Array:
        """Stacked per-sample gradients for a batch, shape ``(m, d)``."""

    @abc.abstractmethod
    def batch_loss(self, w: Array, batch: Any) -> float:
        """Mean loss over a batch."""

    def loss_and_weighted_gradient_sum(
        self, w: Array, batch: Any, weight_of_norms: NormWeights | None = None
    ) -> tuple[float, Array]:
        """Mean batch loss and ``sum_i C_i g_i`` over the batch's per-sample gradients.

        ``C = weight_of_norms(norms)`` maps the ``(m,)`` per-sample gradient
        norms to weights; with ``None`` the sum is the plain ``sum_i g_i``.
        This default stacks the per-sample gradients; a task that can get the
        norms and the weighted sum from its layer factors overrides it.
        """
        loss = self.batch_loss(w, batch)
        grads = self.per_sample_gradients(w, batch)
        return loss, weighted_gradient_sums(grads, weight_of_norms)

    @abc.abstractmethod
    def hvp_block(self, w: Array, batch: Any, vs: Array) -> Array:
        """Rows of ``H V`` for the mean batch loss at ``w``, ``vs`` of shape ``(k, d)``.

        Row ``j`` of the result is the Hessian applied to row ``j`` of ``vs``.
        """

    @abc.abstractmethod
    def draw_batch(self, rng: np.random.Generator, m: int) -> Any:
        """Draw ``m`` samples as a batch."""

    @abc.abstractmethod
    def batch_size_of(self, batch: Any) -> int:
        """Number of samples in a batch object."""

    def _check_dim(self, w: Array) -> Array:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dimension,):
            raise ValueError(
                f"parameter vector has shape {w.shape}, expected ({self.dimension},)"
            )
        return w

    def _check_block(self, vs: Array) -> Array:
        vs = np.asarray(vs, dtype=float)
        if vs.ndim != 2 or vs.shape[1] != self.dimension:
            raise ValueError(
                f"direction block has shape {vs.shape}, expected (k, {self.dimension})"
            )
        return vs


class QuadraticTask(DifferentiableTask):
    """Gaussian-data quadratic: per-sample loss ``0.5 (w - x)^T A (w - x)``.

    Samples are drawn from N(x_mean, S).  Exact oracles:

    * population gradient  G(w) = A (w - x_mean)
    * population Hessian   H = A
    * gradient covariance  Sigma = A S A^T
    * population loss      0.5 (w - x_mean)^T A (w - x_mean) + 0.5 tr(A S)
    """

    def __init__(self, a: Array, x_mean: Array, s: Array):
        self.a = _as_symmetric_psd(a, "A")
        d = self.a.shape[0]
        self.x_mean = np.asarray(x_mean, dtype=float)
        if self.x_mean.shape != (d,):
            raise ValueError(f"x_mean shape {self.x_mean.shape} != ({d},)")
        self.s = _as_symmetric_psd(s, "S")
        if self.s.shape != (d, d):
            raise ValueError("S dimension mismatch with A")
        self._d = d
        self._s_factor = _psd_factor(self.s)
        self._noise_loss = 0.5 * float(np.trace(self.a @ self.s))

    @property
    def dimension(self) -> int:
        return self._d

    def per_sample_gradients(self, w: Array, batch: Array) -> Array:
        w = self._check_dim(w)
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        return (w[None, :] - batch) @ self.a

    def batch_loss(self, w: Array, batch: Array) -> float:
        w = self._check_dim(w)
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        r = w[None, :] - batch
        return 0.5 * float(np.mean(np.einsum("ij,ij->i", r @ self.a, r)))

    def hvp_block(self, w: Array, batch: Any, vs: Array) -> Array:
        self._check_dim(w)
        return self._check_block(vs) @ self.a

    def draw_batch(self, rng: np.random.Generator, m: int) -> Array:
        z = rng.standard_normal((m, self._d))
        return self.x_mean[None, :] + z @ self._s_factor.T

    def batch_size_of(self, batch: Array) -> int:
        return np.atleast_2d(batch).shape[0]

    # exact oracles -------------------------------------------------------

    def population_gradient(self, w: Array) -> Array:
        w = self._check_dim(w)
        return self.a @ (w - self.x_mean)

    def gradient_covariance(self) -> Array:
        return self.a @ self.s @ self.a.T

    def population_loss(self, w: Array) -> float:
        # shares the vectorised path so scalar and batched evaluations agree
        # bit-for-bit (the improvement oracle relies on exact cancellation)
        return float(self.population_losses(self._check_dim(w)[None, :])[0])

    def population_losses(self, ws: Array) -> Array:
        """Vectorised population loss for a stack of parameter vectors."""
        ws = np.atleast_2d(np.asarray(ws, dtype=float))
        r = ws - self.x_mean[None, :]
        return 0.5 * np.einsum("ij,ij->i", r @ self.a, r) + self._noise_loss


@dataclass(frozen=True)
class PopulationStats:
    """Exact closed-form statistics of a quadratic task at a point."""

    g_norm_sq: float
    g_h_g: float
    tr_h: float
    tr_h_sigma: float


def population_stats(task: QuadraticTask, w: Array) -> PopulationStats:
    """Exact (|G|^2, G^T H G, tr H, tr H Sigma) at w."""
    if not isinstance(task, QuadraticTask):
        raise TypeError("population_stats requires a QuadraticTask")
    g = task.population_gradient(w)
    a = task.a
    sigma = task.gradient_covariance()
    return PopulationStats(
        g_norm_sq=float(g @ g),
        g_h_g=float(g @ a @ g),
        tr_h=float(np.trace(a)),
        tr_h_sigma=float(np.trace(a @ sigma)),
    )


class LogisticTask(DifferentiableTask):
    """Binary logistic regression over a fixed design matrix.

    Samples are row indices into the dataset; the Hessian of the mean batch
    loss is the standard ``(1/m) sum s_i x_i x_i^T`` with s_i = p_i (1 - p_i),
    hence always PSD.
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

    def n_examples(self) -> int:
        return self.features.shape[0]

    def per_sample_gradients(self, w: Array, batch: Array) -> Array:
        w = self._check_dim(w)
        idx = np.asarray(batch, dtype=int)
        x = self.features[idx]
        y = self.labels[idx]
        p = _sigmoid(x @ w)
        return (p - y)[:, None] * x

    def batch_loss(self, w: Array, batch: Array) -> float:
        w = self._check_dim(w)
        idx = np.asarray(batch, dtype=int)
        x = self.features[idx]
        y = self.labels[idx]
        z = x @ w
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def hvp_block(self, w: Array, batch: Array, vs: Array) -> Array:
        w = self._check_dim(w)
        vs = self._check_block(vs)
        idx = np.asarray(batch, dtype=int)
        x = self.features[idx]
        p = _sigmoid(x @ w)
        scale = p * (1.0 - p)
        return ((vs @ x.T) * scale) @ x / len(idx)

    def draw_batch(self, rng: np.random.Generator, m: int) -> Array:
        return rng.integers(self.n_examples(), size=m)

    def batch_size_of(self, batch: Array) -> int:
        return len(np.atleast_1d(batch))


def _row_sq_norms(a: Array) -> Array:
    return np.einsum("ij,ij->i", a, a)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class TinyMlpTask(DifferentiableTask):
    """One-hidden-layer tanh regressor on teacher-generated data.

    Inputs are standard normal; targets come from a frozen teacher network
    of the same architecture plus optional label noise, so the problem is
    realisable up to the noise floor.  Per-sample gradients are analytic.

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

    The HVP is analytic too: a forward-and-backward R-operator pass
    (Pearlmutter 1994) differentiates the batch gradient along each direction
    exactly, giving an exactly symmetric operator.  Blocks of directions are
    processed ``HVP_CHUNK_ROWS`` rows at a time, so the ``(rows, m, hidden)``
    intermediates stay near 1 MiB for batches up to 256 samples however many
    directions are passed.
    """

    MAX_WIDTH = 64
    HVP_CHUNK_ROWS = 8

    def __init__(
        self,
        n_in: int,
        hidden: int,
        n_out: int,
        teacher_seed: int = 0,
        noise_std: float = 0.0,
        target_scale: float = 1.0,
    ):
        if hidden > self.MAX_WIDTH:
            raise ValueError(f"hidden width {hidden} exceeds {self.MAX_WIDTH}")
        if min(n_in, hidden, n_out) < 1:
            raise ValueError("all widths must be positive")
        self.n_in = n_in
        self.hidden = hidden
        self.n_out = n_out
        self.noise_std = float(noise_std)
        self._d = hidden * (n_in + 1) + n_out * (hidden + 1)
        teacher_rng = np.random.default_rng(teacher_seed)
        self._teacher = self.random_parameters(teacher_rng) * target_scale

    @property
    def dimension(self) -> int:
        return self._d

    def random_parameters(self, rng: np.random.Generator, scale: float = 1.0) -> Array:
        """Glorot-style random parameter vector."""
        w1 = rng.standard_normal((self.hidden, self.n_in)) / np.sqrt(self.n_in)
        b1 = np.zeros(self.hidden)
        w2 = rng.standard_normal((self.n_out, self.hidden)) / np.sqrt(self.hidden)
        b2 = np.zeros(self.n_out)
        return scale * self._pack(w1, b1, w2, b2)

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

    def head_slice(self) -> slice:
        """Index range of the output-layer block (W2 and b2)."""
        return slice(self.hidden * (self.n_in + 1), self._d)

    def forward(self, w: Array, x: Array) -> Array:
        """Batched forward pass; x has shape (m, n_in)."""
        w1, b1, w2, b2 = self._unpack(self._check_dim(w))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        hidden = np.tanh(x @ w1.T + b1)
        return hidden @ w2.T + b2

    def _forward_backward(self, w: Array, batch: tuple[Array, Array]):
        """Inputs x, hidden activations h, residuals r and hidden errors delta1."""
        w1, b1, w2, b2 = self._unpack(self._check_dim(w))
        x, y = batch
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        hidden = np.tanh(x @ w1.T + b1)
        resid = hidden @ w2.T + b2 - y
        g_z1 = (resid @ w2) * (1.0 - hidden * hidden)
        return x, hidden, resid, g_z1

    def per_sample_gradients(self, w: Array, batch: tuple[Array, Array]) -> Array:
        x, hidden, resid, g_z1 = self._forward_backward(w, batch)
        m = x.shape[0]
        g_w1 = np.einsum("mh,mi->mhi", g_z1, x)
        g_w2 = np.einsum("mo,mh->moh", resid, hidden)
        return np.concatenate(
            [g_w1.reshape(m, -1), g_z1, g_w2.reshape(m, -1), resid], axis=1
        )

    def batch_loss(self, w: Array, batch: tuple[Array, Array]) -> float:
        x, y = batch
        resid = self.forward(w, x) - np.atleast_2d(np.asarray(y, dtype=float))
        return 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))

    def loss_and_weighted_gradient_sum(
        self,
        w: Array,
        batch: tuple[Array, Array],
        weight_of_norms: NormWeights | None = None,
    ) -> tuple[float, Array]:
        x, hidden, resid, g_z1 = self._forward_backward(w, batch)
        # the same arithmetic as batch_loss, so the two losses agree exactly
        loss = 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))
        if weight_of_norms is not None:
            sq_norms = _row_sq_norms(g_z1) * (_row_sq_norms(x) + 1.0)
            sq_norms += _row_sq_norms(resid) * (_row_sq_norms(hidden) + 1.0)
            weights = weight_of_norms(np.sqrt(sq_norms))[:, None]
            g_z1 = weights * g_z1
            resid = weights * resid
        return loss, self._pack(
            g_z1.T @ x, g_z1.sum(axis=0), resid.T @ hidden, resid.sum(axis=0)
        )

    def hvp_block(self, w: Array, batch: tuple[Array, Array], vs: Array) -> Array:
        w1, b1, w2, b2 = self._unpack(self._check_dim(w))
        vs = self._check_block(vs)
        x, y = batch
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        hidden = np.tanh(x @ w1.T + b1)
        slope = 1.0 - hidden * hidden
        resid = hidden @ w2.T + b2 - y
        # g_hidden * d(slope)/d(hidden), the tanh curvature term
        curve = -2.0 * (resid @ w2) * hidden
        out = np.empty_like(vs)
        for start in range(0, vs.shape[0], self.HVP_CHUNK_ROWS):
            v1, c1, v2, c2 = self._unpack(vs[start : start + self.HVP_CHUNK_ROWS])
            # forward R-pass: directional derivatives of z1, hidden and resid,
            # each of shape (rows, m, width)
            r_z1 = x @ v1.transpose(0, 2, 1) + c1[:, None, :]
            r_hidden = slope * r_z1
            r_resid = r_hidden @ w2.T + hidden @ v2.transpose(0, 2, 1) + c2[:, None, :]
            # backward R-pass: directional derivatives of the summed gradients
            r_g_z1 = slope * (resid @ v2 + r_resid @ w2) + curve * r_hidden
            out[start : start + len(c1)] = self._pack(
                r_g_z1.transpose(0, 2, 1) @ x,
                r_g_z1.sum(axis=1),
                r_resid.transpose(0, 2, 1) @ hidden + resid.T @ r_hidden,
                r_resid.sum(axis=1),
            )
        return out / x.shape[0]

    def draw_batch(self, rng: np.random.Generator, m: int) -> tuple[Array, Array]:
        x = rng.standard_normal((m, self.n_in))
        y = self.forward(self._teacher, x)
        if self.noise_std > 0.0:
            y = y + self.noise_std * rng.standard_normal(y.shape)
        return x, y

    def batch_size_of(self, batch: tuple[Array, Array]) -> int:
        return np.atleast_2d(batch[0]).shape[0]
