"""White-box membership inference attack harness.

The attack fits a binary logistic regression on per-example features built
from a model's output logits and scalar loss, labelled 1 for training
members and 0 for non-members, then reports threshold metrics and AUC on a
balanced held-out split.  AUC near 0.5 means the model leaks little
membership signal.

The target, :class:`SoftmaxTask`, is trained with or without DP by full-batch
:func:`trainer.dp_step` calls; this module draws no noise and updates no
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clipping import NormWeights

Array = np.ndarray


class SoftmaxTask:
    """Linear softmax classifier on one training set: the attack target.

    Parameters are ``[W row-major, b]``; every batch is the whole set (``None``).
    Example i's gradient is the outer product of ``P_i = softmax(W x_i + b) -
    onehot(y_i)`` with ``[x_i, 1]``, so ``|g_i|^2 = |P_i|^2 (|x_i|^2 + 1)`` and
    ``sum_i C_i g_i`` is ``(C P)^T X`` for W and ``sum_i C_i P_i`` for b, with
    no (m, k(d+1)) per-sample gradient matrix; the mean loss comes from the
    same pass.  The one-hot labels and ``|x_i|^2 + 1`` are computed once per set.
    """

    def __init__(self, xs: Array, ys: Array, n_classes: int):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=float))
        m, d = self.xs.shape
        self.n_classes = n_classes
        self.dimension = n_classes * (d + 1)
        self._onehot = np.zeros((n_classes, m))
        self._onehot[np.asarray(ys, dtype=int), np.arange(m)] = 1.0
        self._sq_norms_x1 = np.einsum("md,md->m", self.xs, self.xs) + 1.0

    def _unpack(self, w: Array) -> tuple[Array, Array]:
        return w[: -self.n_classes].reshape(self.n_classes, -1), w[-self.n_classes :]

    def logits(self, w: Array, xs: Array) -> Array:
        weights, bias = self._unpack(w)
        return np.atleast_2d(np.asarray(xs, dtype=float)) @ weights.T + bias

    def loss_and_weighted_gradient_sum(
        self, w: Array, batch: None, weight_of_norms: NormWeights | None = None
    ) -> tuple[float, Array]:
        weights, bias = self._unpack(w)
        # P is held as its (k, m) transpose, so the reductions over the k classes
        # run vectorised over the m examples
        z = weights @ self.xs.T + bias[:, None]
        z -= z.max(axis=0)
        p = np.exp(z)
        norm = p.sum(axis=0)
        p /= norm
        loss = float(np.log(norm).sum() - np.vdot(self._onehot, z)) / len(norm)
        p -= self._onehot
        if weight_of_norms is not None:
            p *= weight_of_norms(np.sqrt(np.einsum("km,km->m", p, p) * self._sq_norms_x1))
        return loss, np.concatenate([(p @ self.xs).ravel(), p.sum(axis=1)])


def _example_losses(logits: Array, ys: Array) -> Array:
    """Each example's cross-entropy loss from its row of ``logits``."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return log_norm - z[np.arange(len(ys)), np.asarray(ys, dtype=int)]


def _row_keys(xs: Array) -> set[bytes]:
    return {np.ascontiguousarray(row).tobytes() for row in np.atleast_2d(xs)}


def mia_split_sizes(
    n_members: int,
    n_nonmembers: int,
    split_fraction: float = 0.5,
    member_train_fraction: float = 0.1,
) -> tuple[int, int]:
    """``(n_test, n_train_members)`` of :func:`build_mia_dataset`'s split.

    The test split takes ``n_test`` non-members and as many members, at
    least one of each and at most all but one; the attack's training split
    takes ``n_train_members``, at least one, of the members left over, and
    every non-member left over, at least one.
    """
    if not 0.0 < split_fraction < 1.0:
        raise ValueError("split fraction must lie in (0, 1)")
    if not 0.0 < member_train_fraction <= 1.0:
        raise ValueError("member train fraction must lie in (0, 1]")
    n_test = int(round(split_fraction * n_nonmembers))
    n_test = max(1, min(n_test, n_nonmembers - 1, n_members - 1))
    n_train_members = max(1, int(round(member_train_fraction * n_members)))
    if n_members - n_test < n_train_members:
        raise ValueError("not enough members left for the attack training split")
    if n_nonmembers <= n_test:
        raise ValueError("not enough non-members left for the attack training split")
    return n_test, n_train_members


def build_mia_dataset(
    target: SoftmaxTask,
    w: Array,
    member_set: tuple[Array, Array],
    nonmember_set: tuple[Array, Array],
    rng: np.random.Generator,
    **split: float,
) -> tuple[tuple[Array, Array], tuple[Array, Array]]:
    """The attack's training and test splits, each ``(features, labels)``.

    A feature row is the target's logits at ``w`` for one example, then
    that example's loss; a label is 1 for a member and 0 for a non-member,
    and each split lists its members first.  The test split takes
    ``split_fraction`` of the non-members plus the same number of members;
    the attack's training split gets all remaining non-members and a
    ``member_train_fraction`` share of the members.  The two fractions in
    ``split`` go to :func:`mia_split_sizes`, whose defaults they take and
    which leaves both labels in each split.  Member and non-member example
    sets must be disjoint.
    """
    x_mem, y_mem = member_set
    x_non, y_non = nonmember_set
    x_mem = np.atleast_2d(np.asarray(x_mem, dtype=float))
    x_non = np.atleast_2d(np.asarray(x_non, dtype=float))
    y_mem, y_non = np.asarray(y_mem), np.asarray(y_non)
    n_test, n_train_mem = mia_split_sizes(x_mem.shape[0], x_non.shape[0], **split)
    if _row_keys(x_mem) & _row_keys(x_non):
        raise ValueError("member and non-member sets overlap")

    perm_non = rng.permutation(x_non.shape[0])
    perm_mem = rng.permutation(x_mem.shape[0])
    test_non, train_non = perm_non[:n_test], perm_non[n_test:]
    test_mem = perm_mem[:n_test]
    train_mem = perm_mem[n_test:n_test + n_train_mem]

    def _features(xs, ys):
        # huge weights overflow here; fit_mia_classifier and evaluate_mia
        # reject what is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            logits = target.logits(w, xs)
            return np.concatenate([logits, _example_losses(logits, ys)[:, None]], axis=1)

    def _split(mem, non):
        features = np.concatenate(
            [_features(x_mem[mem], y_mem[mem]), _features(x_non[non], y_non[non])]
        )
        return features, np.concatenate([np.ones(len(mem)), np.zeros(len(non))])

    return _split(train_mem, train_non), _split(test_mem, test_non)


@dataclass(frozen=True)
class MiaClassifier:
    """Standardised-feature logistic regression attack model."""

    coef: Array
    intercept: float
    feature_mean: Array
    feature_scale: Array

    def logits(self, features: Array) -> Array:
        """The attack's log-odds of membership; it ranks without saturating."""
        z = (np.atleast_2d(features) - self.feature_mean) / self.feature_scale
        return z @ self.coef + self.intercept


_NEWTON_RIDGE = 1e-12
_NEWTON_GTOL = 1e-9
_NEWTON_MAX_ITER = 50


def _check_finite(features: Array) -> None:
    if not np.all(np.isfinite(features)):
        raise FloatingPointError("non-finite attack features")


def fit_mia_classifier(x: Array, y: Array) -> MiaClassifier:
    """Fit the attack's logistic regression on the training split ``(x, y)``.

    Newton's method (iteratively reweighted least squares) on the
    inverse-frequency weighted logistic loss, from zero on standardised
    features, run until the gradient norm falls below 1e-9 or for at most 50
    iterations.  A 1e-12 ridge on the Hessian keeps each Newton system
    solvable on a separable split, where the loss has no minimiser and the
    iterates grow until the gradient is below the tolerance.  The labels
    are 1 (member) and 0; a split without both raises :class:`ValueError`.
    Non-finite features, features whose standardisation overflows, a
    singular system or non-finite coefficients raise
    :class:`FloatingPointError`.
    """
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("the attack's training split needs members and non-members")
    _check_finite(x)
    n = len(y)
    n_pos = float(y.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale))):
        raise FloatingPointError("attack features overflow their standardisation")
    scale[scale == 0.0] = 1.0
    z = (x - mean) / scale
    weights = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))

    design = np.concatenate([z, np.ones((len(y), 1))], axis=1)
    signs = 2.0 * y - 1.0
    ridge = _NEWTON_RIDGE * np.eye(design.shape[1])
    theta = np.zeros(design.shape[1])
    for _ in range(_NEWTON_MAX_ITER):
        margins = signs * (design @ theta)
        # log(1 + e^m) and log(1 + e^-m): the two sigmoids in log space, so no
        # large margin overflows
        log_up, log_down = np.logaddexp(0.0, margins), np.logaddexp(0.0, -margins)
        grad = design.T @ (-signs * weights * np.exp(-log_up))
        if np.linalg.norm(grad) < _NEWTON_GTOL:
            break
        curvature = weights * np.exp(-log_up - log_down)
        try:
            theta = theta - np.linalg.solve((design.T * curvature) @ design + ridge, grad)
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(f"attack Newton step failed: {exc}") from exc
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError("attack coefficients are not finite")
    return MiaClassifier(
        coef=theta[:-1], intercept=float(theta[-1]), feature_mean=mean, feature_scale=scale
    )


def _midranks(values: Array) -> Array:
    """1-based ranks of ``values``, each tie run given the mean rank of the run.

    Equal to ``scipy.stats.rankdata(values)`` (method "average"): the mean of
    the ranks ``start+1 .. end`` of a run is ``(start + end + 1) / 2``, an
    exact half.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_from_scores(scores: Array, labels: Array) -> float:
    """Rank-statistic AUC with midrank tie handling."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    ranks = _midranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_mia(classifier: MiaClassifier, x: Array, y: Array) -> list[float]:
    """``[accuracy, precision, recall, f1, auc]`` of the attack on the test
    split ``(x, y)``: threshold-0.5 classification metrics plus rank AUC.

    Both come from the attack's logits: a score of 0.5 is a logit of 0, and
    ranking logits keeps the order that saturated scores of 0.0 or 1.0 lose.
    Non-finite features raise :class:`FloatingPointError`, and a split
    without both labels :class:`ValueError` (:func:`auc_from_scores`).
    """
    _check_finite(x)
    logits = classifier.logits(x)
    pred = (logits >= 0.0).astype(float)
    tp = float(np.sum((pred == 1) & (y == 1)))
    fp = float(np.sum((pred == 1) & (y == 0)))
    fn = float(np.sum((pred == 0) & (y == 1)))
    accuracy = float((pred == y).mean())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return [accuracy, precision, recall, f1, auc_from_scores(logits, y)]


def two_blob_data(
    n: int, dim: int, rng: np.random.Generator, separation: float = 2.0,
    label_flip: float = 0.0,
) -> tuple[Array, Array]:
    """Two Gaussian classes along a shared axis, with optional label noise.

    The flipped labels are only memorisable, not learnable, which is what
    gives an overfit model its membership signal.
    """
    if not 0.0 <= label_flip <= 1.0:
        raise ValueError("label flip rate must lie in [0, 1]")
    y = rng.integers(0, 2, size=n)
    centers = (y[:, None] - 0.5) * separation
    x = rng.standard_normal((n, dim))
    x[:, 0] += centers[:, 0]
    if label_flip > 0.0:
        flip = rng.random(n) < label_flip
        y = np.where(flip, 1 - y, y)
    return x, y.astype(int)
