"""White-box membership inference attack harness.

The attack fits a binary logistic regression on per-example features built
from a model's output logits and scalar loss, labelled 1 for training
members and 0 for non-members, then reports threshold metrics and AUC on a
balanced held-out split.  AUC near 0.5 means the model leaks little
membership signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clipping import ClippingRule, clip_weights, noised_mean

Array = np.ndarray


class SoftmaxModel:
    """Linear softmax classifier used as the attack target at desk scale."""

    def __init__(self, weights: Array, bias: Array):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (k, d) with a matching bias")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def logits(self, x: Array) -> Array:
        return self.weights @ np.asarray(x, dtype=float) + self.bias

    def batch_logits(self, xs: Array) -> Array:
        return np.atleast_2d(np.asarray(xs, dtype=float)) @ self.weights.T + self.bias

    def example_loss(self, x: Array, y: int) -> float:
        z = self.logits(x)
        z = z - z.max()
        return float(np.log(np.exp(z).sum()) - z[int(y)])

    def example_losses(self, xs: Array, ys: Array) -> Array:
        z = self.batch_logits(xs)
        z = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1))
        return log_norm - z[np.arange(len(ys)), np.asarray(ys, dtype=int)]


def fit_softmax(
    xs: Array,
    ys: Array,
    n_classes: int,
    epochs: int,
    lr: float,
    rng: np.random.Generator | None = None,
    *,
    sigma: float = 0.0,
    rule: ClippingRule | None = None,
) -> SoftmaxModel:
    """Full-batch gradient training of the toy classifier.

    With ``sigma > 0`` (and ordinarily a clipping rule) every step uses the
    privatized batch gradient, so the result is a DP-trained model; with
    ``sigma = 0`` and no rule it is plain gradient descent.

    Each epoch makes one pass and never builds per-sample gradients.  The
    gradient of example i is the outer product of its residual
    ``P_i = softmax(W x_i + b) - onehot(y_i)`` with ``[x_i, 1]``, so its norm
    follows from ``|g_i|^2 = |P_i|^2 (|x_i|^2 + 1)`` and the clipped sum
    ``sum_i C_i g_i`` is ``(C P)^T X`` for W and ``sum_i C_i P_i`` for b: one
    (k, m) by (m, d) product instead of an (m, k(d+1)) matrix.  The sum is
    averaged and noised by :func:`clipping.noised_mean` in the
    ``[W row-major, b]`` layout, so the noise draws are those of
    :func:`clipping.privatize_gradient` on the per-sample matrix.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=int)
    m, d = xs.shape
    weights, bias = np.zeros((n_classes, d)), np.zeros(n_classes)
    weight_of_norms = clip_weights(rule)
    sq_norms_x1 = np.einsum("md,md->m", xs, xs) + 1.0
    cols = np.arange(m)
    for _ in range(epochs):
        # P is held as its (k, m) transpose, so the reductions over the k classes
        # run vectorised over the m examples
        p = weights @ xs.T + bias[:, None]
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        p[ys, cols] -= 1.0
        if weight_of_norms is not None:
            norms = np.sqrt(np.einsum("km,km->m", p, p) * sq_norms_x1)
            p *= weight_of_norms(norms)
        total = np.concatenate([(p @ xs).ravel(), p.sum(axis=1)])
        g = noised_mean(total, m, sigma, rng)
        weights = weights - lr * g[: n_classes * d].reshape(n_classes, d)
        bias = bias - lr * g[n_classes * d :]
    return SoftmaxModel(weights, bias)


@dataclass(frozen=True)
class MiaDataset:
    """Membership features/labels with a train/test partition."""

    features: Array  # (N, n_classes + 1): logits then scalar loss
    labels: Array  # 1 = member, 0 = non-member
    train_idx: Array
    test_idx: Array

    def __post_init__(self):
        for idx in (self.train_idx, self.test_idx):
            part = self.labels[idx]
            if not (np.any(part == 1) and np.any(part == 0)):
                raise ValueError("each split must contain both classes")


def _row_keys(xs: Array) -> set[bytes]:
    return {np.ascontiguousarray(row).tobytes() for row in np.atleast_2d(xs)}


def build_mia_dataset(
    model: SoftmaxModel,
    member_set: tuple[Array, Array],
    nonmember_set: tuple[Array, Array],
    split_fraction: float,
    rng: np.random.Generator,
    member_train_fraction: float = 0.1,
) -> MiaDataset:
    """Assemble attack features and a balanced test split.

    The test split takes ``split_fraction`` of the non-members plus the same
    number of members; the attack's training split gets all remaining
    non-members and a ``member_train_fraction`` share of the members.  Member
    and non-member example sets must be disjoint.
    """
    x_mem, y_mem = member_set
    x_non, y_non = nonmember_set
    x_mem = np.atleast_2d(np.asarray(x_mem, dtype=float))
    x_non = np.atleast_2d(np.asarray(x_non, dtype=float))
    if x_mem.shape[0] == 0 or x_non.shape[0] == 0:
        raise ValueError("member and non-member sets must be nonempty")
    if not 0.0 < split_fraction < 1.0:
        raise ValueError("split fraction must lie in (0, 1)")
    if _row_keys(x_mem) & _row_keys(x_non):
        raise ValueError("member and non-member sets overlap")

    n_test = int(round(split_fraction * x_non.shape[0]))
    n_test = max(1, min(n_test, x_non.shape[0] - 1, x_mem.shape[0] - 1))
    perm_non = rng.permutation(x_non.shape[0])
    perm_mem = rng.permutation(x_mem.shape[0])
    test_non, train_non = perm_non[:n_test], perm_non[n_test:]
    test_mem = perm_mem[:n_test]
    n_train_mem = max(1, int(round(member_train_fraction * x_mem.shape[0])))
    remaining = perm_mem[n_test:]
    if len(remaining) < n_train_mem:
        raise ValueError("not enough members left for the attack training split")
    train_mem = remaining[:n_train_mem]

    def _features(xs, ys):
        losses = model.example_losses(xs, ys)
        return np.concatenate([model.batch_logits(xs), losses[:, None]], axis=1)

    feats = np.concatenate(
        [
            _features(x_mem[train_mem], np.asarray(y_mem)[train_mem]),
            _features(x_non[train_non], np.asarray(y_non)[train_non]),
            _features(x_mem[test_mem], np.asarray(y_mem)[test_mem]),
            _features(x_non[test_non], np.asarray(y_non)[test_non]),
        ]
    )
    labels = np.concatenate(
        [
            np.ones(len(train_mem)),
            np.zeros(len(train_non)),
            np.ones(len(test_mem)),
            np.zeros(len(test_non)),
        ]
    )
    n_train = len(train_mem) + len(train_non)
    return MiaDataset(
        features=feats,
        labels=labels,
        train_idx=np.arange(n_train),
        test_idx=np.arange(n_train, len(labels)),
    )


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

    def scores(self, features: Array) -> Array:
        """Membership probabilities: the sigmoid of :meth:`logits`, without overflow."""
        return 0.5 * (1.0 + np.tanh(0.5 * self.logits(features)))


def fit_mia_classifier(
    dataset: MiaDataset, epochs: int = 50, class_reweighting: bool = True
) -> MiaClassifier:
    """Fit the attack's logistic regression on the training split.

    Quasi-second-order (L-BFGS) minimisation of the (optionally
    inverse-frequency weighted) logistic loss, run until the gradient norm
    falls below 1e-6 or the epoch cap is reached.  Deterministic: features
    are standardised and the optimiser starts from zero.
    """
    # scipy is imported where used: importing it with the package would more
    # than double the start-up time of every subcommand
    from scipy.optimize import minimize

    x = dataset.features[dataset.train_idx]
    y = dataset.labels[dataset.train_idx]
    if len(np.unique(y)) < 2:
        raise ValueError("attack training split is single-class")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    z = (x - mean) / scale
    if class_reweighting:
        n = len(y)
        n_pos = float(y.sum())
        weights = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    else:
        weights = np.ones(len(y))

    design = np.concatenate([z, np.ones((len(y), 1))], axis=1)
    signs = 2.0 * y - 1.0

    def objective(theta):
        margins = signs * (design @ theta)
        losses = np.logaddexp(0.0, -margins)
        # 1 / (1 + e^margin), without overflow at large margins
        grad_scale = -signs * weights * np.exp(-np.logaddexp(0.0, margins))
        return float(weights @ losses), design.T @ grad_scale

    result = minimize(
        objective,
        np.zeros(design.shape[1]),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": epochs, "gtol": 1e-6},
    )
    theta = result.x
    return MiaClassifier(
        coef=theta[:-1], intercept=float(theta[-1]), feature_mean=mean, feature_scale=scale
    )


@dataclass(frozen=True)
class MiaReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float


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


def evaluate_mia(classifier: MiaClassifier, dataset: MiaDataset) -> MiaReport:
    """Threshold-0.5 classification metrics plus rank AUC on the test split.

    Both come from the attack's logits: a score of 0.5 is a logit of 0, and
    ranking logits keeps the order that saturated scores of 0.0 or 1.0 lose.
    """
    if len(dataset.test_idx) == 0:
        raise ValueError("empty test split")
    x = dataset.features[dataset.test_idx]
    y = dataset.labels[dataset.test_idx]
    logits = classifier.logits(x)
    pred = (logits >= 0.0).astype(float)
    tp = float(np.sum((pred == 1) & (y == 1)))
    fp = float(np.sum((pred == 1) & (y == 0)))
    fn = float(np.sum((pred == 0) & (y == 1)))
    accuracy = float((pred == y).mean())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MiaReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        auc=auc_from_scores(logits, y),
    )


MIA_CSV_HEADER = "model_id,epsilon,accuracy,precision,recall,f1,auc"


def mia_csv_row(model_id: str, epsilon: float | str, report: MiaReport) -> str:
    eps = repr(epsilon) if isinstance(epsilon, float) else str(epsilon)
    return (
        f"{model_id},{eps},{report.accuracy!r},{report.precision!r},"
        f"{report.recall!r},{report.f1!r},{report.auc!r}"
    )


def two_blob_data(
    n: int, dim: int, rng: np.random.Generator, separation: float = 2.0,
    label_flip: float = 0.0,
) -> tuple[Array, Array]:
    """Two Gaussian classes along a shared axis, with optional label noise.

    The flipped labels are only memorisable, not learnable, which is what
    gives an overfit model its membership signal.
    """
    y = rng.integers(0, 2, size=n)
    centers = (y[:, None] - 0.5) * separation
    x = rng.standard_normal((n, dim))
    x[:, 0] += centers[:, 0]
    if label_flip > 0.0:
        flip = rng.random(n) < label_flip
        y = np.where(flip, 1 - y, y)
    return x, y.astype(int)
