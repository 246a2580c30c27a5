import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplens.attacks import (
    MiaClassifier,
    MiaDataset,
    MiaReport,
    SoftmaxModel,
    auc_from_scores,
    build_mia_dataset,
    evaluate_mia,
    fit_mia_classifier,
    fit_softmax,
    mia_csv_row,
    two_blob_data,
    MIA_CSV_HEADER,
)
from dplens.clipping import ClippingRule, privatize_gradient

ROOT = Path(__file__).resolve().parents[1]


def toy_model(n_classes=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return SoftmaxModel(rng.standard_normal((n_classes, dim)), np.zeros(n_classes))


def blobs(n, dim, seed):
    return two_blob_data(n, dim, np.random.default_rng(seed), separation=2.0, label_flip=0.1)


class TestBuildDataset:
    def test_balanced_test_split(self):
        rng = np.random.default_rng(1)
        members = blobs(100, 4, 2)
        nonmembers = blobs(100, 4, 3)
        ds = build_mia_dataset(toy_model(), members, nonmembers, 0.5, rng)
        test_labels = ds.labels[ds.test_idx]
        assert (test_labels == 1).sum() == 50
        assert (test_labels == 0).sum() == 50

    def test_overlap_rejected(self):
        members = blobs(20, 3, 4)
        overlap = (members[0][:10], members[1][:10])
        with pytest.raises(ValueError):
            build_mia_dataset(toy_model(2, 3), members, overlap, 0.5, np.random.default_rng(0))

    def test_empty_rejected(self):
        members = blobs(20, 3, 5)
        empty = (np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            build_mia_dataset(toy_model(2, 3), members, empty, 0.5, np.random.default_rng(0))

    def test_feature_dimension_is_classes_plus_one(self):
        model = toy_model(n_classes=3, dim=5, seed=6)
        members = blobs(30, 5, 7)
        # labels must be valid class ids for the 3-class model
        members = (members[0], members[1] % 3)
        nonmembers = blobs(30, 5, 8)
        nonmembers = (nonmembers[0], nonmembers[1] % 3)
        ds = build_mia_dataset(model, members, nonmembers, 0.5, np.random.default_rng(9))
        assert ds.features.shape[1] == 4

    def test_deterministic_under_seed(self):
        members = blobs(40, 4, 10)
        nonmembers = blobs(40, 4, 11)
        a = build_mia_dataset(toy_model(), members, nonmembers, 0.5, np.random.default_rng(12))
        b = build_mia_dataset(toy_model(), members, nonmembers, 0.5, np.random.default_rng(12))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_member_train_fraction(self):
        members = blobs(100, 4, 13)
        nonmembers = blobs(100, 4, 14)
        ds = build_mia_dataset(
            toy_model(), members, nonmembers, 0.4, np.random.default_rng(15),
            member_train_fraction=0.1,
        )
        train_labels = ds.labels[ds.train_idx]
        assert (train_labels == 1).sum() == 10
        assert (train_labels == 0).sum() == 60


class TestFitClassifier:
    def test_separable_features_reach_full_training_accuracy(self):
        rng = np.random.default_rng(16)
        n = 60
        feats = np.concatenate([rng.standard_normal((n, 2)) + 4, rng.standard_normal((n, 2)) - 4])
        labels = np.concatenate([np.ones(n), np.zeros(n)])
        ds = MiaDataset(
            features=feats, labels=labels,
            train_idx=np.arange(2 * n), test_idx=np.arange(2 * n),
        )
        clf = fit_mia_classifier(ds, epochs=100)
        pred = (clf.scores(feats) >= 0.5).astype(float)
        assert (pred == labels).mean() == 1.0

    def test_shuffled_labels_give_chance_auc(self):
        aucs = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            feats = rng.standard_normal((400, 3))
            labels = np.concatenate([np.ones(200), np.zeros(200)])
            rng.shuffle(labels)
            split = rng.permutation(400)
            ds = MiaDataset(
                features=feats, labels=labels,
                train_idx=split[:200], test_idx=split[200:],
            )
            report = evaluate_mia(fit_mia_classifier(ds), ds)
            aucs.append(report.auc)
        assert abs(np.mean(aucs) - 0.5) <= 0.05

    def test_identical_distributions_give_chance_auc(self):
        rng = np.random.default_rng(17)
        feats = rng.standard_normal((600, 4))
        labels = np.tile([1.0, 0.0], 300)  # both classes in both halves
        ds = MiaDataset(
            features=feats, labels=labels,
            train_idx=np.arange(300), test_idx=np.arange(300, 600),
        )
        report = evaluate_mia(fit_mia_classifier(ds), ds)
        assert abs(report.auc - 0.5) <= 0.1

    def test_dataset_requires_both_classes_per_split(self):
        feats = np.zeros((4, 2))
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            MiaDataset(features=feats, labels=labels,
                       train_idx=np.array([0, 1]), test_idx=np.array([2, 3]))


class TestEvaluate:
    def _dataset(self, scores_labels):
        labels = np.array([lab for _, lab in scores_labels], dtype=float)
        feats = np.array([[s] for s, _ in scores_labels])
        return feats, labels

    def test_perfect_scores(self):
        labels = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        feats = np.array([[10.0], [9.0], [-9.0], [-10.0], [8.0], [-8.0]])
        ds = MiaDataset(features=feats, labels=labels,
                        train_idx=np.arange(6), test_idx=np.arange(6))
        clf = MiaClassifier(
            coef=np.array([5.0]), intercept=0.0,
            feature_mean=np.zeros(1), feature_scale=np.ones(1),
        )
        report = evaluate_mia(clf, ds)
        assert report.accuracy == report.precision == report.recall == 1.0
        assert report.f1 == 1.0
        assert report.auc == 1.0

    def test_constant_scores_auc_half(self):
        assert auc_from_scores(np.zeros(10), np.array([1, 0] * 5)) == 0.5

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(19)
        scores = rng.random(50)
        labels = (rng.random(50) < 0.4).astype(int)
        base = auc_from_scores(scores, labels)
        assert auc_from_scores(np.exp(3 * scores), labels) == pytest.approx(base)
        assert auc_from_scores(2 * scores - 7, labels) == pytest.approx(base)

    def test_hand_confusion_matrix(self):
        # scores: members [0.9, 0.4], nonmembers [0.6, 0.1]
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        feats = np.array([[0.9], [0.4], [0.6], [0.1]])
        clf = MiaClassifier(
            coef=np.array([1.0]), intercept=-0.5,
            feature_mean=np.zeros(1), feature_scale=np.ones(1),
        )
        ds = MiaDataset(features=feats, labels=labels,
                        train_idx=np.arange(4), test_idx=np.arange(4))
        report = evaluate_mia(clf, ds)
        # threshold 0.5 on sigmoid(x - 0.5): predicted 1 iff x > 0.5
        # TP=1 (0.9), FP=1 (0.6), FN=1 (0.4), TN=1 (0.1)
        assert report.accuracy == 0.5
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5
        assert report.auc == pytest.approx(0.75)

    def test_f1_consistent(self):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((80, 3))
        labels = (rng.random(80) < 0.5).astype(float)
        if labels.sum() in (0, 80):
            labels[0] = 1 - labels[0]
        ds = MiaDataset(features=feats, labels=labels,
                        train_idx=np.arange(80), test_idx=np.arange(80))
        report = evaluate_mia(fit_mia_classifier(ds), ds)
        if report.precision + report.recall > 0:
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert report.f1 == pytest.approx(expected)

    def test_csv_row(self):
        report = MiaReport(accuracy=0.5, precision=0.5, recall=0.25, f1=1 / 3, auc=0.5)
        row = mia_csv_row("nondp", float("inf"), report)
        assert row.startswith("nondp,inf,0.5,0.5,0.25,")
        assert MIA_CSV_HEADER == "model_id,epsilon,accuracy,precision,recall,f1,auc"


class TestSoftmaxTraining:
    def test_nondp_fits_separable_blobs(self):
        x, y = two_blob_data(200, 4, np.random.default_rng(21), separation=4.0)
        model = fit_softmax(x, y, 2, epochs=300, lr=0.5)
        pred = np.argmax(model.batch_logits(x), axis=1)
        assert (pred == y).mean() >= 0.95

    def test_dp_training_is_seed_deterministic(self):
        x, y = two_blob_data(50, 3, np.random.default_rng(22))
        kwargs = dict(sigma=2.0, rule=ClippingRule.auto())
        a = fit_softmax(x, y, 2, 30, 0.5, np.random.default_rng(5), **kwargs)
        b = fit_softmax(x, y, 2, 30, 0.5, np.random.default_rng(5), **kwargs)
        assert np.array_equal(a.weights, b.weights)

    def test_example_losses_match_scalar_path(self):
        model = toy_model(3, 4, seed=23)
        rng = np.random.default_rng(24)
        xs = rng.standard_normal((10, 4))
        ys = rng.integers(0, 3, size=10)
        batched = model.example_losses(xs, ys)
        singles = [model.example_loss(x, y) for x, y in zip(xs, ys)]
        assert np.allclose(batched, singles)


def reference_fit_softmax(xs, ys, n_classes, epochs, lr, rng, sigma, rule):
    """Softmax training from the explicit (m, k(d+1)) per-sample gradient matrix."""
    m, d = xs.shape
    weights, bias = np.zeros((n_classes, d)), np.zeros(n_classes)
    for _ in range(epochs):
        z = xs @ weights.T + bias
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(m), ys] -= 1.0
        grads = np.concatenate([np.einsum("mk,md->mkd", p, xs).reshape(m, -1), p], axis=1)
        g = privatize_gradient(grads, rule, sigma, rng)
        weights = weights - lr * g[: n_classes * d].reshape(n_classes, d)
        bias = bias - lr * g[n_classes * d :]
    return weights, bias


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.integers(min_value=1, max_value=16),
    d=st.integers(min_value=1, max_value=6),
    n_classes=st.integers(min_value=2, max_value=4),
    epochs=st.integers(min_value=1, max_value=6),
    scale=st.floats(min_value=0.05, max_value=5.0),
    sigma=st.sampled_from([0.0, 0.3, 2.0]),
    rule=st.sampled_from([None, ClippingRule.auto(), ClippingRule.reparam(0.7)]),
)
@settings(max_examples=80, deadline=None)
def test_fit_softmax_matches_per_sample_gradient_reference(
    seed, m, d, n_classes, epochs, scale, sigma, rule
):
    data = np.random.default_rng(seed)
    xs = scale * data.standard_normal((m, d))
    ys = data.integers(0, n_classes, size=m)
    model = fit_softmax(
        xs, ys, n_classes, epochs, 0.5, np.random.default_rng(seed), sigma=sigma, rule=rule
    )
    ref_rng = np.random.default_rng(seed)
    weights, bias = reference_fit_softmax(xs, ys, n_classes, epochs, 0.5, ref_rng, sigma, rule)
    # W and b as one parameter vector: b alone is a sum of residuals that can
    # cancel to far below the scale of its rounding errors
    got = np.concatenate([model.weights.ravel(), model.bias])
    want = np.concatenate([weights.ravel(), bias])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestFitSoftmaxChecks:
    def test_negative_sigma_rejected(self):
        x, y = two_blob_data(10, 3, np.random.default_rng(30))
        with pytest.raises(ValueError, match="sigma"):
            fit_softmax(x, y, 2, 3, 0.5, np.random.default_rng(0), sigma=-1.0)

    def test_sigma_without_generator_rejected(self):
        x, y = two_blob_data(10, 3, np.random.default_rng(31))
        with pytest.raises(ValueError, match="random generator"):
            fit_softmax(x, y, 2, 3, 0.5, sigma=1.0, rule=ClippingRule.auto())

    def test_zero_sigma_draws_no_noise(self):
        x, y = two_blob_data(10, 3, np.random.default_rng(32))
        rng = np.random.default_rng(33)
        before = rng.bit_generator.state
        fit_softmax(x, y, 2, 3, 0.5, rng, rule=ClippingRule.auto())
        assert rng.bit_generator.state == before


@given(
    ranks=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_auc_matches_scipy_rankdata_reference_under_ties(ranks, seed):
    from scipy.stats import rankdata

    scores = np.asarray(ranks, dtype=float) * 0.25
    labels = np.random.default_rng(seed).integers(0, 2, size=len(scores))
    labels[:2] = [0, 1]
    n_pos, n_neg = int(labels.sum()), int((1 - labels).sum())
    expected = (float(rankdata(scores)[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )
    assert auc_from_scores(scores, labels) == expected


def test_saturated_logits_still_separate_members():
    # logits of -2000 and below: every score is exactly 0.0, yet members rank higher
    labels = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    feats = np.array([[-40.0], [-41.0], [-42.0], [-50.0], [-51.0], [-52.0]])
    clf = MiaClassifier(
        coef=np.array([50.0]), intercept=0.0,
        feature_mean=np.zeros(1), feature_scale=np.ones(1),
    )
    assert np.all(clf.scores(feats) == 0.0)
    ds = MiaDataset(features=feats, labels=labels,
                    train_idx=np.arange(6), test_idx=np.arange(6))
    report = evaluate_mia(clf, ds)
    assert report.auc == 1.0
    assert report.accuracy == 0.5  # every logit is below the 0.5-score threshold


def test_scores_are_the_sigmoid_of_the_logits():
    clf = MiaClassifier(
        coef=np.array([1.0, -2.0]), intercept=0.25,
        feature_mean=np.zeros(2), feature_scale=np.ones(2),
    )
    feats = np.array([[0.0, 0.0], [3.0, 1.0], [-400.0, 400.0], [900.0, -900.0]])
    s = clf.logits(feats)
    expected = np.concatenate([1.0 / (1.0 + np.exp(-s[:2])), [0.0, 1.0]])
    assert np.allclose(clf.scores(feats), expected, rtol=1e-14, atol=0.0)


def test_mia_run_does_not_import_scipy_stats(tmp_path):
    script = (
        "import sys\n"
        "from dplens.cli import run_subcommand\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported at start-up'\n"
        f"code = run_subcommand(['mia', '--config', {str(ROOT / 'configs' / 'mia_toy.json')!r},"
        f" '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert len(list(tmp_path.glob("mia*.csv"))) == 5
