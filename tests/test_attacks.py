import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplens import attacks
from dplens.attacks import (
    MiaClassifier,
    SoftmaxTask,
    _example_losses,
    auc_from_scores,
    build_mia_dataset,
    evaluate_mia,
    fit_mia_classifier,
    mia_split_sizes,
    two_blob_data,
)
from dplens.cli import Table, _fit_target, _write_csv, run_subcommand, table_columns
from dplens.clipping import ClippingRule
from dplens.trainer import OptimizerConfig, OptimizerState, dp_step
from reference import privatize_gradient

ROOT = Path(__file__).resolve().parents[1]


def toy_target(n_classes=2, dim=4, seed=0):
    """A target task and random weights with zero bias; the features read only the weights."""
    rng = np.random.default_rng(seed)
    w = np.concatenate([rng.standard_normal(n_classes * dim), np.zeros(n_classes)])
    return SoftmaxTask(np.zeros((1, dim)), [0], n_classes), w


def blobs(n, dim, seed):
    return two_blob_data(n, dim, np.random.default_rng(seed), separation=2.0, label_flip=0.1)


class TestBuildDataset:
    def test_balanced_test_split(self):
        rng = np.random.default_rng(1)
        members = blobs(100, 4, 2)
        nonmembers = blobs(100, 4, 3)
        _, (_, test_labels) = build_mia_dataset(
            *toy_target(), members, nonmembers, rng, split_fraction=0.5
        )
        assert (test_labels == 1).sum() == 50
        assert (test_labels == 0).sum() == 50

    def test_overlap_rejected(self):
        members = blobs(20, 3, 4)
        overlap = (members[0][:10], members[1][:10])
        with pytest.raises(ValueError):
            build_mia_dataset(*toy_target(2, 3), members, overlap, np.random.default_rng(0))

    def test_empty_rejected(self):
        members = blobs(20, 3, 5)
        empty = (np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            build_mia_dataset(*toy_target(2, 3), members, empty, np.random.default_rng(0))

    def test_feature_dimension_is_classes_plus_one(self):
        target = toy_target(n_classes=3, dim=5, seed=6)
        members = blobs(30, 5, 7)
        # labels must be valid class ids for the 3-class model
        members = (members[0], members[1] % 3)
        nonmembers = blobs(30, 5, 8)
        nonmembers = (nonmembers[0], nonmembers[1] % 3)
        (x_train, _), (x_test, _) = build_mia_dataset(
            *target, members, nonmembers, np.random.default_rng(9)
        )
        assert x_train.shape[1] == x_test.shape[1] == 4

    def test_deterministic_under_seed(self):
        members = blobs(40, 4, 10)
        nonmembers = blobs(40, 4, 11)
        a = build_mia_dataset(*toy_target(), members, nonmembers, np.random.default_rng(12))
        b = build_mia_dataset(*toy_target(), members, nonmembers, np.random.default_rng(12))
        for split_a, split_b in zip(a, b):
            assert np.array_equal(split_a[0], split_b[0])
            assert np.array_equal(split_a[1], split_b[1])

    def test_member_train_fraction(self):
        members = blobs(100, 4, 13)
        nonmembers = blobs(100, 4, 14)
        (_, train_labels), _ = build_mia_dataset(
            *toy_target(), members, nonmembers, np.random.default_rng(15),
            split_fraction=0.4, member_train_fraction=0.1,
        )
        assert (train_labels == 1).sum() == 10
        assert (train_labels == 0).sum() == 60
        assert mia_split_sizes(100, 100, 0.4, 0.1) == (40, 10)

    def test_too_few_members_rejected(self):
        # the test split takes the one member, and the attack's training
        # split needs one more; the counts alone decide it
        with pytest.raises(ValueError, match="not enough members left"):
            mia_split_sizes(1, 20)
        with pytest.raises(ValueError, match="not enough members left"):
            build_mia_dataset(*toy_target(2, 3), blobs(1, 3, 4), blobs(20, 3, 5),
                              np.random.default_rng(0))

    def test_too_few_nonmembers_rejected(self):
        # the test split takes the one non-member, and would leave the
        # attack's training split a single class
        with pytest.raises(ValueError, match="not enough non-members left"):
            mia_split_sizes(20, 1)
        assert mia_split_sizes(20, 2) == (1, 2)

    def test_each_split_holds_both_labels_at_every_admitted_size(self):
        # every count up to 8 and fractions at and near their bounds: where
        # mia_split_sizes admits the counts, each split holds both labels, in
        # the sizes it gives, members first
        fractions = [(s, m) for s in (0.01, 0.5, 0.99) for m in (0.01, 0.5, 1.0)]
        admitted = 0
        for n_mem in range(1, 9):
            for n_non in range(1, 9):
                for split_fraction, member_train_fraction in fractions:
                    fracs = {"split_fraction": split_fraction,
                             "member_train_fraction": member_train_fraction}
                    try:
                        n_test, n_train_mem = mia_split_sizes(n_mem, n_non, **fracs)
                    except ValueError:
                        continue
                    admitted += 1
                    (_, train_labels), (_, test_labels) = build_mia_dataset(
                        *toy_target(2, 3), blobs(n_mem, 3, 40), blobs(n_non, 3, 41),
                        np.random.default_rng(n_mem * 10 + n_non), **fracs,
                    )
                    assert set(train_labels) == set(test_labels) == {0.0, 1.0}
                    want_train = [1.0] * n_train_mem + [0.0] * (n_non - n_test)
                    assert train_labels.tolist() == want_train
                    assert test_labels.tolist() == [1.0] * n_test + [0.0] * n_test
        assert admitted > 100

    def test_one_logits_pass_per_example_set(self, monkeypatch):
        # the loss feature comes from the same logits as the logit features
        target, w = toy_target()
        calls = []
        logits = target.logits
        monkeypatch.setattr(target, "logits", lambda *a: calls.append(1) or logits(*a))
        build_mia_dataset(target, w, blobs(40, 4, 42), blobs(40, 4, 43), np.random.default_rng(44))
        assert len(calls) == 4  # members and non-members of each split


class TestFitClassifier:
    def test_separable_features_reach_full_training_accuracy(self):
        rng = np.random.default_rng(16)
        n = 60
        feats = np.concatenate([rng.standard_normal((n, 2)) + 4, rng.standard_normal((n, 2)) - 4])
        labels = np.concatenate([np.ones(n), np.zeros(n)])
        clf = fit_mia_classifier(feats, labels)
        pred = (clf.logits(feats) >= 0).astype(float)
        assert (pred == labels).mean() == 1.0

    def test_shuffled_labels_give_chance_auc(self):
        aucs = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            feats = rng.standard_normal((400, 3))
            labels = np.concatenate([np.ones(200), np.zeros(200)])
            rng.shuffle(labels)
            train, test = np.split(rng.permutation(400), 2)
            clf = fit_mia_classifier(feats[train], labels[train])
            *_, auc = evaluate_mia(clf, feats[test], labels[test])
            aucs.append(auc)
        assert abs(np.mean(aucs) - 0.5) <= 0.05

    def test_identical_distributions_give_chance_auc(self):
        rng = np.random.default_rng(17)
        feats = rng.standard_normal((600, 4))
        labels = np.tile([1.0, 0.0], 300)  # both classes in both halves
        clf = fit_mia_classifier(feats[:300], labels[:300])
        *_, auc = evaluate_mia(clf, feats[300:], labels[300:])
        assert abs(auc - 0.5) <= 0.1

    def test_separable_split_gives_finite_coefficients_and_full_auc(self):
        # the weighted loss has no minimiser here; the fit stops on its
        # gradient tolerance with finite coefficients and no warning.  The
        # second column is twice the first, so without the ridge every
        # Newton system is singular
        rng = np.random.default_rng(18)
        sides = np.concatenate([rng.uniform(1.0, 3.0, 80), rng.uniform(-3.0, -1.0, 80)])
        feats = np.column_stack([sides, 2.0 * sides, rng.standard_normal(160)])
        labels = np.concatenate([np.ones(80), np.zeros(80)])
        train, test = np.r_[0:20, 80:140], np.r_[20:80, 140:160]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clf = fit_mia_classifier(feats[train], labels[train])
            *_, auc = evaluate_mia(clf, feats[test], labels[test])
        assert np.all(np.isfinite(clf.coef)) and math.isfinite(clf.intercept)
        assert auc == 1.0

    def test_fit_matches_scipy_lbfgs_reference(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(19)
        feats = np.concatenate(
            [rng.standard_normal((40, 3)) + [0.8, 0.0, -0.5], rng.standard_normal((160, 3))]
        ) * [1.0, 10.0, 0.1]
        labels = np.concatenate([np.ones(40), np.zeros(160)])
        x, y = feats[::2], labels[::2]
        clf = fit_mia_classifier(x, y)

        design = np.column_stack([(x - x.mean(axis=0)) / x.std(axis=0), np.ones(len(y))])
        weights = np.where(y == 1, len(y) / (2 * y.sum()), len(y) / (2 * (len(y) - y.sum())))
        signs = 2 * y - 1

        def objective(theta):
            margins = signs * (design @ theta)
            slopes = -signs * weights * np.exp(-np.logaddexp(0.0, margins))
            return weights @ np.logaddexp(0.0, -margins), design.T @ slopes

        # ftol is lowered too: its default stops L-BFGS-B about 3e-6 from the optimum
        reference = minimize(
            objective, np.zeros(4), jac=True, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15},
        ).x
        np.testing.assert_allclose(np.append(clf.coef, clf.intercept), reference, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "case", ["nan-feature", "overflowing-scale", "singular-system", "non-finite-step"]
    )
    def test_failed_fit_is_a_floating_point_error(self, case, monkeypatch):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((40, 3))
        if case == "nan-feature":
            feats[-1, 0] = np.nan
        if case == "overflowing-scale":
            feats *= 1e300
        if case == "singular-system":
            def solve(a, b):
                raise np.linalg.LinAlgError("Singular matrix")
            monkeypatch.setattr(np.linalg, "solve", solve)
        if case == "non-finite-step":
            monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                fit_mia_classifier(feats, np.tile([1.0, 0.0], 20))

    @pytest.mark.parametrize("label", [1.0, 0.0], ids=["members-only", "nonmembers-only"])
    def test_one_label_split_is_refused(self, label):
        feats = np.arange(8.0).reshape(4, 2)
        labels = np.full(4, label)
        with pytest.raises(ValueError, match="needs members and non-members"):
            fit_mia_classifier(feats, labels)
        clf = fit_mia_classifier(feats, np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="AUC needs both classes"):
            evaluate_mia(clf, feats, labels)

    def test_non_finite_test_features_are_a_floating_point_error(self):
        feats = np.arange(8.0).reshape(4, 2)
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        clf = fit_mia_classifier(feats, labels)
        feats[-1, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite attack features"):
            evaluate_mia(clf, feats, labels)


class TestEvaluate:
    def _dataset(self, scores_labels):
        labels = np.array([lab for _, lab in scores_labels], dtype=float)
        feats = np.array([[s] for s, _ in scores_labels])
        return feats, labels

    def test_perfect_scores(self):
        labels = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        feats = np.array([[10.0], [9.0], [-9.0], [-10.0], [8.0], [-8.0]])
        clf = MiaClassifier(
            coef=np.array([5.0]), intercept=0.0,
            feature_mean=np.zeros(1), feature_scale=np.ones(1),
        )
        assert evaluate_mia(clf, feats, labels) == [1.0] * 5

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
        accuracy, precision, recall, f1, auc = evaluate_mia(clf, feats, labels)
        # threshold 0.5 on sigmoid(x - 0.5): predicted 1 iff x > 0.5
        # TP=1 (0.9), FP=1 (0.6), FN=1 (0.4), TN=1 (0.1)
        assert accuracy == 0.5
        assert precision == 0.5
        assert recall == 0.5
        assert f1 == 0.5
        assert auc == pytest.approx(0.75)

    def test_f1_consistent(self):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((80, 3))
        labels = (rng.random(80) < 0.5).astype(float)
        if labels.sum() in (0, 80):
            labels[0] = 1 - labels[0]
        _, precision, recall, f1, _ = evaluate_mia(
            fit_mia_classifier(feats, labels), feats, labels
        )
        if precision + recall > 0:
            assert f1 == pytest.approx(2 * precision * recall / (precision + recall))

    def test_csv_row(self, tmp_path):
        # members [0.9, 0.2, 0.3, 0.4], non-members [0.8, 0.45, 0.35, 0.1]:
        # TP=1, FN=3, FP=1, TN=3, and members outrank 8 of the 16 pairs
        feats = np.array([[0.9], [0.2], [0.3], [0.4], [0.8], [0.45], [0.35], [0.1]])
        labels = np.repeat([1.0, 0.0], 4)
        clf = MiaClassifier(
            coef=np.array([1.0]), intercept=-0.5,
            feature_mean=np.zeros(1), feature_scale=np.ones(1),
        )
        row = ["nondp", float("inf"), *evaluate_mia(clf, feats, labels)]
        path = _write_csv(tmp_path / "mia.csv", Table(table_columns("mia", {}), [row]))
        header, row = path.read_text().splitlines()
        assert header == "model_id,epsilon,accuracy,precision,recall,f1,auc"
        assert row == f"nondp,inf,0.5,0.5,0.25,{1 / 3!r},0.5"


AUTO = ClippingRule("auto")


class TestSoftmaxTraining:
    def test_nondp_fits_separable_blobs(self):
        x, y = two_blob_data(200, 4, np.random.default_rng(21), separation=4.0)
        task = SoftmaxTask(x, y, 2)
        w = _fit_target(task, 300, 0.5, None, 0.0, None)
        pred = np.argmax(task.logits(w, x), axis=1)
        assert (pred == y).mean() >= 0.95

    def test_dp_training_is_seed_deterministic(self):
        x, y = two_blob_data(50, 3, np.random.default_rng(22))
        task = SoftmaxTask(x, y, 2)
        a = _fit_target(task, 30, 0.5, AUTO, 2.0, np.random.default_rng(5))
        b = _fit_target(task, 30, 0.5, AUTO, 2.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_example_losses_match_scalar_path(self):
        task, w = toy_target(3, 4, seed=23)
        weights, bias = w[:12].reshape(3, 4), w[12:]
        rng = np.random.default_rng(24)
        xs = rng.standard_normal((10, 4))
        ys = rng.integers(0, 3, size=10)
        batched = _example_losses(task.logits(w, xs), ys)

        def example_loss(x, y):
            z = weights @ x + bias
            z = z - z.max()
            return float(np.log(np.exp(z).sum()) - z[y])

        singles = [example_loss(x, y) for x, y in zip(xs, ys)]
        assert np.allclose(batched, singles)

    def test_step_loss_is_the_mean_example_loss(self):
        rng = np.random.default_rng(25)
        xs = 3.0 * rng.standard_normal((20, 5))
        ys = rng.integers(0, 3, size=20)
        task = SoftmaxTask(xs, ys, 3)
        w = rng.standard_normal(task.dimension)
        loss, _ = task.loss_and_weighted_gradient_sum(w, None)
        assert loss == pytest.approx(_example_losses(task.logits(w, xs), ys).mean(), rel=1e-13)


def reference_softmax_training(xs, ys, n_classes, epochs, lr, rng, sigma, rule):
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
    rule=st.sampled_from([None, ClippingRule("auto"), ClippingRule(r=0.7)]),
)
@settings(max_examples=80, deadline=None)
def test_dp_steps_on_softmax_task_match_per_sample_gradient_reference(
    seed, m, d, n_classes, epochs, scale, sigma, rule
):
    data = np.random.default_rng(seed)
    xs = scale * data.standard_normal((m, d))
    ys = data.integers(0, n_classes, size=m)
    task = SoftmaxTask(xs, ys, n_classes)
    got = _fit_target(task, epochs, 0.5, rule, sigma, np.random.default_rng(seed))
    ref_rng = np.random.default_rng(seed)
    weights, bias = reference_softmax_training(
        xs, ys, n_classes, epochs, 0.5, ref_rng, sigma, rule
    )
    # W and b as one parameter vector: b alone is a sum of residuals that can
    # cancel to far below the scale of its rounding errors
    want = np.concatenate([weights.ravel(), bias])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSoftmaxDpStepChecks:
    def _step(self, sigma, rule, rng):
        task = SoftmaxTask(*two_blob_data(10, 3, np.random.default_rng(30)), 2)
        state = OptimizerState.zeros(task.dimension)
        w = np.zeros(task.dimension)
        return dp_step(task, w, None, 10, rule, sigma, OptimizerConfig("sgd", 0.5), state, rng)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            self._step(-1.0, None, np.random.default_rng(0))

    def test_sigma_without_generator_rejected(self):
        with pytest.raises(ValueError, match="random generator"):
            self._step(1.0, AUTO, None)

    def test_zero_sigma_draws_no_noise(self):
        rng = np.random.default_rng(33)
        before = rng.bit_generator.state
        self._step(0.0, AUTO, rng)
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
    assert np.all(0.5 * (1.0 + np.tanh(0.5 * clf.logits(feats))) == 0.0)
    accuracy, *_, auc = evaluate_mia(clf, feats, labels)
    assert auc == 1.0
    assert accuracy == 0.5  # every logit is below the 0.5-score threshold


def test_mia_run_does_not_import_scipy_stats(tmp_path):
    script = (
        "import sys\n"
        "from dplens.cli import run_subcommand\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported at start-up'\n"
        f"code = run_subcommand(['mia', '--config', {str(ROOT / 'configs' / 'mia_toy.json')!r},"
        f" '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
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


def run_mia(tmp_path, **changes):
    """The exit code of ``mia`` on seed 0 of the shipped toy config, with ``changes``."""
    payload = {**json.loads((ROOT / "configs" / "mia_toy.json").read_text()), "seeds": [0]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, **changes}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_subcommand(["mia", "--config", str(path), "--out", str(tmp_path / "out")])


def test_non_finite_test_features_exit_2_without_csv(tmp_path, capsys, monkeypatch):
    # the fit reads only the training split; the test split is checked too
    def build(*args, **kwargs):
        train, (x_test, y_test) = build_mia_dataset(*args, **kwargs)
        x_test[-1, 0] = np.nan
        return train, (x_test, y_test)

    monkeypatch.setattr(attacks, "build_mia_dataset", build)
    assert run_mia(tmp_path) == 2
    assert "numerical error: non-finite attack features" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


def test_overflowing_target_training_exits_2_without_csv(tmp_path, capsys):
    assert run_mia(tmp_path, lr=1e308) == 2
    assert "numerical error: non-finite training loss" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("lr", [1e308, 1e300])
def test_target_diverging_in_its_last_step_exits_2_without_csv(lr, tmp_path, capsys):
    # one epoch: the only loss is checked before the update, so the huge
    # weights reach the attack, whose features overflow (1e308) or whose
    # standardisation does (1e300); run_mia turns any RuntimeWarning into an error
    assert run_mia(tmp_path, lr=lr, epochs=1) == 2
    assert "numerical error" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.parametrize("lr", [0.0, -0.5])
def test_nonpositive_learning_rate_exits_1_without_csv(lr, tmp_path, capsys):
    # the mia schema bounds each value at load, before any seed runs;
    # OptimizerConfig and build_mia_dataset keep their checks for library callers
    assert run_mia(tmp_path, lr=lr) == 1
    assert capsys.readouterr().err.endswith(
        f"fails validation: {lr!r} is less than or equal to the minimum of 0\n"
    )
    assert not list(tmp_path.glob("out/*.csv"))


# the message of the schema bound that each value breaks
FRACTION_MESSAGES = {
    ("member_train_fraction", -1.0): "-1.0 is less than or equal to the minimum of 0",
    ("member_train_fraction", 0.0): "0.0 is less than or equal to the minimum of 0",
    ("label_flip", 2.0): "2.0 is greater than the maximum of 1",
    ("label_flip", -0.3): "-0.3 is less than the minimum of 0",
}


@pytest.mark.parametrize("key, value", list(FRACTION_MESSAGES))
def test_out_of_range_fraction_exits_1_without_csv(key, value, tmp_path, capsys):
    assert run_mia(tmp_path, **{key: value}) == 1
    assert capsys.readouterr().err.endswith(
        f"fails validation: {FRACTION_MESSAGES[key, value]}\n"
    )
    assert not list(tmp_path.glob("out/*.csv"))
