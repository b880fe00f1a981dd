import json

import numpy as np
import pytest

from microact import ActionClass, SkillLevel
from microact.skill import (
    SkillGradientBoosting,
    _fit_tree,
    _leaf_value,
    _softmax,
    _sse,
    cross_validate,
    discretize_score,
    predict,
    skill_feature_vector,
    stratified_fold_assignment,
)


def separable_dataset(n_per_class=20, gap=10.0, seed=0, d=3):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for k in range(3):
        X.append(rng.normal(size=(n_per_class, d)) + k * gap)
        y += [k] * n_per_class
    return np.vstack(X), np.asarray(y)


def fit_tree_scalar(X, r, depth_left, K, gain_sink):
    """Reference tree grower: one stable sort per feature and a scalar scan
    of its split positions, keeping the first strictly better gain."""
    n = r.shape[0]
    if depth_left == 0 or n < 2 or np.all(r == r[0]):
        return {"leaf": _leaf_value(r, K)}
    best_gain = 1e-12
    best = None
    parent = _sse(float(r.sum()), float(np.dot(r, r)), n)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        rs = r[order]
        csum = np.cumsum(rs)
        csum2 = np.cumsum(rs * rs)
        total, total2 = csum[-1], csum2[-1]
        for i in np.flatnonzero(xs[:-1] < xs[1:]):
            nl = i + 1
            left = _sse(float(csum[i]), float(csum2[i]), nl)
            right = _sse(float(total - csum[i]), float(total2 - csum2[i]), n - nl)
            gain = parent - left - right
            if gain > best_gain:
                best_gain = gain
                best = (f, 0.5 * (xs[i] + xs[i + 1]))
    if best is None:
        return {"leaf": _leaf_value(r, K)}
    f, thr = best
    gain_sink[f] += best_gain
    go_left = X[:, f] <= thr
    return {
        "feature": int(f),
        "threshold": float(thr),
        "left": fit_tree_scalar(X[go_left], r[go_left], depth_left - 1, K, gain_sink),
        "right": fit_tree_scalar(X[~go_left], r[~go_left], depth_left - 1, K, gain_sink),
    }


def tie_heavy_case(seed):
    """Small integer-valued columns plus a duplicated and a constant column,
    and residuals taking only the values one-hot minus 1/K."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 5, 12, 40]))
    K = int(rng.integers(2, 4))
    X = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
    X = np.column_stack([X, X[:, 1], np.full(n, 7.0)])
    X = X[:, rng.permutation(X.shape[1])]
    r = (rng.integers(0, K, size=n) == 0) - 1.0 / K
    return X, r, K


class TestDiscretize:
    @pytest.mark.parametrize("score,level", [
        (1.0, SkillLevel.POOR),
        (2.5, SkillLevel.POOR),
        (2.50001, SkillLevel.MODERATE),
        (3.0, SkillLevel.MODERATE),
        (3.5, SkillLevel.MODERATE),
        (3.6, SkillLevel.GOOD),
        (5.0, SkillLevel.GOOD),
    ])
    def test_thresholds(self, score, level):
        assert discretize_score(score) == level

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            discretize_score(0.9)
        with pytest.raises(ValueError):
            discretize_score(5.1)

    def test_custom_thresholds(self):
        assert discretize_score(2.0, thresholds=(1.5, 4.5)) == SkillLevel.MODERATE

    def test_level_ordering(self):
        assert SkillLevel.POOR < SkillLevel.MODERATE < SkillLevel.GOOD


class TestSkillFeatureVector:
    def test_layout(self):
        f = np.array([1.0, 2.0])
        v = skill_feature_vector(f, ActionClass.KNOT_TYING, repetition=3,
                                 duration_s=12.5)
        assert v.shape == (2 + 4 + 2,)
        onehot = v[2:6]
        assert onehot.sum() == 1.0
        assert onehot[list(ActionClass).index(ActionClass.KNOT_TYING)] == 1.0
        assert v[6] == 3.0 and v[7] == 12.5

    def test_duration_positive(self):
        with pytest.raises(ValueError, match="duration"):
            skill_feature_vector(np.zeros(2), ActionClass.CUTTING, 0, 0.0)


class TestTraining:
    def test_separable_threshold_perfect_within_10_rounds(self):
        X = np.linspace(0, 1, 30).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(int)
        model = SkillGradientBoosting(n_estimators=10).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_noise_labels_stay_near_majority_rate(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 4))
        y = rng.integers(0, 2, size=300)
        y[:180] = 0  # majority rate 0.6 + noise tail
        model = SkillGradientBoosting(n_estimators=5, max_depth=1).fit(X, y)
        acc = float(np.mean(model.predict(X) == y))
        majority = max(np.bincount(y)) / len(y)
        assert acc < 1.0
        assert abs(acc - majority) < 0.15

    def test_first_round_residuals_uniform_prior(self):
        # with zero initial scores softmax is uniform, so residuals are
        # exactly one-hot minus 1/K
        n, K = 12, 3
        P = _softmax(np.zeros((n, K)))
        assert np.allclose(P, 1.0 / 3.0)
        y = np.arange(n) % K
        onehot = np.eye(K)[y]
        r = onehot - P
        assert np.allclose(r[0], [2 / 3, -1 / 3, -1 / 3])
        # and the fitted first tree is the tree grown on those residuals
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, 2))
        model = SkillGradientBoosting(n_estimators=1, max_depth=2).fit(X, y)
        sink = np.zeros(2)
        expect = _fit_tree(X, r[:, 0], 2, K, sink)
        assert model.trees_[0][0] == expect

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_tree_matches_scalar_reference_on_ties(self, depth):
        for seed in range(40):
            X, r, K = tie_heavy_case(seed)
            sink, expect_sink = np.zeros(X.shape[1]), np.zeros(X.shape[1])
            tree = _fit_tree(X, r, depth, K, sink)
            assert tree == fit_tree_scalar(X, r, depth, K, expect_sink), f"seed {seed}"
            assert np.array_equal(sink, expect_sink), f"seed {seed}"

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            SkillGradientBoosting().fit(np.zeros((5, 2)), [1, 1, 1, 1, 1])

    def test_zero_feature_columns_rejected(self):
        with pytest.raises(ValueError, match="no feature columns"):
            SkillGradientBoosting(n_estimators=2).fit(np.zeros((4, 0)), [0, 1, 0, 1])

    def test_log_loss_nonincreasing_random_datasets(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 80))
            d = int(rng.integers(1, 6))
            K = int(rng.integers(2, 4))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, K, size=n)
            if len(np.unique(y)) < 2:
                y[0] = 0
                y[1] = 1
            model = SkillGradientBoosting(n_estimators=60).fit(X, y)
            ll = model.train_log_loss_
            assert np.all(np.diff(ll) <= 1e-12), f"seed {seed}"

    def test_retrain_bit_identical(self):
        X, y = separable_dataset(gap=2.0, seed=3)
        m1 = SkillGradientBoosting(n_estimators=40).fit(X, y)
        m2 = SkillGradientBoosting(n_estimators=40).fit(X, y)
        assert json.dumps(m1.to_dict(), sort_keys=True) == \
            json.dumps(m2.to_dict(), sort_keys=True)
        Xq = np.random.default_rng(0).normal(size=(10, X.shape[1]))
        assert np.array_equal(m1.predict_proba(Xq), m2.predict_proba(Xq))

    def test_feature_importances_normalized(self):
        X, y = separable_dataset(gap=3.0)
        model = SkillGradientBoosting(n_estimators=20).fit(X, y)
        imp = model.feature_importances_
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)

    def test_importances_uniform_when_no_splits(self):
        X = np.zeros((10, 3))  # constant features, nothing to split on
        y = np.arange(10) % 2
        model = SkillGradientBoosting(n_estimators=3).fit(X, y)
        assert np.allclose(model.feature_importances_, 1 / 3)


class TestPredict:
    def test_empty_ensemble_uniform_and_poor(self):
        X = np.zeros((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        model = SkillGradientBoosting(n_estimators=0).fit(X, y)
        level, proba = predict(model, np.array([5.0, -3.0]))
        assert np.allclose(proba, 1 / 3)
        assert level == SkillLevel.POOR  # tie resolves to the lower level

    def test_separable_point_recovers_label_confidently(self):
        X, y = separable_dataset(gap=10.0)
        model = SkillGradientBoosting(n_estimators=50).fit(X, y)
        level, proba = predict(model, X[0])
        assert int(level) == y[0]
        assert proba[y[0]] > 0.9

    def test_probabilities_sum_to_one(self):
        X, y = separable_dataset(gap=1.0, seed=9)
        model = SkillGradientBoosting(n_estimators=30).fit(X, y)
        rng = np.random.default_rng(1)
        P = model.predict_proba(rng.normal(size=(50, X.shape[1])) * 10)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(P > 0) and np.all(P < 1)

    def test_dimension_mismatch(self):
        X, y = separable_dataset()
        model = SkillGradientBoosting(n_estimators=2).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.zeros((2, X.shape[1] + 1)))

    def test_unfitted_raises(self):
        with pytest.raises(AttributeError):
            SkillGradientBoosting().predict(np.zeros((1, 2)))


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        X, y = separable_dataset(gap=4.0, seed=5)
        model = SkillGradientBoosting(n_estimators=25).fit(X, y)
        p = tmp_path / "model.json"
        model.save(p)
        loaded = SkillGradientBoosting.load(p)
        assert loaded.to_dict() == model.to_dict()
        Xq = np.random.default_rng(2).normal(size=(20, X.shape[1]))
        assert np.array_equal(loaded.predict_proba(Xq), model.predict_proba(Xq))

    def test_save_writes_the_bytes_of_json_dump(self, tmp_path):
        # save encodes with json.dumps (the C encoder); json.dump, the
        # pure-Python one, is the oracle
        X, y = separable_dataset(gap=1.0, seed=7)
        model = SkillGradientBoosting(n_estimators=12, max_depth=3).fit(X, y)
        p, want = tmp_path / "model.json", tmp_path / "want.json"
        model.save(p)
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(model.to_dict(), fh, sort_keys=True)
            fh.write("\n")
        assert p.read_bytes() == want.read_bytes()

    def test_unsupported_version_rejected(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="format"):
            SkillGradientBoosting.load(p)


    @pytest.mark.parametrize("edit, where, problem", [
        (lambda d: d["trees"][0][0].pop("threshold"), "trees[0][0]",
         "missing 'threshold'"),
        (lambda d: d["trees"][0][0].update(feature=3), "trees[0][0]",
         "feature 3 not in [0, 3)"),
        (lambda d: d["trees"][0][0].update(feature=True), "trees[0][0]",
         "feature True not in [0, 3)"),
        (lambda d: d["trees"][0][0].update(threshold="0.5"), "trees[0][0]",
         "threshold is not a number"),
        (lambda d: d["trees"][1][2]["left"].update(leaf=None),
         "trees[1][2].left", "leaf is not a number"),
        (lambda d: d["trees"][1][2].update(right=[]), "trees[1][2].right",
         "not an object"),
        (lambda d: d["trees"][1].pop(), "trees[1]",
         "is not a list of 3 trees, one per class"),
    ], ids=["no-threshold", "feature-range", "bool-feature", "str-threshold",
            "null-leaf", "list-child", "short-round"])
    def test_bad_tree_node_named(self, tmp_path, edit, where, problem):
        X, y = separable_dataset(gap=4.0, seed=5)
        doc = SkillGradientBoosting(n_estimators=2, max_depth=1).fit(
            X, y).to_dict()
        for round_trees in doc["trees"]:
            for tree in round_trees:  # every tree a split, whatever the fit
                tree.clear()
                tree.update(feature=0, threshold=0.5, left={"leaf": 0.0},
                            right={"leaf": 1.0})
        edit(doc)
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            SkillGradientBoosting.load(p)
        assert str(exc.value).startswith(f"{p}: {where}")
        assert problem in str(exc.value)


class TestCrossValidation:
    def test_separable_all_folds_perfect(self):
        X, y = separable_dataset(n_per_class=10, gap=10.0)
        result = cross_validate(X, y, folds=5, seed=0, n_estimators=30)
        assert result["fold_accuracy"] == [1.0] * 5
        assert result["accuracy"] == 1.0

    def test_four_sigma_gaussians_accuracy(self):
        rng = np.random.default_rng(12)
        X, y = [], []
        for k in range(3):
            X.append(rng.normal(loc=4.0 * k, scale=1.0, size=(30, 2)))
            y += [k] * 30
        result = cross_validate(np.vstack(X), np.asarray(y), folds=5, seed=1,
                                n_estimators=80)
        assert result["accuracy"] >= 0.95

    def test_small_class_warns(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.array([0] * 17 + [1] * 3)
        with pytest.warns(UserWarning, match="fewer than"):
            cross_validate(X, y, folds=5, n_estimators=2)

    def test_deterministic(self):
        X, y = separable_dataset(n_per_class=8, gap=3.0)
        r1 = cross_validate(X, y, folds=4, seed=7, n_estimators=10)
        r2 = cross_validate(X, y, folds=4, seed=7, n_estimators=10)
        assert r1 == r2

    def test_per_class_report_shape(self):
        X, y = separable_dataset(n_per_class=10, gap=8.0)
        result = cross_validate(X, y, folds=5, n_estimators=20)
        assert set(result["per_class"]) == {0, 1, 2}
        for stats in result["per_class"].values():
            assert set(stats) == {"precision", "recall", "f1", "support"}

    def test_empty_fold_has_no_score(self):
        # classes of 3 and 2 rows deal nothing to folds 3 and 4
        with pytest.warns(UserWarning, match="fewer than"):
            result = cross_validate(np.arange(10.).reshape(5, 2), [0, 0, 0, 1, 1],
                                    folds=5, n_estimators=3)
        assert result["fold_accuracy"][3:] == [None, None]

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="folds"):
            cross_validate(np.zeros((3, 1)), [0, 1, 0], folds=5)


class TestSplits:
    def test_fold_assignment_balanced(self):
        rng = np.random.default_rng(0)
        y = np.array([0] * 25 + [1] * 25)
        folds = stratified_fold_assignment(y, 5, rng)
        for f in range(5):
            assert np.sum((folds == f) & (y == 0)) == 5
            assert np.sum((folds == f) & (y == 1)) == 5
