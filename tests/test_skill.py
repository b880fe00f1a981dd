import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microact import ActionClass, SkillLevel, io, load_config, pipeline, skill
from microact.metrics import frame_metrics
from microact.skill import (
    SkillGradientBoosting,
    _grow,
    _leaf_value,
    _log_loss,
    _presort,
    _softmax,
    _sse,
    _tree_predict,
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


def fit_tree(X, r, depth_left, K, gain_sink):
    """One tree on residuals ``r``, grown as ``SkillGradientBoosting.fit``
    grows each."""
    n = r.shape[0]
    return _grow(X, r, np.arange(n), _presort(X), None, depth_left, K,
                 gain_sink, np.empty(n))


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


def fit_tree_per_node(X, r, depth_left, K, gain_sink):
    """The tree grower before the presort: every column stably sorted
    again at every node, and each child grown on a copy of its rows."""
    n = r.shape[0]
    if depth_left == 0 or n < 2 or np.all(r == r[0]):
        return {"leaf": _leaf_value(r, K)}
    parent = _sse(float(r.sum()), float(np.dot(r, r)), n)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    rs = r[order]
    csum = np.cumsum(rs, axis=0)
    csum2 = np.cumsum(rs * rs, axis=0)
    nl = np.arange(1, n)[:, None]
    left = _sse(csum[:-1], csum2[:-1], nl)
    right = _sse(csum[-1] - csum[:-1], csum2[-1] - csum2[:-1], n - nl)
    gain = parent - left - right
    gain[xs[:-1] == xs[1:]] = -np.inf
    f, i = divmod(int(np.argmax(gain.T)), n - 1)
    best_gain = gain[i, f]
    if not best_gain > 1e-12:
        return {"leaf": _leaf_value(r, K)}
    thr = 0.5 * (xs[i, f] + xs[i + 1, f])
    gain_sink[f] += best_gain
    go_left = X[:, f] <= thr
    return {
        "feature": int(f),
        "threshold": float(thr),
        "left": fit_tree_per_node(X[go_left], r[go_left], depth_left - 1, K,
                                  gain_sink),
        "right": fit_tree_per_node(X[~go_left], r[~go_left], depth_left - 1,
                                   K, gain_sink),
    }


def fit_per_node(X, y, **hyper):
    """``SkillGradientBoosting.fit`` before the presort: trees from
    ``fit_tree_per_node``, and scores updated by walking each tree."""
    model = SkillGradientBoosting(**hyper)
    X = np.asarray(X, dtype=np.float64)
    classes, y_idx = np.unique(y, return_inverse=True)
    n, K = X.shape[0], classes.shape[0]
    onehot = np.zeros((n, K))
    onehot[np.arange(n), y_idx] = 1.0
    F = np.zeros((n, K))
    trees, losses, gains = [], [], np.zeros(X.shape[1])
    for _ in range(model.n_estimators):
        P = _softmax(F)
        round_trees = []
        for k in range(K):
            tree = fit_tree_per_node(X, onehot[:, k] - P[:, k],
                                     model.max_depth, K, gains)
            round_trees.append(tree)
            F[:, k] += model.learning_rate * _tree_predict(tree, X)
        trees.append(round_trees)
        losses.append(_log_loss(_softmax(F), y_idx))
    model.classes_, model.trees_ = classes, trees
    model.train_log_loss_ = np.asarray(losses)
    model.n_features_in_ = X.shape[1]
    total = gains.sum()
    model.feature_importances_ = (gains / total if total > 0 else
                                  np.full(X.shape[1], 1.0 / X.shape[1]))
    return model


def model_bytes(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


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
        expect = fit_tree(X, r[:, 0], 2, K, sink)
        assert model.trees_[0][0] == expect

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_tree_matches_scalar_reference_on_ties(self, depth):
        for seed in range(40):
            X, r, K = tie_heavy_case(seed)
            sink, expect_sink = np.zeros(X.shape[1]), np.zeros(X.shape[1])
            tree = fit_tree(X, r, depth, K, sink)
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


@st.composite
def tree_cases(draw):
    """(X, r, K): tie_heavy_case data, or random columns with ties, all-tie
    columns, constant residuals and fewer than two rows mixed in."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return tie_heavy_case(seed)
    rng = np.random.default_rng(seed)
    n, d = draw(st.integers(0, 40)), draw(st.integers(1, 6))
    K = draw(st.integers(2, 3))
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)) * 0.5
    else:
        X = rng.normal(size=(n, d))
    X[:, rng.random(d) < 0.3] = draw(st.sampled_from([-1.0, 0.0, 2.5]))
    if draw(st.booleans()):
        r = np.full(n, draw(st.sampled_from([-0.5, 0.0, 1.0 / 3.0])))
    else:
        r = (rng.integers(0, K, size=n) == 0) - rng.random(n) / K
    return X, r, K


class TestPresortAgainstPerNode:
    @settings(max_examples=300, deadline=None)
    @given(case=tree_cases(), depth=st.integers(1, 4))
    def test_tree_and_gains(self, case, depth):
        X, r, K = case
        sink, expect_sink = np.zeros(X.shape[1]), np.zeros(X.shape[1])
        tree = fit_tree(X, r, depth, K, sink)
        assert json.dumps(tree) == json.dumps(
            fit_tree_per_node(X, r, depth, K, expect_sink))
        assert sink.tobytes() == expect_sink.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=tree_cases(), depth=st.integers(1, 4),
           rounds=st.integers(0, 6))
    def test_fit(self, case, depth, rounds):
        X, r, K = case
        if X.shape[0] < 2:
            return
        y = (np.arange(X.shape[0]) + (r > 0)) % K
        y[:2] = 0, 1
        hyper = {"n_estimators": rounds, "max_depth": depth}
        assert model_bytes(SkillGradientBoosting(**hyper).fit(X, y)) == \
            model_bytes(fit_per_node(X, y, **hyper))


README_PROCS = ((SkillLevel.POOR, 10), (SkillLevel.POOR, 11),
                (SkillLevel.MODERATE, 12), (SkillLevel.MODERATE, 13),
                (SkillLevel.GOOD, 14), (SkillLevel.GOOD, 15))


def default_config(seed, **sections):
    return load_config(environ={}, overrides={"seed": seed, **sections})


@pytest.fixture(scope="module")
def readme_procs(tmp_path_factory):
    """The README's six level-preset 5 fps procedures, every stage run."""
    base = tmp_path_factory.mktemp("readme")
    dirs = []
    for level, seed in README_PROCS:
        d = base / f"{level.name.lower()}{seed}"
        pipeline.stage_synth(d, default_config(seed), level=level)
        pipeline.run_all(d, default_config(0))
        dirs.append(d)
    return dirs


def training_set(dirs, monkeypatch, tmp_path):
    """The X and y ``train_skill`` fits on ``dirs``."""
    seen = []
    fit = SkillGradientBoosting.fit

    def recording(self, X, y):
        seen.append((X, y))
        return fit(self, X, y)

    monkeypatch.setattr(SkillGradientBoosting, "fit", recording)
    pipeline.train_skill(dirs, default_config(0, skill={"n_estimators": 1}),
                         tmp_path / "m.json")
    monkeypatch.undo()
    return seen[0]


def test_readme_fit_at_200_rounds_is_the_per_node_model(readme_procs,
                                                        monkeypatch,
                                                        tmp_path):
    X, y = training_set(readme_procs, monkeypatch, tmp_path)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    SkillGradientBoosting(n_estimators=200, random_state=0).fit(X, y).save(got)
    fit_per_node(X, y, n_estimators=200, random_state=0).save(want)
    assert got.read_bytes() == want.read_bytes()


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


def grade_per_row(proc_dir, cfg, model_path) -> dict:
    """What ``predict_skill`` wrote when it graded one row per call."""
    model = SkillGradientBoosting.load(model_path)
    per_segment, by_action = [], {}
    for index, action, rep, vec in pipeline._skill_rows(proc_dir, cfg):
        level, proba = predict(model, vec)
        per_segment.append({
            "segment_index": index, "action": action.value,
            "repetition": rep, "level": str(level),
            "proba": {str(SkillLevel(c)): float(p)
                      for c, p in zip(model.classes_, proba)}})
        by_action.setdefault(action.value, []).append(int(level))
    summary = {}
    for action, levels in sorted(by_action.items()):
        votes = sorted(((levels.count(v), -v) for v in set(levels)),
                       reverse=True)
        summary[action] = {"level": str(SkillLevel(-votes[0][1])),
                           "n_segments": len(levels)}
    return {"segments": per_segment, "summary": summary}


@pytest.fixture(scope="module")
def readme_model(readme_procs, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    pipeline.train_skill(readme_procs,
                         default_config(0, skill={"n_estimators": 20}), path)
    return path


def counted_grading(monkeypatch) -> list:
    """The row counts of the ``skill.predict`` calls ``predict_skill``
    makes."""
    calls, grade = [], pipeline.skill_predict

    def counting(model, X):
        calls.append(np.shape(X)[0])
        return grade(model, X)

    monkeypatch.setattr(pipeline, "skill_predict", counting)
    return calls


class TestGrading:
    def test_one_call_per_procedure_with_per_row_bytes(
            self, readme_procs, readme_model, monkeypatch, tmp_path):
        calls = counted_grading(monkeypatch)
        cfg = default_config(0)
        for i, d in enumerate(readme_procs):
            out = pipeline.predict_skill(d, cfg, readme_model)
            assert len(calls) == i + 1
            assert calls[-1] == len(out["segments"]) > 0
            want = tmp_path / f"want{i}.json"
            io.save_json(grade_per_row(d, cfg, readme_model), want)
            assert (d / "skill_predictions.json").read_bytes() == \
                want.read_bytes()

    def test_no_rated_segment_writes_the_empty_result(
            self, readme_procs, readme_model, monkeypatch, tmp_path):
        d = tmp_path / "p"
        shutil.copytree(readme_procs[0], d)
        # with K other than 4 the clusters get no action names
        cfg = default_config(0, clustering={"n_clusters": 3})
        pipeline.stage_cluster(d, cfg)
        assert pipeline._skill_rows(d, cfg) == []
        calls = counted_grading(monkeypatch)
        assert pipeline.predict_skill(d, cfg, readme_model) == \
            {"segments": [], "summary": {}}
        assert calls == []
        want = tmp_path / "want.json"
        io.save_json({"segments": [], "summary": {}}, want)
        assert (d / "skill_predictions.json").read_bytes() == \
            want.read_bytes()

    def test_rows_graded_together_as_one_by_one(self):
        X, y = separable_dataset(gap=1.0, seed=2)
        model = SkillGradientBoosting(n_estimators=15).fit(X, y)
        Xq = np.random.default_rng(3).normal(size=(40, X.shape[1])) * 3
        levels, proba = predict(model, Xq)
        assert proba.shape == (40, 3)
        for x, level, p in zip(Xq, levels, proba):
            one_level, one_p = predict(model, x)
            assert level == one_level
            assert p.tobytes() == one_p.tobytes()


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


def per_class_loop(y_true, y_pred, classes) -> dict:
    """Precision, recall, F1 and support of each class, counted one class
    at a time."""
    out = {}
    for cls in classes:
        tp = int(np.sum((y_pred == cls) & (y_true == cls)))
        fp = int(np.sum((y_pred == cls) & (y_true != cls)))
        fn = int(np.sum((y_pred != cls) & (y_true == cls)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[int(cls)] = {"precision": prec, "recall": rec, "f1": f1,
                         "support": int(np.sum(y_true == cls))}
    return out


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

    @pytest.mark.parametrize("seed", range(4))
    def test_per_class_matches_the_confusion_loop(self, monkeypatch, seed):
        # overlapping classes, so the pooled predictions miss and may leave
        # out a class; the scores are frame_metrics' per class, for the
        # true classes only
        pooled = []

        def recording(pred, gt):
            pooled.append((np.array(pred), np.array(gt)))
            return frame_metrics(pred, gt)

        monkeypatch.setattr(skill, "frame_metrics", recording)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 2 + seed % 2, size=40)
        result = cross_validate(X, y, folds=4, seed=seed, n_estimators=5)
        (pred, truth), = pooled
        assert repr(result["per_class"]) == repr(
            per_class_loop(truth, pred, np.unique(truth)))

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
