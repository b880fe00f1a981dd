"""Skill grading: score discretization, a from-scratch gradient-boosted
tree classifier, and a stratified cross-validation harness.

The booster is multiclass with a softmax link and log loss.  Each round
fits one exact-greedy regression tree per class to the current residuals
(one-hot minus predicted probability); leaves carry the standard Newton
value for that loss.  Each node finds its split with one presorted
cumulative-sum pass over all features and positions at once (Friedman
2001; the exact greedy algorithm of XGBoost, Chen & Guestrin 2016); equal
gains go to the first feature, then the first position.  Training uses no
randomness at all, so retraining with the same inputs is bit-for-bit
reproducible.
"""

from __future__ import annotations

import json
import warnings
from typing import Optional

import numpy as np

from .io import atomic_write
from .records import ActionClass, SkillLevel
from .validation import ParamsMixin, check_array, check_fitted, check_positive_int

DEFAULT_THRESHOLDS = (2.5, 3.5)
LEAF_VALUE_CAP = 10.0  # damps Newton blowup when residual curvature vanishes


def discretize_score(score: float,
                     thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> SkillLevel:
    """Map a 1-5 expert score to a level: Poor <= t0 < Moderate <= t1 < Good."""
    score = float(score)
    if not 1.0 <= score <= 5.0:
        raise ValueError(f"score {score} outside [1, 5]")
    t0, t1 = thresholds
    if score <= t0:
        return SkillLevel.POOR
    if score <= t1:
        return SkillLevel.MODERATE
    return SkillLevel.GOOD


def skill_feature_vector(segment_summary: np.ndarray, action: ActionClass,
                         repetition: int, duration_s: float) -> np.ndarray:
    """Classifier input: Eq.-5 style summary ++ one-hot action ++
    repetition ordinal ++ duration."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    onehot = [1.0 if action == a else 0.0 for a in ActionClass]
    vec = np.concatenate([
        np.asarray(segment_summary, dtype=np.float64).ravel(),
        onehot, [float(repetition)], [float(duration_s)]])
    if not np.isfinite(vec).all():
        raise ValueError("skill feature vector contains NaN or inf")
    return vec


# ---------------------------------------------------------------------------
# regression tree (exact greedy, variance-reduction splits)
#
# Every column is stably sorted once per node; column-wise cumulative sums
# of r and r*r give the SSE of every left/right split, so the gain of all
# (position, feature) pairs comes out of one array expression.  The split
# taken has the strictly highest gain above 1e-12, ties going to the first
# feature and then the first position; its threshold is the midpoint of
# the two distinct neighbouring values.


def _sse(s: float, s2: float, n: int) -> float:
    return s2 - s * s / n


def _leaf_value(residuals: np.ndarray, K: int) -> float:
    num = float(residuals.sum())
    den = float(np.sum(np.abs(residuals) * (1.0 - np.abs(residuals))))
    if den <= 1e-150:
        return 0.0
    v = (K - 1) / K * num / den
    return float(np.clip(v, -LEAF_VALUE_CAP, LEAF_VALUE_CAP))


def _fit_tree(X: np.ndarray, r: np.ndarray, depth_left: int, K: int,
              gain_sink: np.ndarray) -> dict:
    n = r.shape[0]
    if depth_left == 0 or n < 2 or np.all(r == r[0]):
        return {"leaf": _leaf_value(r, K)}
    parent = _sse(float(r.sum()), float(np.dot(r, r)), n)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    rs = r[order]
    csum = np.cumsum(rs, axis=0)
    csum2 = np.cumsum(rs * rs, axis=0)
    # gain[i, f]: split feature f after sorted position i (left = first
    # i+1 rows); only between distinct feature values
    nl = np.arange(1, n)[:, None]
    left = _sse(csum[:-1], csum2[:-1], nl)
    right = _sse(csum[-1] - csum[:-1], csum2[-1] - csum2[:-1], n - nl)
    gain = parent - left - right
    gain[xs[:-1] == xs[1:]] = -np.inf
    # argmax over the feature-major flattening returns the first feature,
    # then the first position, holding the highest gain
    f, i = divmod(int(np.argmax(gain.T)), n - 1)
    best_gain = gain[i, f]
    if not best_gain > 1e-12:  # require strictly useful splits
        return {"leaf": _leaf_value(r, K)}
    thr = 0.5 * (xs[i, f] + xs[i + 1, f])
    gain_sink[f] += best_gain
    go_left = X[:, f] <= thr
    return {
        "feature": int(f),
        "threshold": float(thr),
        "left": _fit_tree(X[go_left], r[go_left], depth_left - 1, K, gain_sink),
        "right": _fit_tree(X[~go_left], r[~go_left], depth_left - 1, K, gain_sink),
    }


def _tree_predict(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    # iterative stack walk; trees are depth <= 3 so recursion depth is no
    # concern, but batching by node keeps it vectorized
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if "leaf" in node:
            out[idx] = node["leaf"]
            continue
        go_left = X[idx, node["feature"]] <= node["threshold"]
        stack.append((node["left"], idx[go_left]))
        stack.append((node["right"], idx[~go_left]))
    return out


def _softmax(F: np.ndarray) -> np.ndarray:
    Z = F - F.max(axis=1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


def _log_loss(P: np.ndarray, y_idx: np.ndarray) -> float:
    p = np.clip(P[np.arange(len(y_idx)), y_idx], 1e-15, 1.0)
    return float(-np.mean(np.log(p)))


class SkillGradientBoosting(ParamsMixin):
    """Multiclass gradient boosting over shallow regression trees.

    Parameters
    ----------
    n_estimators : boosting rounds (default 200)
    learning_rate : shrinkage on leaf values (default 0.1)
    max_depth : per-tree depth cap (default 3)
    random_state : accepted for API symmetry; fitting is deterministic and
        never draws from it

    Attributes after fit
    --------------------
    classes_ : sorted class values seen in y
    trees_ : per-round list of per-class trees
    train_log_loss_ : training log loss after each round (nonincreasing)
    feature_importances_ : normalized split-gain totals
    n_features_in_ : training feature count
    """

    def __init__(self, n_estimators: int = 200, learning_rate: float = 0.1,
                 max_depth: int = 3, random_state: Optional[int] = 0):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state

    def fit(self, X, y):
        X = check_array(X, name="X")
        if X.shape[1] == 0:
            raise ValueError("X has no feature columns")
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-D and aligned with X")
        check_positive_int(self.n_estimators, "n_estimators", minimum=0)
        check_positive_int(self.max_depth, "max_depth")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        classes, y_idx = np.unique(y, return_inverse=True)
        if classes.shape[0] < 2:
            raise ValueError("need at least 2 classes to fit")
        K = classes.shape[0]
        n = X.shape[0]
        onehot = np.zeros((n, K))
        onehot[np.arange(n), y_idx] = 1.0

        F = np.zeros((n, K))
        trees: list[list[dict]] = []
        losses: list[float] = []
        gains = np.zeros(X.shape[1])
        for _ in range(self.n_estimators):
            P = _softmax(F)
            round_trees = []
            for k in range(K):
                r = onehot[:, k] - P[:, k]
                tree = _fit_tree(X, r, self.max_depth, K, gains)
                round_trees.append(tree)
                F[:, k] += self.learning_rate * _tree_predict(tree, X)
            trees.append(round_trees)
            losses.append(_log_loss(_softmax(F), y_idx))

        self.classes_ = classes
        self.trees_ = trees
        self.train_log_loss_ = np.asarray(losses)
        self.n_features_in_ = X.shape[1]
        total = gains.sum()
        if total > 0:
            self.feature_importances_ = gains / total
        else:
            self.feature_importances_ = np.full(X.shape[1], 1.0 / X.shape[1])
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self, ["trees_"])
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; fitted on {self.n_features_in_}")
        K = len(self.classes_)
        F = np.zeros((X.shape[0], K))
        for round_trees in self.trees_:
            for k in range(K):
                F[:, k] += self.learning_rate * _tree_predict(round_trees[k], X)
        return F

    def predict_proba(self, X) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        # argmax takes the first maximum, i.e. ties resolve to the lower
        # level; conservative grading
        P = self.predict_proba(X)
        return self.classes_[np.argmax(P, axis=1)]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        check_fitted(self, ["trees_"])
        return {
            "format_version": 1,
            "hyperparameters": {
                "n_estimators": self.n_estimators,
                "learning_rate": self.learning_rate,
                "max_depth": self.max_depth,
                "random_state": self.random_state,
            },
            "classes": [int(c) for c in self.classes_],
            "n_features": int(self.n_features_in_),
            "trees": self.trees_,
            "train_log_loss": [float(v) for v in self.train_log_loss_],
            "feature_importances": [float(v) for v in self.feature_importances_],
        }

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, obj: dict) -> "SkillGradientBoosting":
        if obj.get("format_version") != 1:
            raise ValueError(f"unsupported model format {obj.get('format_version')!r}")
        hp = obj["hyperparameters"]
        model = cls(n_estimators=hp["n_estimators"],
                    learning_rate=hp["learning_rate"],
                    max_depth=hp["max_depth"],
                    random_state=hp.get("random_state"))
        model.classes_ = np.asarray(obj["classes"])
        model.trees_ = obj["trees"]
        model.train_log_loss_ = np.asarray(obj["train_log_loss"])
        model.feature_importances_ = np.asarray(obj["feature_importances"])
        model.n_features_in_ = obj["n_features"]
        return model

    @classmethod
    def load(cls, path) -> "SkillGradientBoosting":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def predict(model: SkillGradientBoosting, x) -> tuple[SkillLevel, np.ndarray]:
    """Grade one feature vector; returns (level, class probabilities)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    proba = model.predict_proba(x)[0]
    label = model.classes_[int(np.argmax(proba))]
    return SkillLevel(int(label)), proba


# ---------------------------------------------------------------------------
# evaluation harness


def stratified_fold_assignment(y: np.ndarray, folds: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Per-class shuffled round-robin dealing; warns on tiny classes."""
    assignment = np.empty(y.shape[0], dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if idx.size < folds:
            warnings.warn(
                f"class {cls} has {idx.size} members, fewer than {folds} folds",
                stacklevel=2)
        idx = idx[rng.permutation(idx.size)]
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def _per_class_prf(y_true: np.ndarray, y_pred: np.ndarray,
                   classes: np.ndarray) -> dict:
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


def cross_validate(X, y, *, folds: int = 5, seed: int = 0,
                   n_estimators: int = 200, learning_rate: float = 0.1,
                   max_depth: int = 3) -> dict:
    """Stratified k-fold CV of the booster.

    Returns per-fold accuracies (None for a fold that drew no rows),
    pooled accuracy over all held-out predictions, and pooled per-class
    precision/recall/F1.  Deterministic given the seed.
    """
    X = check_array(X, name="X")
    y = np.asarray([int(v) for v in y])
    folds = check_positive_int(folds, "folds", minimum=2)
    if y.shape[0] < folds:
        raise ValueError(f"n={y.shape[0]} smaller than {folds} folds")
    rng = np.random.default_rng(seed)
    assignment = stratified_fold_assignment(y, folds, rng)
    fold_acc = []
    pooled_pred = np.empty_like(y)
    for f in range(folds):
        test = assignment == f
        if not test.any():  # tiny classes can leave a fold empty
            fold_acc.append(None)
            continue
        model = SkillGradientBoosting(
            n_estimators=n_estimators, learning_rate=learning_rate,
            max_depth=max_depth).fit(X[~test], y[~test])
        pred = model.predict(X[test])
        pooled_pred[test] = pred
        fold_acc.append(float(np.mean(pred == y[test])))
    classes = np.unique(y)
    return {
        "folds": folds,
        "fold_accuracy": fold_acc,
        "accuracy": float(np.mean(pooled_pred == y)),
        "per_class": _per_class_prf(y, pooled_pred, classes),
    }
