"""Skill grading: score discretization, a from-scratch gradient-boosted
tree classifier, and a stratified cross-validation harness.

The booster is multiclass with a softmax link and log loss.  Each round
fits one exact-greedy regression tree per class to the current residuals
(one-hot minus predicted probability); leaves carry the standard Newton
value for that loss.  As in the exact greedy algorithm of XGBoost (Chen &
Guestrin 2016), each feature column is sorted once per fit and every
node reuses that order, cut to its rows; a node finds its split with one
cumulative-sum pass over all features and positions at once (Friedman
2001), equal gains going to the first feature, then the first position.
Each leaf's value goes straight to its training rows, so boosting never
walks a tree it just grew.  Training uses no randomness at all, so
retraining with the same inputs is bit-for-bit reproducible.
``predict`` grades any number of rows with one ``predict_proba`` call.
"""

from __future__ import annotations

import json
import warnings
from typing import Optional

import numpy as np

from .io import _checked, _read_json, atomic_write
from .metrics import frame_metrics
from .records import ActionClass, SkillLevel
from .validation import check_array, check_positive_int

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
# Every column is stably sorted once per fit (``_presort``), and each node
# holds its rows' blocks of that order: a child's blocks are its parent's
# filtered by side, which is exact because a stable sort restricted to a
# subset of rows is that subset's stable sort.  Column-wise cumulative
# sums of r and r*r along each block give the SSE of every left/right
# split, so the gain of all (feature, position) pairs comes out of one
# array expression.  The split taken has the strictly highest gain above
# 1e-12, ties going to the first feature and then the first position; its
# threshold is the midpoint of the two distinct neighbouring values.


def _sse(s: float, s2: float, n: int) -> float:
    return s2 - s * s / n


def _leaf_value(residuals: np.ndarray, K: int) -> float:
    num = float(residuals.sum())
    den = float(np.sum(np.abs(residuals) * (1.0 - np.abs(residuals))))
    if den <= 1e-150:
        return 0.0
    v = (K - 1) / K * num / den
    return min(max(v, -LEAF_VALUE_CAP), LEAF_VALUE_CAP)


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, xs, ties), each with one row per feature: the row ids in
    stably sorted order, their values, and where a value equals the next."""
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    return order, xs, xs[:, :-1] == xs[:, 1:]


def _grow(X: np.ndarray, r: np.ndarray, rows: np.ndarray, blocks: tuple,
          keep: Optional[np.ndarray], depth_left: int, K: int,
          gain_sink: np.ndarray, leaf_of: np.ndarray) -> dict:
    """The tree on ``rows`` (ascending ids into X and r).  ``blocks`` is
    the parent's ``_presort`` triple, cut to this node's rows by the mask
    ``keep`` (None: already this node's).  Each leaf's value is also
    written to ``leaf_of`` at its rows."""
    rn = r[rows]
    n = rn.shape[0]
    if depth_left == 0 or n < 2 or np.all(rn == rn[0]):
        leaf_of[rows] = value = _leaf_value(rn, K)
        return {"leaf": value}
    order, xs, ties = blocks
    if keep is not None:
        order = order[keep].reshape(-1, n)
        xs = xs[keep].reshape(-1, n)
        ties = xs[:, :-1] == xs[:, 1:]
    parent = _sse(float(rn.sum()), float(np.dot(rn, rn)), n)
    rs = r[order]
    csum = np.cumsum(rs, axis=1)
    csum2 = np.cumsum(rs * rs, axis=1)
    # gain[f, i]: split feature f after sorted position i (left = first
    # i+1 rows); only between distinct feature values
    nl = np.arange(1, n)
    left = _sse(csum[:, :-1], csum2[:, :-1], nl)
    right = _sse(csum[:, -1:] - csum[:, :-1], csum2[:, -1:] - csum2[:, :-1],
                 n - nl)
    gain = parent - left - right
    gain[ties] = -np.inf
    # argmax over the feature-major layout returns the first feature, then
    # the first position, holding the highest gain
    f, i = divmod(int(np.argmax(gain)), n - 1)
    best_gain = gain[f, i]
    if not best_gain > 1e-12:  # require strictly useful splits
        leaf_of[rows] = value = _leaf_value(rn, K)
        return {"leaf": value}
    thr = 0.5 * (xs[f, i] + xs[f, i + 1])
    gain_sink[f] += best_gain
    go_left = X[rows, f] <= thr
    side = np.zeros(X.shape[0], dtype=bool)
    side[rows[go_left]] = True
    keep_left = side[order]
    blocks = (order, xs, None)
    return {
        "feature": int(f),
        "threshold": float(thr),
        "left": _grow(X, r, rows[go_left], blocks, keep_left,
                      depth_left - 1, K, gain_sink, leaf_of),
        "right": _grow(X, r, rows[~go_left], blocks, ~keep_left,
                       depth_left - 1, K, gain_sink, leaf_of),
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


class SkillGradientBoosting:
    """Multiclass gradient boosting over shallow regression trees.

    Parameters
    ----------
    n_estimators : boosting rounds (default 200)
    learning_rate : shrinkage on leaf values (default 0.1)
    max_depth : per-tree depth cap (default 3)
    random_state : never drawn from, as fitting is deterministic; kept
        because ``to_dict`` writes it into ``model.json``, so dropping it
        would change that file's bytes

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
        blocks, rows, leaf_of = _presort(X), np.arange(n), np.empty(n)
        for _ in range(self.n_estimators):
            P = _softmax(F)
            round_trees = []
            for k in range(K):
                r = onehot[:, k] - P[:, k]
                # leaf_of[i] is the value _tree_predict(tree, X)[i] reads:
                # the walk routes row i by the same <= to the same leaf
                round_trees.append(_grow(X, r, rows, blocks, None,
                                         self.max_depth, K, gains, leaf_of))
                F[:, k] += self.learning_rate * leaf_of
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
        # json.dump's bytes, from the C encoder, which json.dump never runs
        text = json.dumps(self.to_dict(), sort_keys=True) + "\n"
        with atomic_write(path) as fh:
            fh.write(text)

    @classmethod
    def from_dict(cls, obj: dict, path="model") -> "SkillGradientBoosting":
        """The model ``to_dict`` describes; a missing key is a ValueError
        naming ``path`` and the key."""
        version = obj.get("format_version") if isinstance(obj, dict) else None
        if version != 1:
            raise ValueError(f"{path}: unsupported model format {version!r}")
        _checked(obj, path, ("hyperparameters", "classes", "n_features",
                             "trees", "train_log_loss", "feature_importances"))
        hp = _checked(obj["hyperparameters"], path,
                      ("n_estimators", "learning_rate", "max_depth"),
                      "hyperparameters.")
        model = cls(n_estimators=hp["n_estimators"],
                    learning_rate=hp["learning_rate"],
                    max_depth=hp["max_depth"],
                    random_state=hp.get("random_state"))
        _check_trees(obj["trees"], obj["classes"], obj["n_features"], path)
        model.classes_ = np.asarray(obj["classes"])
        model.trees_ = obj["trees"]
        model.train_log_loss_ = np.asarray(obj["train_log_loss"])
        model.feature_importances_ = np.asarray(obj["feature_importances"])
        model.n_features_in_ = obj["n_features"]
        return model

    @classmethod
    def load(cls, path) -> "SkillGradientBoosting":
        """Read a model file; invalid JSON is a ``file:line`` ParseError."""
        return cls.from_dict(_read_json(path), path)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _node_problem(node, n_features: int) -> Optional[str]:
    """Why ``node`` is neither a leaf nor a split ``_tree_predict`` can
    follow, or None."""
    if not isinstance(node, dict):
        return "not an object"
    if "leaf" in node:
        return None if _is_number(node["leaf"]) else "leaf is not a number"
    for key in ("feature", "threshold", "left", "right"):
        if key not in node:
            return f"missing {key!r}"
    f = node["feature"]
    if not (isinstance(f, int) and not isinstance(f, bool)
            and 0 <= f < n_features):
        return f"feature {f!r} not in [0, {n_features})"
    if not _is_number(node["threshold"]):
        return "threshold is not a number"
    return None


def _check_trees(trees, classes, n_features, path) -> None:
    """Every round of ``trees`` holds one tree per class, and every node is
    a leaf or a split on a feature in [0, n_features) with both children;
    otherwise a ValueError names ``path``, the node and what is wrong."""
    if not (isinstance(n_features, int) and not isinstance(n_features, bool)
            and n_features > 0):
        raise ValueError(f"{path}: n_features {n_features!r} is not a "
                         "positive integer")
    if not isinstance(classes, list):
        raise ValueError(f"{path}: 'classes' is not a list")
    if not isinstance(trees, list):
        raise ValueError(f"{path}: 'trees' is not a list")
    for r, round_trees in enumerate(trees):
        if not (isinstance(round_trees, list)
                and len(round_trees) == len(classes)):
            raise ValueError(f"{path}: trees[{r}] is not a list of "
                             f"{len(classes)} trees, one per class")
        stack = [(f"trees[{r}][{k}]", tree)
                 for k, tree in enumerate(round_trees)][::-1]
        while stack:
            where, node = stack.pop()
            problem = _node_problem(node, n_features)
            if problem is not None:
                shown = ({k: v for k, v in node.items()
                          if k not in ("left", "right")}
                         if isinstance(node, dict) else node)
                raise ValueError(f"{path}: {where}: {problem} "
                                 f"(node {shown!r})")
            if "leaf" not in node:
                stack += [(where + ".right", node["right"]),
                          (where + ".left", node["left"])]


def predict(model: SkillGradientBoosting, X) -> tuple:
    """Grade feature vectors with one ``predict_proba`` call.

    A 1-D vector gives (level, class probabilities); a 2-D X gives
    (one level per row, (n, K) probabilities).  Each row's probabilities
    are the bits grading it alone gives, since every step of
    ``predict_proba`` works row by row.
    """
    X = np.asarray(X, dtype=np.float64)
    proba = model.predict_proba(X if X.ndim == 2 else X[None, :])
    levels = [SkillLevel(int(c))
              for c in model.classes_[np.argmax(proba, axis=1)]]
    if X.ndim == 2:
        return levels, proba
    return levels[0], proba[0]


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
    scores = frame_metrics(pooled_pred.tolist(), y.tolist()).per_class
    return {
        "folds": folds,
        "fold_accuracy": fold_acc,
        "accuracy": float(np.mean(pooled_pred == y)),
        "per_class": {c: {key: scores[c][key] for key in
                          ("precision", "recall", "f1", "support")}
                      for c in np.unique(y).tolist()},
    }
