import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microact import ActionClass, InstrumentClass
from microact.clustering import (
    ClusterModel,
    align_clusters,
    kmeans,
    segment_edges,
    segment_features,
    semantic_label,
    _inertia,
    _lloyd,
)


# --- oracles -------------------------------------------------------------


def two_partition_min_inertia(F):
    """Exhaustive minimum of the K=2 within-cluster sum of squares."""
    n = len(F)
    best = math.inf
    for bits in range(1, 2 ** (n - 1)):
        groups = ([], [])
        groups[0].append(0)
        for i in range(1, n):
            groups[(bits >> (i - 1)) & 1].append(i)
        if not groups[1]:
            continue
        total = 0.0
        for g in groups:
            pts = F[g]
            mu = pts.mean(axis=0)
            total += float(((pts - mu) ** 2).sum())
        best = min(best, total)
    return best


def best_mapping_overlap(table):
    """Exhaustive optimal one-to-one contingency assignment."""
    K, A = table.shape
    best = -1
    if K <= A:
        for perm in itertools.permutations(range(A), K):
            best = max(best, sum(table[k, perm[k]] for k in range(K)))
    else:
        for perm in itertools.permutations(range(K), A):
            best = max(best, sum(table[perm[a], a] for a in range(A)))
    return best


# --- segments ------------------------------------------------------------


class TestSegments:
    def test_partition_of_frame_axis(self):
        edges = segment_edges([30, 75], 100)
        assert edges.dtype == np.int64
        assert edges.tolist() == [0, 30, 75, 100]
        covered = sorted(f for a, b in zip(edges, edges[1:])
                         for f in range(a, b))
        assert covered == list(range(100))

    def test_no_boundaries_single_segment(self):
        assert segment_edges([], 40).tolist() == [0, 40]

    def test_boundary_at_edge_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            segment_edges([0, 10], 20)
        with pytest.raises(ValueError, match="inside"):
            segment_edges([10, 20], 20)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            segment_edges([10, 10], 20)


class TestSegmentFeatures:
    def test_identical_rows_zero_std(self):
        X = np.tile([2.0, -1.0], (10, 1))
        mask = np.ones((10, 1))
        F = segment_features(X, mask, segment_edges([], 10))
        d = 2
        assert F.shape == (1, 2 * d + 1)
        assert np.all(F[0, d: 2 * d] == 0.0)  # std block
        assert np.allclose(F[0, :d], [2.0, -1.0])

    def test_mask_fraction(self):
        X = np.zeros((8, 1))
        mask = np.zeros((8, 2))
        mask[:, 0] = 1.0          # instrument 0 always present
        mask[:4, 1] = 1.0         # instrument 1 present half the time
        F = segment_features(X, mask, segment_edges([], 8), mask_weight=1.0)
        assert F[0, 2] == 1.0
        assert F[0, 3] == 0.5

    def test_mask_weight_scales_only_mask_columns(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        mask = (rng.random((12, 2)) < 0.5).astype(float)
        segs = segment_edges([6], 12)
        base = segment_features(X, mask, segs, mask_weight=1.0)
        scaled = segment_features(X, mask, segs, mask_weight=3.0)
        assert np.array_equal(scaled[:, :6], base[:, :6])
        assert np.allclose(scaled[:, 6:], 3.0 * base[:, 6:])
        with pytest.raises(ValueError, match="mask_weight"):
            segment_features(X, mask, segs, mask_weight=0.0)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        mask = (rng.random((60, 2)) < 0.7).astype(float)
        edges = segment_edges([15, 40], 60)
        F = segment_features(X, mask, edges, mask_weight=1.0)
        for si, (start, end) in enumerate(zip(edges, edges[1:])):
            rows = X[start: end]
            d = X.shape[1]
            for c in range(d):
                col = rows[:, c]
                mu = sum(col) / len(col)
                var = sum((v - mu) ** 2 for v in col) / len(col)
                assert F[si, c] == pytest.approx(mu, abs=1e-12)
                assert F[si, d + c] == pytest.approx(math.sqrt(var), abs=1e-9)
            for c in range(2):
                frac = mask[start: end, c].sum() / len(rows)
                assert F[si, 2 * d + c] == pytest.approx(frac)

    def test_single_frame_segment(self):
        X = np.array([[1.0], [5.0], [9.0]])
        mask = np.ones((3, 1))
        F = segment_features(X, mask, segment_edges([1, 2], 3))
        assert np.all(F[:, 1] == 0.0)  # std of single row

    def test_segment_outside_matrix_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            segment_features(np.zeros((5, 1)), np.zeros((5, 1)), [0, 9])
        with pytest.raises(ValueError, match="outside"):
            segment_features(np.zeros((5, 1)), np.zeros((5, 1)), [0, 3, 3, 5])

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 90),
           d=st.integers(1, 8), m=st.integers(0, 3),
           n_bounds=st.integers(0, 6),
           mask_weight=st.sampled_from([1.0, 3.0, 0.1, 7]))
    def test_bits_match_mean_and_std(self, seed, T, d, m, n_bounds,
                                     mask_weight):
        # numpy's mean and std, one segment at a time, as the oracle
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(T, d)) * rng.choice([1e-8, 1.0, 1e8], size=d)
        X[:, rng.random(d) < 0.2] = -0.0
        X[rng.random(T) < 0.1] = 0.0
        mask = (rng.random((T, m)) < 0.5).astype(float)
        taus = sorted(set(rng.integers(1, T, n_bounds).tolist())) if T > 1 else []
        edges = segment_edges(taus, T)
        want = np.asarray([np.concatenate([
            X[a: b].mean(axis=0), X[a: b].std(axis=0),
            mask_weight * mask[a: b].mean(axis=0)])
            for a, b in zip(edges, edges[1:])])
        got = segment_features(X, mask, edges, mask_weight=mask_weight)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- kmeans --------------------------------------------------------------


class TestKMeans:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 2)) * 0.1
        b = rng.normal(size=(20, 2)) * 0.1 + 100.0
        F = np.vstack([a, b])
        model = kmeans(F, 2, seed=1)
        labels = model.assignments
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        expected = float(((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum())
        assert model.inertia == pytest.approx(expected, rel=1e-9)

    def test_k_equals_one_closed_form(self):
        rng = np.random.default_rng(1)
        F = rng.normal(size=(30, 3))
        model = kmeans(F, 1, seed=0)
        assert np.allclose(model.centroids[0], F.mean(axis=0), atol=1e-12)
        assert model.inertia == pytest.approx(float(((F - F.mean(0)) ** 2).sum()))

    def test_brute_force_equivalence_small(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(20):
            n = int(rng.integers(3, 9))
            F = rng.normal(size=(n, 2))
            model = kmeans(F, 2, seed=3, restarts=10)
            best = two_partition_min_inertia(F)
            assert model.inertia >= best - 1e-9  # never better than global min
            if model.inertia <= best + 1e-9:
                hits += 1
        assert hits >= 19

    def test_every_point_at_nearest_centroid(self):
        rng = np.random.default_rng(2)
        F = rng.normal(size=(50, 3))
        model = kmeans(F, 4, seed=0)
        d2 = ((F[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(model.assignments, np.argmin(d2, axis=1))

    def test_inertia_matches_objective(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(40, 2))
        model = kmeans(F, 3, seed=5)
        recomputed = sum(
            float(((F[model.assignments == k] - model.centroids[k]) ** 2).sum())
            for k in range(3))
        assert model.inertia == pytest.approx(recomputed, rel=1e-12)

    def test_lloyd_inertia_nonincreasing(self):
        rng = np.random.default_rng(11)
        F = rng.normal(size=(60, 2))
        centers0 = F[rng.choice(60, size=3, replace=False)]
        # _lloyd stopped after n iterations, from the same start, is its
        # n-th step
        trace = [_inertia(F, *_lloyd(F, centers0.copy(), n)[:2])
                 for n in range(1, 31)]
        assert len(set(trace)) > 1
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        F = rng.normal(size=(25, 3))
        perm = rng.permutation(25)
        m1 = kmeans(F, 3, seed=4)
        m2 = kmeans(F[perm], 3, seed=4)
        # identical partitions up to cluster relabeling
        relabel = {}
        for i, j in zip(m1.assignments[perm], m2.assignments):
            relabel.setdefault(int(i), int(j))
            assert relabel[int(i)] == int(j)
        assert len(set(relabel.values())) == len(relabel)
        assert m1.inertia == pytest.approx(m2.inertia, rel=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        F = rng.normal(size=(30, 2))
        m1 = kmeans(F, 3, seed=42)
        m2 = kmeans(F, 3, seed=42)
        assert np.array_equal(m1.assignments, m2.assignments)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert m1.inertia == m2.inertia

    def test_k_exceeds_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((3, 2)), 4)

    def test_duplicate_points_more_clusters_than_distinct(self):
        F = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 2)
        model = kmeans(F, 3, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-18)


# --- alignment and naming ------------------------------------------------


def frame_clusters_loop(edges, assignments, T):
    """Per-segment cluster ids written into a per-frame stream of length T,
    one segment at a time; -1 marks a frame that no segment covers."""
    out = np.full(T, -1, dtype=np.int64)
    for a, b, k in zip(edges, edges[1:], assignments):
        out[a: b] = k
    return out


class TestFrameClusters:
    def test_expansion(self):
        edges = segment_edges([3], 6)
        out = np.repeat([1, 0], np.diff(edges))
        assert out.tolist() == [1, 1, 1, 0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(1, 200), data=st.data())
    def test_edge_expansion_matches_segment_loop(self, T, data):
        taus = data.draw(st.lists(st.integers(1, max(1, T - 1)), unique=True,
                                  max_size=T - 1).map(sorted))
        edges = segment_edges(taus, T)
        assignments = np.array(data.draw(st.lists(
            st.integers(0, 9), min_size=len(edges) - 1,
            max_size=len(edges) - 1)), dtype=np.int64)
        got = np.repeat(assignments, np.diff(edges))
        want = frame_clusters_loop(edges, assignments, T)
        assert got.dtype == np.int64 and (want >= 0).all()
        assert np.array_equal(got, want)


class TestAlignClusters:
    def test_permuted_labels_map_to_full_accuracy(self):
        gt = [ActionClass.CUTTING] * 10 + [ActionClass.KNOT_TYING] * 10 \
            + [ActionClass.NO_ACTION] * 10 + [ActionClass.NEEDLE_DRIVING] * 10
        stream = [2] * 10 + [0] * 10 + [3] * 10 + [1] * 10
        mapping, mapped = align_clusters(stream, gt)
        assert mapped == gt
        assert mapping[2] == ActionClass.CUTTING

    def test_split_cluster_prefers_larger_overlap(self):
        gt = [ActionClass.CUTTING] * 30 + [ActionClass.KNOT_TYING] * 10
        stream = [0] * 40
        mapping, mapped = align_clusters(stream, gt)
        assert mapping[0] == ActionClass.CUTTING

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(13)
        actions = list(ActionClass)
        for K in (2, 3, 4, 5, 6):
            for _ in range(8):
                # random stream hitting every cluster
                stream = rng.integers(0, K, size=200)
                stream[:K] = np.arange(K)
                gt = [actions[i] for i in rng.integers(0, 4, size=200)]
                import warnings as _w
                with _w.catch_warnings():
                    _w.simplefilter("ignore", UserWarning)
                    mapping, mapped = align_clusters(stream, gt)
                table = np.zeros((K, 4), dtype=int)
                for c, a in zip(stream, gt):
                    table[c, actions.index(a)] += 1
                # frames matched by the mapping meet the exhaustive optimum
                overlap = sum(m == g for m, g in zip(mapped, gt))
                assert overlap >= best_mapping_overlap(table)
                if K <= 4:  # injective mapping: totals must be exactly optimal
                    matched_total = sum(table[c, actions.index(a)]
                                        for c, a in mapping.items())
                    assert matched_total == best_mapping_overlap(table)

    def test_tied_table_maps_by_the_tie_rule(self):
        # two mappings overlap 16 frames: clusters 1 and 3 can trade
        # NeedleDriving and KnotTying.  The solver's tie rule, SciPy's,
        # picks this one; the first optimum in permutation order would not
        table = [[0, 0, 0, 4], [4, 4, 4, 4], [4, 0, 0, 4], [0, 4, 4, 4]]
        actions = list(ActionClass)
        cells = [(c, actions[a]) for c, row in enumerate(table)
                 for a, n in enumerate(row) for _ in range(n)]
        mapping, _ = align_clusters([c for c, _ in cells],
                                    [a for _, a in cells])
        assert mapping == {0: ActionClass.NO_ACTION,
                           1: ActionClass.KNOT_TYING,
                           2: ActionClass.CUTTING,
                           3: ActionClass.NEEDLE_DRIVING}

    def test_extra_clusters_warn_and_default(self):
        gt = [ActionClass.CUTTING] * 50
        stream = list(np.random.default_rng(0).integers(0, 6, size=50))
        stream[0] = 5
        with pytest.warns(UserWarning, match="NoAction"):
            mapping, _ = align_clusters(stream, gt)
        assert len(mapping) == len(set(stream))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            align_clusters([0, 1], [ActionClass.CUTTING])


class TestSemanticLabel:
    @staticmethod
    def centroids_with_masks(masks):
        masks = np.asarray(masks, dtype=float)
        d = 3
        return np.hstack([np.zeros((masks.shape[0], 2 * d)), masks]), d

    def test_one_hot_patterns(self):
        # mask columns: scissors_c, needle_driver_c, needle_driver_s, needle
        classes = [InstrumentClass.SCISSORS_C, InstrumentClass.NEEDLE_DRIVER_C,
                   InstrumentClass.NEEDLE_DRIVER_S, InstrumentClass.NEEDLE]
        cents, d = self.centroids_with_masks([
            [0.9, 0.1, 0.1, 0.0],   # scissors-heavy -> Cutting
            [0.0, 0.0, 0.0, 0.0],   # idle -> NoAction
            [0.0, 0.9, 0.9, 0.9],   # drivers + needle -> NeedleDriving
            [0.0, 0.9, 0.9, 0.0],   # drivers, no needle -> KnotTying
        ])
        mapping, flags = semantic_label(cents, d, classes)
        assert mapping[0] == ActionClass.CUTTING
        assert mapping[1] == ActionClass.NO_ACTION
        assert mapping[2] == ActionClass.NEEDLE_DRIVING
        assert mapping[3] == ActionClass.KNOT_TYING
        assert flags == []

    def test_all_equal_masks_tie_flagged(self):
        classes = [InstrumentClass.SCISSORS_C, InstrumentClass.NEEDLE]
        cents, d = self.centroids_with_masks([[0.5, 0.5]] * 4)
        mapping, flags = semantic_label(cents, d, classes)
        assert len(mapping) == 4
        assert len(flags) >= 1
        assert mapping[0] == ActionClass.CUTTING  # index tie-break

    def test_wrong_k_rejected(self):
        classes = [InstrumentClass.NEEDLE]
        cents, d = self.centroids_with_masks([[1.0], [0.0]])
        with pytest.raises(ValueError, match="4 clusters"):
            semantic_label(cents, d, classes)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            semantic_label(np.zeros((4, 5)), 3, [InstrumentClass.NEEDLE])
