"""Tracking, identity repair, tip localization and repair-rate tests.

Oracles:
  * association checked against explicit enumeration of both possible
    assignments for the 2x2 crossed-box case, and brute-force permutation
    search for random cost matrices; its cost matrix against the per-pair
    loop that normed both embeddings for every pair
    (``association_cost_scalar``); its results, and the tracker's rows,
    against ``associate`` without its one-pair fast path
    (``associate_scalar``);
  * ``iou_pairs`` against ``iou`` bit for bit, and eval's batched
    per-frame matching and rates against the per-frame loop with one
    ``iou`` call per pair and the solver on every frame
    (``match_frame_scalar``, ``rates_scalar``), on tie-heavy boxes;
  * the moving-box Kalman example against closed-form constant-velocity
    extrapolation, and the per-coordinate float filter against the 8x8
    matrix filter it replaced (``kalman_predict_matrix``,
    ``kalman_update_matrix``), byte for byte, alone and inside the tracker;
  * tip localization against exhaustive similarity computation and the
    per-candidate loop (``localize_tip_scalar``) on tie-heavy sets; the
    batched ``localize_tip`` against the per-set match it replaced
    (``localize_tip_set``) for its bits, and against ``batch_error`` for
    its checks; and the tips stage against its per-frame loop
    (``tips_scalar``), set choice, tips and winners.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from microact import io, pipeline, tracking
from microact.config import load_config
from microact.records import (Detection, InstrumentClass, Provenance,
                              RefinedTrack, TipCandidateTable,
                              TrackObservation, TruthInstance)
from microact.synth import generate, paper_shaped_script
from microact.tracking import (DEFAULT_DELETE_AFTER, InstrumentTracker,
                               KalmanState, associate, iou, iou_pairs,
                               kalman_init,
                               kalman_predict, kalman_update, localize_tip,
                               measurement_to_bbox, recovery_correction_rates,
                               refine_identity, state_bbox)
from microact.validation import row_dots

from test_io import (CandidateSet, candidate_table,
                     oracle_save_tip_candidates, set_rows)

SC = InstrumentClass.SCISSORS_C
ND = InstrumentClass.NEEDLE_DRIVER_C
NDS = InstrumentClass.NEEDLE_DRIVER_S


def det(frame, cls, bbox, conf=0.9, app=None):
    return Detection(frame=frame, class_id=cls, bbox=bbox, confidence=conf,
                     appearance=app)


class TestIoU:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # boxes 10x10 shifted by 5 in x: inter 50, union 150
        assert iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_symmetry(self):
        a, b = (1, 2, 7, 3), (4, 1, 5, 6)
        assert iou(a, b) == pytest.approx(iou(b, a))


class TestAssociate:
    def test_exact_overlap_matches_with_zero_cost(self):
        matches, ud, ut = associate([(0, 0, 10, 10)], [(0, 0, 10, 10)])
        assert matches == [(0, 0)] and ud == [] and ut == []

    def test_crossed_boxes_pick_high_iou_pairs(self):
        # det0~track0 IoU 0.9ish, det0~track1 IoU lowish, and vice versa;
        # enumerate both assignments and confirm the solver picks the
        # cheaper one
        d = [(0.0, 0.0, 10, 10), (100.0, 0.0, 10, 10)]
        t = [(0.5, 0.0, 10, 10), (100.5, 0.0, 10, 10)]
        cost = np.array([[1 - iou(db, tb) for tb in t] for db in d])
        straight = cost[0, 0] + cost[1, 1]
        crossed = cost[0, 1] + cost[1, 0]
        assert straight < crossed
        matches, _, _ = associate(d, t)
        assert sorted(matches) == [(0, 0), (1, 1)]

    def test_zero_iou_unmatched(self):
        matches, ud, ut = associate([(0, 0, 10, 10)], [(50, 50, 10, 10)])
        assert matches == []
        assert ud == [0] and ut == [0]

    def test_gate_rejects_low_overlap(self):
        # IoU 1/3 passes the 0.3 gate, fails a 0.5 gate
        d, t = [(0, 0, 10, 10)], [(5, 0, 10, 10)]
        m1, _, _ = associate(d, t, iou_gate=0.3)
        assert m1 == [(0, 0)]
        m2, ud, ut = associate(d, t, iou_gate=0.5)
        assert m2 == [] and ud == [0] and ut == [0]

    def test_appearance_breaks_geometric_tie(self):
        # both tracks overlap the detections equally; embeddings decide
        d = [(0, 0, 10, 10), (0, 0, 10, 10)]
        t = [(0, 0, 10, 10), (0, 0, 10, 10)]
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        matches, _, _ = associate(d, t, det_apps=[a, b], track_apps=[b, a])
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            d = [(float(x), float(y), 10.0, 10.0)
                 for x, y in rng.uniform(0, 30, size=(n, 2))]
            t = [(float(x), float(y), 10.0, 10.0)
                 for x, y in rng.uniform(0, 30, size=(n, 2))]
            cost = np.array([[1 - iou(db, tb) for tb in t] for db in d])
            best = min(itertools.permutations(range(n)),
                       key=lambda p: sum(cost[i, p[i]] for i in range(n)))
            best_cost = sum(cost[i, best[i]] for i in range(n))
            matches, ud, ut = associate(d, t, iou_gate=0.0)
            got = sum(cost[i, j] for i, j in matches)
            # gate 0 keeps every pair, so totals must agree
            assert len(matches) == n
            assert got == pytest.approx(best_cost, abs=1e-12)

    def test_weight_validation(self):
        for weight in (-0.5, 1.5):
            with pytest.raises(ValueError, match="appearance_weight must lie"):
                associate([(0, 0, 1, 1)], [(0, 0, 1, 1)],
                          appearance_weight=weight)

    def test_appearance_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            associate([(0, 0, 1, 1)], [(0, 0, 1, 1)],
                      det_apps=[np.ones(4)], track_apps=[np.ones(8)])

    def test_cost_matches_per_pair_norm_oracle(self, monkeypatch):
        # None and zero-norm embeddings included; the cost matrix handed
        # to the solver must equal the per-pair loop's to the bit
        seen = []
        solve = tracking.linear_assignment

        def recording(cost):
            seen.append(np.array(cost))
            return solve(cost)

        monkeypatch.setattr(tracking, "linear_assignment", recording)
        rng = np.random.default_rng(11)

        def embedding():
            kind = rng.integers(0, 4)
            if kind == 0:
                return None
            if kind == 1:
                return np.zeros(6)
            v = rng.normal(size=6)
            return v / np.linalg.norm(v) if kind == 2 else v * 1e-3

        for _ in range(200):
            nd, nt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            d = [tuple(map(float, (*rng.uniform(0, 20, 2), 10, 10)))
                 for _ in range(nd)]
            t = [tuple(map(float, (*rng.uniform(0, 20, 2), 10, 10)))
                 for _ in range(nt)]
            da = [embedding() for _ in range(nd)]
            ta = [embedding() for _ in range(nt)]
            for det_apps, track_apps in ((da, ta), (da, None), (None, ta)):
                n_seen = len(seen)
                associate(d, t, det_apps, track_apps)
                # one pair is decided by the gate alone, without the solver
                assert len(seen) == n_seen + (nd * nt > 1)
                if len(seen) > n_seen:
                    want = association_cost_scalar(d, t, det_apps, track_apps)
                    assert seen[-1].tobytes() == want.tobytes()


def association_cost_scalar(det_boxes, track_boxes, det_apps=None,
                            track_apps=None, appearance_weight=0.3):
    """associate's cost matrix as the loop that normed both embeddings of
    every pair built it: the oracle for the once-per-call norms."""
    cost = np.zeros((len(det_boxes), len(track_boxes)))
    for i, db in enumerate(det_boxes):
        da = det_apps[i] if det_apps is not None else None
        for j, tb in enumerate(track_boxes):
            ta = track_apps[j] if track_apps is not None else None
            ov = iou(db, tb)
            if da is not None and ta is not None:
                na = float(np.linalg.norm(da))
                nb = float(np.linalg.norm(ta))
                cos = float(da @ ta) / (na * nb) if na > 0 and nb > 0 else 0.0
                cost[i, j] = ((1.0 - appearance_weight) * (1.0 - ov)
                              + appearance_weight * (1.0 - cos))
            else:
                cost[i, j] = 1.0 - ov
    return cost


def associate_scalar(det_boxes, track_boxes, det_apps=None, track_apps=None,
                     appearance_weight=0.3,
                     iou_gate=tracking.DEFAULT_IOU_GATE):
    """``associate`` as it was before its one-pair fast path: the solver
    on every call, a per-pair cost loop.  The oracle for ``associate``."""
    nd, nt = len(det_boxes), len(track_boxes)
    if nd == 0 or nt == 0:
        return [], list(range(nd)), list(range(nt))
    cost = association_cost_scalar(det_boxes, track_boxes, det_apps,
                                   track_apps, appearance_weight)
    ious = np.array([[iou(db, tb) for tb in track_boxes] for db in det_boxes])
    rows, cols = linear_sum_assignment(cost)
    matches = [(int(i), int(j)) for i, j in zip(rows, cols)
               if ious[i, j] >= iou_gate]
    return (matches, [i for i in range(nd) if i not in {m[0] for m in matches}],
            [j for j in range(nt) if j not in {m[1] for m in matches}])


# few coordinates and sizes, so that boxes repeat, edges touch (an IoU of
# exactly zero) and equal IoUs tie
_grid_box = st.tuples(st.sampled_from([-0.0, 0.0, 1.0, 5.0, 10.0]),
                      st.sampled_from([-0.0, 0.0, 2.0, 5.0]),
                      st.sampled_from([1.0, 5.0, 10.0]),
                      st.sampled_from([2.0, 10.0]))
_unit = st.sampled_from([None, np.zeros(2), np.array([1.0, 0.0]),
                         np.array([0.0, 1.0]), np.array([0.6, 0.8])])


class TestAssociateMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(d=st.lists(st.tuples(_grid_box, _unit), max_size=4),
           t=st.lists(st.tuples(_grid_box, _unit), max_size=4),
           gate=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           appearance_weight=st.sampled_from([0.3, 0.0, 1.0]))
    def test_tie_heavy(self, d, t, gate, appearance_weight):
        args = ([b for b, _ in d], [b for b, _ in t], [a for _, a in d],
                [a for _, a in t], appearance_weight, gate)
        assert associate(*args) == associate_scalar(*args)

    def test_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            nd, nt = rng.integers(0, 5, size=2)
            d = [tuple(map(float, (*rng.uniform(0, 30, 2), *rng.uniform(5, 15, 2))))
                 for _ in range(nd)]
            t = [tuple(map(float, (*rng.uniform(0, 30, 2), *rng.uniform(5, 15, 2))))
                 for _ in range(nt)]
            da = [rng.normal(size=4) if rng.random() < 0.8 else None
                  for _ in range(nd)]
            ta = [rng.normal(size=4) if rng.random() < 0.8 else None
                  for _ in range(nt)]
            for gate in (0.0, 0.3):
                assert associate(d, t, da, ta, iou_gate=gate) == \
                    associate_scalar(d, t, da, ta, iou_gate=gate)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tracker_rows_match_oracle_tracker(self, seed, monkeypatch):
        got = messy_tracker_rows(seed)
        monkeypatch.setattr(tracking, "associate", associate_scalar)
        assert got == messy_tracker_rows(seed)


class TestKalman:
    def test_bbox_measurement_round_trip(self):
        bbox = (3.0, 4.0, 20.0, 10.0)
        z = bbox_to_measurement(bbox)
        back = measurement_to_bbox(z)
        assert back == pytest.approx(bbox)

    def test_stationary_predict_keeps_center(self):
        s = kalman_init((10, 20, 30, 40))
        p = kalman_predict(s)
        assert p.x[:4] == pytest.approx(s.x[:4])
        assert p.x[4:] == pytest.approx(np.zeros(4))

    def test_moving_box_extrapolates_through_gap(self):
        # +5 px/frame in x for 10 observed frames, then 5 blind frames;
        # closed-form linear extrapolation gives cx = 20 + 15*5 = 95
        s = kalman_init((0, 0, 40, 40))
        for k in range(1, 11):
            s = kalman_predict(s)
            s = kalman_update(s, (5.0 * k, 0, 40, 40))
        for _ in range(5):
            s = kalman_predict(s)
        cx = s.x[0]
        assert abs(cx - 95.0) < 2.0
        assert s.x[1] == pytest.approx(20.0, abs=1e-6)

    def test_zero_innovation_keeps_mean_shrinks_trace(self):
        s = kalman_init((10, 10, 30, 30))
        p = kalman_predict(s)
        z_bbox = measurement_to_bbox(p.x[:4])
        u = kalman_update(p, z_bbox)
        assert u.x == pytest.approx(p.x, abs=1e-9)
        assert np.trace(u.P) < np.trace(p.P)

    def test_covariance_spd_through_random_sequence(self):
        rng = np.random.default_rng(9)
        s = kalman_init((50, 50, 30, 30))
        for _ in range(100):
            s = kalman_predict(s)
            assert np.allclose(s.P, s.P.T)
            assert np.linalg.eigvalsh(s.P).min() > 0
            if rng.random() < 0.7:
                jx, jy = rng.normal(0, 3, size=2)
                s = kalman_update(s, (50 + jx, 50 + jy,
                                      30 + rng.normal(0, 1), 30))
                assert np.allclose(s.P, s.P.T)
                assert np.linalg.eigvalsh(s.P).min() > 0

    def test_non_finite_state_rejected(self):
        # a NaN position or an infinite velocity, in each of the eight
        # state values
        good = kalman_init((0, 0, 10, 10)).coords
        for i in range(8):
            c, slot = i % 4, i // 4
            bad = np.nan if slot == 0 else np.inf
            coord = list(good[c])
            coord[slot] = bad
            s = KalmanState([*good[:c], tuple(coord), *good[c + 1:]])
            assert not np.isfinite(s.x[i])
            with pytest.raises(ValueError, match="non-finite"):
                kalman_predict(s)
            with pytest.raises(ValueError, match="non-finite"):
                kalman_update(s, (0, 0, 10, 10))

    @pytest.mark.parametrize("bbox", [(0.0, 0.0, 1.0, 0.0),
                                      (0.0, 0.0, 0.0, 1.0)],
                             ids=["zero height", "zero width"])
    def test_degenerate_box_rejected(self, bbox):
        # io.load_detections' rule, for boxes given through the API too
        want = f"bbox must have positive width and height, got {bbox}"
        for call in (lambda: kalman_init(bbox),
                     lambda: kalman_update(kalman_init((0, 0, 10, 10)), bbox),
                     lambda: InstrumentTracker().run([Detection(
                         frame=0, class_id=InstrumentClass.NEEDLE, bbox=bbox,
                         confidence=0.9)])):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == want


# --- the 8x8 matrix Kalman filter: the oracle for the per-coordinate one ---

_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.zeros((4, 8))
_H[:, :4] = np.eye(4)
_P0 = np.diag([10.0, 10.0, 100.0, 1e-2, 1e3, 1e3, 1e3, 1e-2])
_Q = np.diag([1.0, 1.0, 1.0, 1e-4, 1e-2, 1e-2, 1e-2, 1e-5])
_R = np.diag([1.0, 1.0, 10.0, 1e-3])


def bbox_to_measurement(bbox):
    """The (cx, cy, s, r) measurement of a box, as the 8x8 filter reads it."""
    x, y, w, h = bbox
    return np.array([x + w / 2.0, y + h / 2.0, w * h, w / h],
                    dtype=np.float64)


@dataclass
class MatrixState:
    x: np.ndarray  # (8,)
    P: np.ndarray  # (8, 8)


def kalman_init_matrix(bbox):
    tracking.check_bbox(bbox)
    x = np.zeros(8)
    x[:4] = bbox_to_measurement(bbox)
    return MatrixState(x=x, P=_P0.copy())


def kalman_predict_matrix(state):
    if not np.all(np.isfinite(state.x)):
        raise ValueError("non-finite kalman state")
    x = _F @ state.x
    P = _F @ state.P @ _F.T + _Q
    return MatrixState(x=x, P=(P + P.T) / 2.0)


def kalman_update_matrix(state, bbox):
    tracking.check_bbox(bbox)
    if not np.all(np.isfinite(state.x)):
        raise ValueError("non-finite kalman state")
    z = bbox_to_measurement(bbox)
    y = z - _H @ state.x
    S = _H @ state.P @ _H.T + _R
    K = state.P @ _H.T @ np.linalg.inv(S)
    x = state.x + K @ y
    IKH = np.eye(8) - K @ _H
    P = IKH @ state.P @ IKH.T + K @ _R @ K.T
    return MatrixState(x=x, P=(P + P.T) / 2.0)


def state_bbox_matrix(state):
    return measurement_to_bbox(state.x[:4])


def assert_same_state(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert np.array_equal(got.P, want.P)  # structural zeros may differ in sign


# mantissa times a power of ten, from subnormal areas to 1e100-pixel sides;
# independent draws for w and h make extreme aspect ratios
_length = st.builds(lambda m, e: m * 10.0 ** e,
                    st.floats(1.0, 10.0), st.integers(-160, 100))
_box = st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7), _length, _length)


class TestKalmanMatchesMatrixForm:
    @settings(max_examples=300, deadline=None)
    @given(first=_box, steps=st.lists(
        st.tuples(st.integers(0, DEFAULT_DELETE_AFTER), _box), max_size=12))
    def test_random_boxes_and_coasts(self, first, steps):
        # each step: a coast of 0..delete_after predicts, then a predict
        # and an update with a new box
        s, m = kalman_init(first), kalman_init_matrix(first)
        assert_same_state(s, m)
        for coast, box in steps:
            for _ in range(coast + 1):
                s, m = kalman_predict(s), kalman_predict_matrix(m)
                assert_same_state(s, m)
                assert state_bbox(s) == state_bbox_matrix(m)
            s, m = kalman_update(s, box), kalman_update_matrix(m, box)
            assert_same_state(s, m)

    def test_update_right_after_init(self):
        # a zero off-diagonal covariance and a zero velocity gain
        for box in [(3.0, 4.0, 20.0, 10.0), (0, 0, 1e-300, 1e300)]:
            s, m = kalman_init(box), kalman_init_matrix(box)
            for _ in range(3):
                s = kalman_update(s, (5.0, 1.0, 21.0, 9.5))
                m = kalman_update_matrix(m, (5.0, 1.0, 21.0, 9.5))
                assert_same_state(s, m)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tracker_rows_match_matrix_tracker(self, seed, monkeypatch):
        got = messy_tracker_rows(seed)
        assert any(r[3] is None for r in got)  # the tracker coasted
        for name, fn in (("kalman_init", kalman_init_matrix),
                         ("kalman_predict", kalman_predict_matrix),
                         ("kalman_update", kalman_update_matrix),
                         ("state_bbox", state_bbox_matrix)):
            monkeypatch.setattr(tracking, name, fn)
        assert got == messy_tracker_rows(seed)


def messy_tracker_rows(seed):
    """Tracker rows, box bits included, on a short messy 30 fps stream:
    dropouts make coasts, mislabels make cross-class rejections and new
    ids."""
    proc = generate(paper_shaped_script(
        fps=30.0, seed=seed, dropout_rate=0.1, mislabel_rate=0.05,
        cut_s=1.0, drive_s=1.5, tie_s=1.0, idle_s=0.5))
    rows = InstrumentTracker(max_coast=30).run(
        proc.detections, first_frame=0, last_frame=proc.n_frames - 1)
    return [(r.frame, r.object_id, r.class_id, r.det_index,
             [float(v).hex() for v in r.bbox]) for r in rows]


class TestInstrumentTracker:
    def test_single_object_stable_id(self):
        tr = InstrumentTracker()
        dets = [det(f, SC, (100, 100, 40, 40)) for f in range(20)]
        obs = tr.run(dets)
        assert len(obs) == 20
        assert {o.object_id for o in obs} == {1}
        assert all(o.det_index == 0 for o in obs)

    def test_dropout_coasts_then_resumes_same_id(self):
        dets = [det(f, SC, (100, 100, 40, 40))
                for f in range(30) if not 10 <= f < 20]
        obs = InstrumentTracker(max_coast=30).run(dets)
        assert {o.object_id for o in obs} == {1}
        coasted = [o for o in obs if o.det_index is None]
        assert [o.frame for o in coasted] == list(range(10, 20))
        # coasted prediction of a stationary box stays on the box
        for o in coasted:
            assert iou(o.bbox, (100, 100, 40, 40)) > 0.9
        resumed = [o for o in obs if o.frame >= 20]
        assert all(o.det_index == 0 for o in resumed)

    def test_unconfirmed_track_does_not_coast(self):
        # one-frame false positive: hits=1 < confirm_hits, no coast rows
        dets = [det(0, SC, (0, 0, 10, 10))]
        obs = InstrumentTracker(confirm_hits=3).run(dets, first_frame=0,
                                                    last_frame=10)
        assert [o.frame for o in obs] == [0]

    def test_track_deleted_after_long_absence(self):
        dets = ([det(f, SC, (100, 100, 40, 40)) for f in range(5)]
                + [det(200, SC, (100, 100, 40, 40))])
        obs = InstrumentTracker().run(dets)
        ids = {o.frame: o.object_id for o in obs if o.det_index is not None}
        assert ids[0] == 1
        assert ids[200] == 2

    def test_two_objects_kept_apart(self):
        tr = InstrumentTracker()
        dets = []
        for f in range(15):
            dets.append(det(f, SC, (0, 0, 30, 30)))
            dets.append(det(f, ND, (200, 200, 30, 30)))
        obs = tr.run(dets)
        by_id = {}
        for o in obs:
            by_id.setdefault(o.object_id, set()).add(o.class_id)
        assert len(by_id) == 2
        assert all(len(v) == 1 for v in by_id.values())

    def test_empty_stream(self):
        assert InstrumentTracker().run([]) == []


def obs(frame, oid, cls, bbox=(0, 0, 10, 10), det_index=0):
    return TrackObservation(frame=frame, object_id=oid, class_id=cls,
                            bbox=bbox, det_index=det_index)


class TestRefineIdentity:
    def test_single_frame_mislabel_rewritten(self):
        rows = [obs(f, 1, SC) for f in range(10)]
        rows[4] = obs(4, 1, ND)
        out = refine_identity(rows)
        assert len(out) == 1
        t = out[0]
        assert t.class_id == SC
        assert t.provenance[4] == Provenance.CORRECTED
        assert all(t.provenance[f] == Provenance.DETECTED
                   for f in range(10) if f != 4)

    def test_majority_tie_goes_to_earliest_class(self):
        rows = [obs(0, 1, SC), obs(1, 1, ND), obs(2, 1, ND), obs(3, 1, SC)]
        out = refine_identity(rows)
        assert out[0].class_id == SC

    def test_new_id_after_gap_merged(self):
        rows = ([obs(f, 1, SC) for f in range(10)]
                + [obs(f, 2, SC) for f in range(20, 40)])
        out = refine_identity(rows, max_gap=30)
        assert len(out) == 1
        t = out[0]
        assert t.object_id == 1
        assert set(t.frames()) == set(range(10)) | set(range(20, 40))

    def test_gap_beyond_max_not_merged(self):
        rows = ([obs(f, 1, SC) for f in range(10)]
                + [obs(f, 2, SC) for f in range(60, 70)])
        out = refine_identity(rows, max_gap=30)
        assert sorted(t.object_id for t in out) == [1, 2]

    def test_different_class_not_merged(self):
        rows = ([obs(f, 1, SC) for f in range(10)]
                + [obs(f, 2, ND) for f in range(15, 25)])
        out = refine_identity(rows)
        assert sorted(t.object_id for t in out) == [1, 2]

    def test_merge_prefers_latest_loss_then_lowest_id(self):
        # objects 1 and 2 both end before 3 starts; 2 ended later so wins
        rows = ([obs(f, 1, SC) for f in range(5)]
                + [obs(f, 2, SC, bbox=(50, 50, 10, 10)) for f in range(8)]
                + [obs(f, 3, SC) for f in range(12, 20)])
        out = refine_identity(rows)
        ids = {t.object_id: set(t.frames()) for t in out}
        assert set(ids[2]) >= set(range(12, 20))
        # tie case: both lost at the same frame, lowest id wins
        rows = ([obs(f, 1, SC) for f in range(5)]
                + [obs(f, 2, SC, bbox=(50, 50, 10, 10)) for f in range(5)]
                + [obs(f, 3, SC) for f in range(8, 12)])
        out = refine_identity(rows)
        ids = {t.object_id: set(t.frames()) for t in out}
        assert set(ids[1]) >= set(range(8, 12))

    def test_chained_merges_land_on_root(self):
        rows = ([obs(f, 1, SC) for f in range(5)]
                + [obs(f, 2, SC) for f in range(10, 15)]
                + [obs(f, 3, SC) for f in range(20, 25)])
        out = refine_identity(rows)
        assert len(out) == 1
        assert out[0].object_id == 1

    def test_mid_coast_replacement_merges_and_detection_wins(self):
        # object 1 stops being detected at 10 but coasts through 18;
        # replacement id 2 appears at 14 with detections
        rows = ([obs(f, 1, SC) for f in range(10)]
                + [obs(f, 1, SC, bbox=(1, 1, 10, 10), det_index=None)
                   for f in range(10, 19)]
                + [obs(f, 2, SC, bbox=(0, 0, 10, 10)) for f in range(14, 30)])
        out = refine_identity(rows)
        assert len(out) == 1
        t = out[0]
        assert t.object_id == 1
        # overlap frames keep the detection's box and provenance
        for f in range(14, 19):
            assert t.provenance[f] == Provenance.DETECTED
            assert t.boxes[f] == (0, 0, 10, 10)
        for f in range(10, 14):
            assert t.provenance[f] == Provenance.RECOVERED

    def test_no_disagreement_fixed_point(self):
        rows = [obs(f, 1, SC) for f in range(6)]
        out = refine_identity(rows)
        t = out[0]
        assert t.class_id == SC
        assert all(p == Provenance.DETECTED for p in t.provenance.values())
        assert [t.boxes[f] for f in t.frames()] == [(0, 0, 10, 10)] * 6

    def test_coasted_geometry_untouched(self):
        coast_box = (3.3, 4.4, 10, 10)
        rows = ([obs(f, 1, SC) for f in range(5)]
                + [obs(5, 1, SC, bbox=coast_box, det_index=None)])
        out = refine_identity(rows)
        t = out[0]
        assert t.boxes[5] == coast_box
        assert t.provenance[5] == Provenance.RECOVERED

    def test_one_class_per_object(self):
        rng = np.random.default_rng(2)
        rows = []
        for f in range(50):
            cls = SC if rng.random() > 0.2 else ND
            rows.append(obs(f, 1, cls))
            rows.append(obs(f, 2, ND, bbox=(100, 100, 10, 10)))
        out = refine_identity(rows)
        assert all(isinstance(t.class_id, InstrumentClass) for t in out)
        assert len({t.object_id for t in out}) == len(out)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        rows = []
        # messy stream: mislabels, a dropout with replacement id, coasts
        for f in range(40):
            cls = SC if rng.random() > 0.1 else ND
            if f < 15:
                rows.append(obs(f, 1, cls))
            elif f < 18:
                rows.append(obs(f, 1, SC, det_index=None))
            else:
                rows.append(obs(f, 3, cls))
            rows.append(obs(f, 2, NDS, bbox=(200, 200, 20, 20)))
        once = refine_identity(rows)
        twice = refine_identity(once)

        def canon(tracks):
            return sorted(
                (t.object_id, t.class_id,
                 tuple(sorted(t.boxes.items())),
                 tuple(sorted((f, p.value) for f, p in t.provenance.items())))
                for t in tracks)

        assert canon(twice) == canon(once)

    def test_empty(self):
        assert refine_identity([]) == []

    def test_bad_element_type(self):
        with pytest.raises(TypeError, match="unsupported"):
            refine_identity([42])


def columns(cands):
    """(points, descriptors) of (x, y, descriptor) candidates."""
    points = np.array([(x, y) for x, y, _ in cands], dtype=float)
    return points.reshape(-1, 2), np.array([d for _, _, d in cands])


def localize_tip_scalar(candidates, reference, bbox=None):
    """The per-candidate loop that the columnar per-set match replaced:
    the oracle for its arithmetic and its first-index tie rule."""
    if len(candidates) == 0:
        raise ValueError("no tip candidates")
    ref = np.asarray(reference, dtype=float)
    rn = float(np.linalg.norm(ref))
    if rn == 0.0:
        raise ValueError("zero-norm reference descriptor")
    best_i = -1
    best_sim = -np.inf
    for i, (_, _, desc) in enumerate(candidates):
        d = np.asarray(desc, dtype=float)
        if d.shape != ref.shape:
            raise ValueError(
                f"descriptor dimension mismatch at candidate {i}: "
                f"{d.shape} vs {ref.shape}")
        dn = float(np.linalg.norm(d))
        if dn == 0.0:
            raise ValueError(f"zero-norm descriptor at candidate {i}")
        sim = float(d @ ref) / (dn * rn)
        if sim > best_sim:
            best_sim = sim
            best_i = i
    x, y, _ = candidates[best_i]
    if bbox is not None:
        x += bbox[0]
        y += bbox[1]
    return (float(x), float(y))


def localize_tip_set(points, descriptors, reference, bbox=None):
    """The per-set match that the batched ``localize_tip`` replaced, one
    call per matched frame: the oracle for its bits, its NaN rule and its
    errors."""
    D = np.asarray(descriptors, dtype=float)
    if len(D) == 0:
        raise ValueError("no tip candidates")
    ref = np.asarray(reference, dtype=float)
    rn = math.sqrt(ref @ ref)
    if rn == 0.0:
        raise ValueError("zero-norm reference descriptor")
    if D.ndim != 2 or D.shape[1:] != ref.shape:
        raise ValueError(f"descriptor dimension mismatch: candidates "
                         f"{D.shape[1:]} vs reference {ref.shape}")
    dn = np.sqrt(row_dots(D, D))
    if np.count_nonzero(dn) < len(dn):
        raise ValueError(f"zero-norm descriptor at candidate "
                         f"{np.flatnonzero(dn == 0.0)[0]}")
    sims = row_dots(D, ref) / (dn * rn)
    best = int(sims.argmax())
    if math.isnan(sims[best]):  # argmax stops at the first NaN
        best = int(np.where(np.isnan(sims), -np.inf, sims).argmax())
    x, y = np.asarray(points, dtype=float)[best].tolist()
    if bbox is not None:
        x += bbox[0]
        y += bbox[1]
    return (x, y)


def table_of(sets, boxes, d) -> TipCandidateTable:
    """The table of ``sets``, each a list of (x, y, descriptor) candidates
    of width ``d``, with crop boxes ``boxes``; keys are (set index, 0)."""
    cands = [c for cset in sets for c in cset]
    points, descriptors = columns(cands)
    return TipCandidateTable(
        set_keys=np.array([(i, 0) for i in range(len(sets))],
                          dtype=np.int64).reshape(-1, 2),
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4),
        offsets=np.cumsum([0] + [len(cset) for cset in sets], dtype=np.int64),
        points=points, descriptors=descriptors.reshape(-1, d))


def localize_one(cands, reference, bbox=(0.0, 0.0, 1.0, 1.0)):
    """``localize_tip`` on one set and one reference, as a tuple."""
    d = len(cands[0][2]) if cands else 1
    tips = localize_tip(table_of([cands], [bbox], d), [0], [reference], [0])
    assert tips.shape == (1, 2)
    return tuple(tips[0].tolist())


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 2).view(np.uint64)


class TestLocalizeTip:
    def test_single_candidate(self):
        p = localize_one([(3.0, 4.0, np.array([1.0, 0.0]))],
                         np.array([0.5, 0.5]))
        assert p == (3.0, 4.0)

    def test_opposite_descriptor_loses(self):
        ref = np.array([1.0, 2.0, 3.0])
        cands = [(0.0, 0.0, ref.copy()), (9.0, 9.0, -ref)]
        assert localize_one(cands, ref) == (0.0, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            ref = rng.normal(size=8)
            cands = [(float(i), float(i), rng.normal(size=8))
                     for i in range(n)]
            sims = [float(d @ ref) / (np.linalg.norm(d) * np.linalg.norm(ref))
                    for _, _, d in cands]
            best = int(np.argmax(sims))
            assert localize_one(cands, ref) == (float(best), float(best))

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(0.001, 1000.0),
           seed=st.integers(0, 10_000))
    def test_descriptor_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=5)
        cands = [(float(i), 0.0, rng.normal(size=5)) for i in range(4)]
        base = localize_one(cands, ref)
        scaled = [(x, y, d * scale) for x, y, d in cands]
        assert localize_one(scaled, ref * scale) == base

    def test_tie_keeps_lowest_index(self):
        ref = np.array([1.0, 0.0])
        d = np.array([2.0, 0.0])
        cands = [(0.0, 0.0, d), (5.0, 5.0, d * 3)]  # identical similarity 1
        assert localize_one(cands, ref) == (0.0, 0.0)

    def test_bbox_offset_applied(self):
        p = localize_one([(3.0, 4.0, np.array([1.0]))],
                         np.array([2.0]), bbox=(100.0, 200.0, 50.0, 50.0))
        assert p == (103.0, 204.0)

    def test_no_pairs(self):
        tips = localize_tip(table_of([], [], 3), [], [], [])
        assert tips.shape == (0, 2)

    def test_errors(self):
        with pytest.raises(ValueError, match="^no tip candidates$"):
            localize_one([], np.array([1.0]))
        with pytest.raises(ValueError, match="^zero-norm reference"):
            localize_one([(0, 0, np.array([1.0]))], np.array([0.0]))
        with pytest.raises(ValueError, match="^zero-norm descriptor at "
                                             "candidate 1$"):
            localize_one([(0, 0, np.array([1.0])), (0, 0, np.array([0.0])),
                          (0, 0, np.array([0.0]))], np.array([1.0]))
        with pytest.raises(ValueError, match=r"^descriptor dimension "
                           r"mismatch: candidates \(2,\) vs reference \(1,\)$"):
            localize_one([(0, 0, np.array([1.0, 2.0]))], np.array([1.0]))

    def test_checks_read_only_the_references_in_use(self):
        # an unused zero-norm reference, or one of another width, is no
        # fault; an empty set is reported before a used zero-norm reference
        table = table_of([[(0.0, 0.0, np.array([1.0, 0.0]))], []],
                         [(1.0, 2.0, 3.0, 3.0)] * 2, 2)
        refs = [np.array([1.0, 1.0]), np.zeros(2), np.ones(3)]
        assert localize_tip(table, [0], refs, [0]).tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError, match="^no tip candidates$"):
            localize_tip(table, [0, 1], refs, [1, 0])
        with pytest.raises(ValueError, match="^zero-norm reference"):
            localize_tip(table, [0, 0], refs, [2, 1])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           d=st.sampled_from([1, 2, 3, 16]))
    def test_matches_scalar_oracle_on_ties(self, seed, n, d):
        # duplicated rows, scaled copies and d=1 (every similarity +-1)
        # make exact and 1-ulp ties; the columnar arithmetic must agree
        # with the scalar loop's bit for bit, or argmax can move
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(max(1, n // 2), d))
        pool = [base[i % len(base)] * rng.choice([1.0, 3.0, 0.1, 7.3, 1e-3])
                for i in range(n)]
        if rng.random() < 0.3:
            pool = [np.round(v) + (not np.round(v).any()) for v in pool]
        order = rng.permutation(n)
        cands = [(float(i), float(-i), pool[j]) for i, j in enumerate(order)]
        ref = base[int(rng.integers(len(base)))] * rng.choice([1.0, 2.5])
        if rng.random() < 0.5:
            ref = rng.normal(size=d)
        bbox = (rng.normal(), rng.normal(), 5.0, 5.0)
        assert localize_one(cands, ref, bbox=bbox) == \
            localize_tip_scalar(cands, ref, bbox=bbox)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 16]),
           n_sets=st.integers(0, 6), n_pairs=st.integers(0, 9),
           faults=st.booleans())
    def test_batch_matches_per_set_oracle(self, seed, d, n_sets, n_pairs,
                                          faults):
        # tie-heavy sets as above, NaN and inf descriptors (a whole NaN
        # set too), -0.0 points and crop offsets, several references and
        # pairs in any set order with repeats; with faults, empty sets,
        # zero-norm descriptors and references and a reference of another
        # width: the batch must raise the error of its checks in their
        # order (``batch_error``), or give the per-set bits
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(2, d))
        sets = []
        for _ in range(n_sets):
            size = int(rng.integers(0 if faults else 1, 5))
            rows = [base[rng.integers(2)] * rng.choice([1.0, 3.0, 0.1, 1e-3])
                    if rng.random() < 0.6 else rng.normal(size=d)
                    for _ in range(size)]
            for v in rows:
                r = rng.random()
                if r < 0.1:
                    v[rng.integers(d)] = np.nan
                elif r < 0.15:
                    v[rng.integers(d)] = rng.choice([np.inf, -np.inf])
                elif r < 0.2:
                    v[:] = np.nan
                elif faults and r < 0.25:
                    v[:] = 0.0
            if rows and rng.random() < 0.1:
                rows = [np.full(d, np.nan) for _ in rows]
            sets.append(rows)
        crops = rng.choice([0.0, -0.0, 3.0, -1e-300, 1e300], size=(n_sets, 4))
        table = table_of(
            [[(x, y, v) for (x, y), v in zip(
                rng.choice([0.0, -0.0, 1.5, -2.25, 7.0], size=(len(rows), 2)),
                rows)] for rows in sets], crops, d)
        refs = [base[0] * 2.5, rng.normal(size=d), np.round(base[1]) + 1.0]
        if faults:
            refs += [np.full(d, 1e-200), rng.normal(size=d + 1)]
        if rng.random() < 0.1:
            refs[1][0] = np.nan
        n_pairs = n_pairs if n_sets else 0
        pair_sets = rng.integers(0, max(n_sets, 1), size=n_pairs)
        ref_of = rng.integers(0, len(refs), size=n_pairs)
        error = batch_error(table, pair_sets, refs, ref_of)
        if error is not None:
            with pytest.raises(ValueError) as caught:
                localize_tip(table, pair_sets, refs, ref_of)
            assert str(caught.value) == error
        else:
            want = [localize_tip_set(table.points[set_rows(table, s)],
                                     table.descriptors[set_rows(table, s)],
                                     refs[r], bbox=tuple(crops[s]))
                    for s, r in zip(pair_sets.tolist(), ref_of.tolist())]
            got = localize_tip(table, pair_sets, refs, ref_of)
            assert np.array_equal(bits(got), bits(want))


def batch_error(table, pair_sets, refs, ref_of):
    """The error of ``localize_tip``'s checks, in their order, for these
    pairs, or None: a pair's set with no candidates, then a zero-norm
    reference in use, then one of another width (the lowest index), then
    a zero-norm descriptor in the first such pair by reference, then
    input order."""
    used = sorted(set(ref_of.tolist()))
    width = table.descriptors.shape[1:]
    if any(table.offsets[s] == table.offsets[s + 1] for s in pair_sets):
        return "no tip candidates"
    if any(math.sqrt(refs[g] @ refs[g]) == 0.0 for g in used):
        return "zero-norm reference descriptor"
    for g in used:
        if refs[g].shape != width:
            return (f"descriptor dimension mismatch: candidates {width} vs "
                    f"reference {refs[g].shape}")
    for k in np.argsort(ref_of, kind="stable"):
        for i, v in enumerate(table.descriptors[set_rows(table, pair_sets[k])]):
            if math.sqrt(v @ v) == 0.0:
                return f"zero-norm descriptor at candidate {i}"
    return None


def tips_dir(tmp_path, fault_sets, refs):
    """A procedure directory for the tips stage: object 0 (needle driver
    S) and object 1 (scissors C), both at frames 0-3 with one candidate
    set per frame on their box, so the stage matches eight pairs; set
    (frame f, object o) is line 2f + o + 1 of the candidate file.
    ``fault_sets`` maps (frame, object) to that set's descriptors, which
    are written unchecked."""
    box = {0: (10.0, 10.0, 20.0, 20.0), 1: (60.0, 60.0, 20.0, 20.0)}
    tracks = [RefinedTrack(object_id=oid, class_id=cls,
                           boxes={f: box[oid] for f in range(4)},
                           provenance={f: Provenance.DETECTED
                                       for f in range(4)})
              for oid, cls in ((0, NDS), (1, SC))]
    cands = {}
    for f in range(4):
        for oid in (0, 1):
            descs = fault_sets.get((f, oid), [[1.0, 0.0], [0.0, 1.0]])
            cands[(f, oid)] = CandidateSet(
                candidates=[(1.0, 2.0, np.array(v)) for v in descs],
                bbox=box[oid])
    io.save_refined_tracks(tracks, tmp_path / "refined_tracks.jsonl")
    oracle_save_tip_candidates(cands, tmp_path / "tip_candidates.jsonl")
    io.save_reference_descriptors(refs, tmp_path / "reference_descriptors.json")
    io.save_json({"fps": 5.0, "n_frames": 4}, tmp_path / "meta.json")
    return tmp_path


REFS = {NDS: np.array([1.0, 1.0]), SC: np.array([1.0, 0.5])}
WIDE = np.array([1.0, 0.5, 2.0])


@pytest.mark.parametrize("fault_sets, refs, key, line_no, reason", [
    ({(2, 0): []}, REFS, "candidates", 5, "no tip candidates"),
    ({(3, 1): [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, REFS, "candidates", 8,
     "zero-norm descriptor at candidate 1"),
    ({(3, 1): [[1.0, 0.0], [1e-200, 0.0]]}, REFS, "candidates", 8,
     "zero-norm descriptor at candidate 1"),
    ({}, {**REFS, NDS: np.array([1e-200, 0.0])}, "references", 2,
     "class 'needle_driver_s': the descriptor must be a vector of nonzero "
     "norm"),
    # the first refused line decides, whatever order the pairs take
    ({(0, 1): [], (3, 0): [[0.0, 0.0]]}, REFS, "candidates", 2,
     "no tip candidates"),
    # a refused record first runs the zero-norm pass over the sets before it
    ({(1, 0): [], (0, 0): [[0.0, 0.0]]}, REFS, "candidates", 1,
     "zero-norm descriptor at candidate 0"),
    # the candidates are read, and refused, before the widths are compared
    ({(1, 0): [[1.0, 0.0], [0.0, 0.0]]}, {**REFS, SC: WIDE}, "candidates", 3,
     "zero-norm descriptor at candidate 1"),
])
def test_tips_stage_refuses_bad_candidates_at_their_line(
        tmp_path, fault_sets, refs, key, line_no, reason):
    d = tips_dir(tmp_path, fault_sets, refs)
    cfg = load_config(environ={}, overrides={"tracking": {"confirm_hits": 1}})
    with pytest.raises(io.ParseError) as caught:
        pipeline.stage_tips(d, cfg)
    assert str(caught.value) == (f"{d / io.ARTIFACTS[key][0]}:{line_no}: "
                                 f"{reason} (written by the 'synth' stage)")


def tips_scalar(tracks, cands, refs, n_frames, min_hits):
    """The tips stage's per-frame loop before batching, as the oracle of
    its set choice, its tips and each (class, frame)'s winner: the first
    crop with the highest IoU (0.5 or more) matched by
    ``localize_tip_set``, else the box centre; per (class, frame) the
    least (rank, object id), recovered rows ranking 1.  Returns
    {class: points} for each class with a row."""
    best = {}
    for track in sorted(tracks, key=lambda t: t.object_id):
        ref = refs.get(track.class_id)
        for f in pipeline._confirmed_frames(track, min_hits):
            if not 0 <= f < n_frames:
                continue
            box = track.boxes[f]
            chosen, best_iou = None, 0.0
            for key in sorted(k for k in cands if k[0] == f):
                cbox = cands[key].bbox
                if ref is not None and iou(box, cbox) > best_iou:
                    chosen, best_iou = key, iou(box, cbox)
            if chosen is not None and best_iou >= 0.5:
                cset = cands[chosen]
                tip = localize_tip_set(*columns(cset.candidates), ref,
                                       bbox=cset.bbox)
            else:
                x, y, w, h = box
                tip = (x + w / 2.0, y + h / 2.0)
            rank = 1 if track.provenance[f] == Provenance.RECOVERED else 0
            entry = (rank, track.object_id, tip)
            slot = (track.class_id, f)
            if slot not in best or entry[:2] < best[slot][:2]:
                best[slot] = entry
    return {c: [best[(c, f)][2] if (c, f) in best else None
                for f in range(n_frames)]
            for c in InstrumentClass if any(k[0] == c for k in best)}


@pytest.mark.parametrize("seed", range(8))
def test_tips_stage_matches_the_per_frame_loop(tmp_path, seed):
    # few box shapes, so crops tie and meet IoU 0.5 exactly; six tracks
    # over three classes, so rows of one class meet at a frame and rank
    # and object id decide; one class has no reference
    rng = np.random.default_rng(seed)
    grid = [(x, y, w, 10.0) for x in (0.0, 5.0, 10.0) for y in (0.0, 10.0)
            for w in (5.0, 10.0)]
    n_frames, classes = 12, [SC, ND, NDS]
    tracks = []
    for oid in range(6):
        fs = sorted(rng.choice(np.arange(-1, n_frames + 1), size=9,
                               replace=False).tolist())
        tracks.append(RefinedTrack(
            object_id=oid, class_id=classes[oid % 3],
            boxes={f: grid[rng.integers(len(grid))] for f in fs},
            provenance={f: list(Provenance)[rng.integers(3)] for f in fs}))
    base = rng.normal(size=(2, 3))
    cands = {}
    for f in range(n_frames):
        for oid in rng.choice(6, size=rng.integers(0, 5), replace=False):
            cands[(f, int(oid))] = CandidateSet(
                candidates=[(float(rng.integers(-3, 4)), -0.0,
                             base[rng.integers(2)] * rng.choice([1.0, 2.0])
                             if rng.random() < 0.5 else rng.normal(size=3))
                            for _ in range(rng.integers(1, 4))],
                bbox=grid[rng.integers(len(grid))])
    refs = {SC: base[0], NDS: rng.normal(size=3)}
    io.save_refined_tracks(tracks, tmp_path / "refined_tracks.jsonl")
    io.save_tip_candidates(candidate_table(cands),
                           tmp_path / "tip_candidates.jsonl")
    io.save_reference_descriptors(refs, tmp_path / "reference_descriptors.json")
    io.save_json({"fps": 5.0, "n_frames": n_frames}, tmp_path / "meta.json")
    cfg = load_config(environ={}, overrides={"tracking": {"confirm_hits": 2}})
    memo = {}
    pipeline.stage_tips(tmp_path, cfg, memo=memo)
    want = tips_scalar(tracks, cands, refs, n_frames, 2)
    got = {memo["tips_classes"][tr.instrument_id]: tr.points
           for tr in memo["tips"]}
    assert list(got) == list(want)
    for c in want:
        assert [p is None for p in got[c]] == [p is None for p in want[c]]
        assert np.array_equal(bits([p for p in got[c] if p is not None]),
                              bits([p for p in want[c] if p is not None]))
    assert [tr.instrument_id for tr in memo["tips"]] == \
        [list(InstrumentClass).index(c) for c in want]


def test_tips_stage_without_faults_takes_every_pair(tmp_path):
    d = tips_dir(tmp_path, {}, REFS)
    cfg = load_config(environ={}, overrides={"tracking": {"confirm_hits": 1}})
    assert pipeline.stage_tips(d, cfg)["n_localized"] == 8


class TestRecoveryCorrectionRates:
    BOX = (100.0, 100.0, 40.0, 40.0)

    def truth(self, frames, cls=SC, box=None):
        return [TruthInstance(frame=f, object_id=0, class_id=cls,
                              bbox=box or self.BOX) for f in frames]

    def refined(self, frames, cls=SC, box=None, prov=Provenance.DETECTED):
        b = box or self.BOX
        return [RefinedTrack(object_id=1, class_id=cls,
                             boxes={f: b for f in frames},
                             provenance={f: prov for f in frames})]

    def test_perfect_detector_undefined(self):
        frames = range(10)
        raw = [det(f, SC, self.BOX) for f in frames]
        rr, cr = recovery_correction_rates(raw, self.refined(frames),
                                           self.truth(frames))
        assert rr is None and cr is None

    def test_nine_of_ten_dropouts_recovered(self):
        frames = range(100)
        dropped = set(range(10, 20))
        raw = [det(f, SC, self.BOX) for f in frames if f not in dropped]
        # refined stream covers all but one dropped frame
        covered = [f for f in frames if f != 15]
        rr, cr = recovery_correction_rates(raw, self.refined(covered),
                                           self.truth(frames))
        assert rr == pytest.approx(0.9)
        assert cr is None

    def test_correction_rate_definition(self):
        frames = range(20)
        raw = [det(f, ND if f in (3, 7) else SC, self.BOX) for f in frames]
        rr, cr = recovery_correction_rates(raw, self.refined(frames),
                                           self.truth(frames))
        assert rr is None
        assert cr == pytest.approx(1.0)
        # a refined set that keeps the wrong class on frame 7 scores 0.5;
        # the wrong-class frame has to live on its own track since a
        # RefinedTrack carries one class
        t_ok = RefinedTrack(object_id=1, class_id=SC,
                            boxes={f: self.BOX for f in frames if f != 7},
                            provenance={f: Provenance.DETECTED
                                        for f in frames if f != 7})
        t_bad = RefinedTrack(object_id=2, class_id=ND,
                             boxes={7: self.BOX},
                             provenance={7: Provenance.DETECTED})
        rr, cr = recovery_correction_rates(raw, [t_ok, t_bad],
                                           self.truth(frames))
        assert cr == pytest.approx(0.5)

    def test_recovery_requires_overlap(self):
        frames = range(10)
        raw = [det(f, SC, self.BOX) for f in frames if f != 5]
        # refined box on frame 5 is far away: not a recovery
        far = RefinedTrack(object_id=1, class_id=SC,
                           boxes={5: (500.0, 500.0, 40.0, 40.0)},
                           provenance={5: Provenance.RECOVERED})
        rr, _ = recovery_correction_rates(raw, [far], self.truth(frames))
        assert rr == 0.0

    def test_end_to_end_dropouts_and_mislabels(self):
        # stationary two-instrument scene, dropouts and single-frame
        # mislabels injected; tracker + repair should fix nearly all
        frames = range(120)
        box_a, box_b = (50.0, 50.0, 40.0, 40.0), (300.0, 300.0, 40.0, 40.0)
        dropped = {20, 21, 22, 60, 61, 90}
        flipped = {40, 80}
        raw = []
        for f in frames:
            if f not in dropped:
                raw.append(det(f, SC, box_a))
            cls_b = NDS if f in flipped else ND
            raw.append(det(f, cls_b, box_b))
        truth = (self.truth(frames, SC, box_a)
                 + [TruthInstance(frame=f, object_id=1, class_id=ND,
                                  bbox=box_b) for f in frames])
        obs_rows = InstrumentTracker().run(raw)
        refined = refine_identity(obs_rows)
        rr, cr = recovery_correction_rates(raw, refined, truth)
        assert rr == 1.0
        assert cr == 1.0


# finite boxes whatever the sign of their size, which no loader passes:
# with a -0.0 width an overlap can be -0.0, which the clamp must make +0.0
_signed_box = st.tuples(*[st.sampled_from([-0.0, 0.0, -1.0, 1.0, 5.0])] * 4)


class TestIoUPairs:
    @settings(max_examples=500, deadline=None)
    @given(pairs=st.lists(st.tuples(st.one_of(_grid_box, _box, _signed_box),
                                    st.one_of(_grid_box, _box, _signed_box)),
                          min_size=1, max_size=20))
    def test_bits_equal_the_scalar_iou(self, pairs):
        got = iou_pairs(np.array([a for a, _ in pairs]),
                        np.array([b for _, b in pairs]))
        # hex tells -0.0 from 0.0
        assert [v.hex() for v in got.tolist()] == \
            [iou(a, b).hex() for a, b in pairs]


def match_frame_scalar(truth_boxes, boxes, threshold):
    """One frame's best one-to-one IoU matching, one scalar ``iou`` per
    pair and the solver on every frame: the oracle for ``_match_frames``."""
    if not truth_boxes or not boxes:
        return {}
    gains = np.array([[iou(tb, b) for b in boxes] for tb in truth_boxes])
    rows, cols = linear_sum_assignment(gains, maximize=True)
    return {int(i): int(j) for i, j in zip(rows, cols)
            if gains[i, j] >= threshold}


def rates_scalar(raw, refined, truth, iou_threshold):
    """``recovery_correction_rates`` as a per-frame loop over
    ``match_frame_scalar``: the oracle for its counting."""
    raw_by_frame, ref_by_frame, truth_by_frame = {}, {}, {}
    for d in raw:
        raw_by_frame.setdefault(d.frame, []).append(d)
    for track in refined:
        for f in track.frames():
            ref_by_frame.setdefault(f, []).append((track.class_id,
                                                   track.boxes[f]))
    for t in truth:
        truth_by_frame.setdefault(t.frame, []).append(t)
    misses = recovered = mislabels = corrected = 0
    for f, truths in truth_by_frame.items():
        t_boxes = [t.bbox for t in truths]
        dets = raw_by_frame.get(f, [])
        det_match = match_frame_scalar(t_boxes, [d.bbox for d in dets],
                                       iou_threshold)
        refs = ref_by_frame.get(f, [])
        ref_match = match_frame_scalar(t_boxes, [b for _, b in refs],
                                       iou_threshold)
        for i, t in enumerate(truths):
            in_refined = i in ref_match and refs[ref_match[i]][0] == t.class_id
            if i not in det_match:
                misses += 1
                recovered += in_refined
            elif dets[det_match[i]].class_id != t.class_id:
                mislabels += 1
                corrected += in_refined
    return (recovered / misses if misses else None,
            corrected / mislabels if mislabels else None)


@st.composite
def _frames(draw):
    """Frames 0, 2, 4, ... of 1-3 truth boxes and 0-4 boxes each, plus
    boxes on odd frames that no truth shares."""
    out = []
    for f in range(draw(st.integers(1, 6))):
        out.append((2 * f, draw(st.lists(_grid_box, min_size=1, max_size=3)),
                    draw(st.lists(_grid_box, max_size=4))))
        out.append((2 * f + 1, [], draw(st.lists(_grid_box, max_size=2))))
    return out


class TestMatchFramesMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(frames=_frames(), data=st.data())
    def test_per_frame_matches(self, frames, data):
        gains = [iou(t, b) for _, ts, bs in frames for t in ts for b in bs]
        # thresholds an IoU meets exactly, as well as fixed ones
        threshold = data.draw(st.sampled_from(gains + [0.0, 0.3, 0.5, 1.0]))
        tf = np.array([f for f, ts, _ in frames for _ in ts], dtype=np.int64)
        tb = np.array([t for _, ts, _ in frames for t in ts]).reshape(-1, 4)
        bf = np.array([f for f, _, bs in frames for _ in bs], dtype=np.int64)
        bb = np.array([b for _, _, bs in frames for b in bs]).reshape(-1, 4)
        match = tracking._match_frames(tf, tb, bf, bb, threshold).tolist()
        t0 = 0
        for f, ts, bs in frames:
            b0 = int(np.searchsorted(bf, f))
            got = {i: match[t0 + i] - b0 for i in range(len(ts))
                   if match[t0 + i] >= 0}
            assert got == match_frame_scalar(ts, bs, threshold)
            t0 += len(ts)

    @settings(max_examples=200, deadline=None)
    @given(frames=_frames(), data=st.data())
    def test_rates_in_any_input_order(self, frames, data):
        cls = st.sampled_from([SC, ND])
        truth = [TruthInstance(frame=f, object_id=i, class_id=data.draw(cls),
                               bbox=b)
                 for f, ts, _ in frames for i, b in enumerate(ts)]
        raw = [det(f, data.draw(cls), b) for f, _, bs in frames for b in bs]
        refined = []
        for f, _, bs in frames:
            for b in data.draw(st.lists(st.sampled_from(bs), max_size=3)
                               if bs else st.just([])):
                refined.append(RefinedTrack(
                    object_id=len(refined), class_id=data.draw(cls),
                    boxes={f: b}, provenance={f: Provenance.DETECTED}))
        truth, raw, refined = (data.draw(st.permutations(x))
                               for x in (truth, raw, refined))
        threshold = data.draw(st.sampled_from([0.0, 0.3, 0.5]))
        assert recovery_correction_rates(raw, refined, truth, threshold) == \
            rates_scalar(raw, refined, truth, threshold)
