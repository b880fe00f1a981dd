"""Tracking, identity repair, tip localization and repair-rate tests.

Oracles:
  * association checked against explicit enumeration of both possible
    assignments for the 2x2 crossed-box case, and brute-force permutation
    search for random cost matrices;
  * the moving-box Kalman example against closed-form constant-velocity
    extrapolation;
  * tip localization against exhaustive similarity computation, and the
    columnar ``localize_tip`` against the per-candidate loop it replaced
    (``localize_tip_scalar``) on tie-heavy sets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microact.records import (Detection, InstrumentClass, Provenance,
                              RefinedTrack, TrackObservation, TruthInstance)
from microact.tracking import (InstrumentTracker, KalmanState, associate,
                               bbox_to_measurement, iou, kalman_init,
                               kalman_predict, kalman_update, localize_tip,
                               measurement_to_bbox, recovery_correction_rates,
                               refine_identity, state_bbox)

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
        with pytest.raises(ValueError, match="sum to 1"):
            associate([(0, 0, 1, 1)], [(0, 0, 1, 1)],
                      iou_weight=0.7, appearance_weight=0.7)
        with pytest.raises(ValueError, match="nonnegative"):
            associate([(0, 0, 1, 1)], [(0, 0, 1, 1)],
                      iou_weight=1.5, appearance_weight=-0.5)

    def test_appearance_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            associate([(0, 0, 1, 1)], [(0, 0, 1, 1)],
                      det_apps=[np.ones(4)], track_apps=[np.ones(8)])


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
        s = kalman_init((0, 0, 10, 10))
        s.x[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            kalman_predict(s)
        with pytest.raises(ValueError, match="non-finite"):
            kalman_update(s, (0, 0, 10, 10))


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
        obs = InstrumentTracker().run(dets)
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
    """The per-candidate loop that ``localize_tip`` replaced: the oracle
    for its arithmetic and its first-index tie rule."""
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


class TestLocalizeTip:
    def test_single_candidate(self):
        p = localize_tip(*columns([(3.0, 4.0, np.array([1.0, 0.0]))]),
                         np.array([0.5, 0.5]))
        assert p == (3.0, 4.0)

    def test_opposite_descriptor_loses(self):
        ref = np.array([1.0, 2.0, 3.0])
        cands = [(0.0, 0.0, ref.copy()), (9.0, 9.0, -ref)]
        assert localize_tip(*columns(cands), ref) == (0.0, 0.0)

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
            assert localize_tip(*columns(cands), ref) == (float(best),
                                                          float(best))

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(0.001, 1000.0),
           seed=st.integers(0, 10_000))
    def test_descriptor_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=5)
        cands = [(float(i), 0.0, rng.normal(size=5)) for i in range(4)]
        base = localize_tip(*columns(cands), ref)
        scaled = [(x, y, d * scale) for x, y, d in cands]
        assert localize_tip(*columns(scaled), ref * scale) == base

    def test_tie_keeps_lowest_index(self):
        ref = np.array([1.0, 0.0])
        d = np.array([2.0, 0.0])
        cands = [(0.0, 0.0, d), (5.0, 5.0, d * 3)]  # identical similarity 1
        assert localize_tip(*columns(cands), ref) == (0.0, 0.0)

    def test_bbox_offset_applied(self):
        p = localize_tip(*columns([(3.0, 4.0, np.array([1.0]))]),
                         np.array([2.0]), bbox=(100.0, 200.0, 50.0, 50.0))
        assert p == (103.0, 204.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="no tip candidates"):
            localize_tip(*columns([]), np.array([1.0]))
        with pytest.raises(ValueError, match="zero-norm reference"):
            localize_tip(*columns([(0, 0, np.array([1.0]))]), np.array([0.0]))
        with pytest.raises(ValueError, match="zero-norm descriptor"):
            localize_tip(*columns([(0, 0, np.array([0.0]))]), np.array([1.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            localize_tip(*columns([(0, 0, np.array([1.0, 2.0]))]),
                         np.array([1.0]))

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
        assert localize_tip(*columns(cands), ref, bbox=bbox) == \
            localize_tip_scalar(cands, ref, bbox=bbox)


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
