import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microact import TipTrajectory
from microact.kinematics import (
    KinematicFeatureExtractor,
    build_feature_matrix,
    derivatives,
    downsample_trajectory,
    normalize,
    pairwise_features,
)


def traj(points, inst=0):
    return TipTrajectory(instrument_id=inst, points=list(points))


def linear_traj(T, vx=3.0, vy=0.0, inst=0):
    return traj([(vx * t, vy * t) for t in range(T)], inst=inst)


class TestDerivatives:
    def test_linear_motion_exact(self):
        d = derivatives(linear_traj(20, vx=3.0), 1.0)
        assert np.allclose(d.vel[1:-1], [3.0, 0.0])
        assert np.allclose(d.speed[1:-1], 3.0)
        assert np.allclose(d.acc, 0.0)
        assert np.allclose(d.jerk, 0.0)

    def test_quadratic_interior_exact(self):
        T = 20
        d = derivatives(traj([(t * t, 0.0) for t in range(T)]), 1.0)
        # velocity 2t is exact wherever the central stencil applies
        for t in range(1, T - 1):
            assert d.vel[t, 0] == pytest.approx(2.0 * t, abs=1e-12)
        # acc differentiates vel, so boundary contamination reaches 1 frame further
        for t in range(2, T - 2):
            assert d.acc[t, 0] == pytest.approx(2.0, abs=1e-12)
        for t in range(3, T - 3):
            assert d.jerk[t, 0] == pytest.approx(0.0, abs=1e-12)

    def test_fps_scaling(self):
        # same pixel displacements at 10 fps: velocity in px/s is 10x
        d1 = derivatives(linear_traj(10, vx=2.0), 1.0)
        d10 = derivatives(linear_traj(10, vx=2.0), 10.0)
        assert np.allclose(d10.vel[1:-1, 0], 10.0 * d1.vel[1:-1, 0])

    def test_polynomial_trajectory_truncation_error(self):
        # quartic position; central differences are O(dt^2) accurate
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(-1, 1, size=5)
        fps = 10.0
        T = 80
        ts = np.arange(T) / fps
        poly = np.polynomial.Polynomial(coeffs)
        d = derivatives(traj([(poly(t), 0.0) for t in ts]), fps)
        dt = 1.0 / fps
        dpoly = poly.deriv()
        scale = max(abs(poly.deriv(3)(t)) for t in ts)
        tol = scale * dt * dt  # leading truncation term is p'''*dt^2/6
        for t in range(3, T - 3):
            assert abs(d.vel[t, 0] - dpoly(ts[t])) <= tol
        d2poly = poly.deriv(2)
        scale4 = abs(poly.deriv(4)(0))
        for t in range(3, T - 3):
            assert abs(d.acc[t, 0] - d2poly(ts[t])) <= 2 * scale4 * dt * dt

    def test_gap_spanned_by_divided_difference(self):
        # linear motion with a hole: neighbors differentiate across it exactly
        pts = [(3.0 * t, 0.0) for t in range(10)]
        pts[4] = None
        d = derivatives(traj(pts), 1.0)
        present = [t for t in range(10) if t != 4]
        for t in present[1:-1]:
            assert d.vel[t, 0] == pytest.approx(3.0)
        assert np.all(d.vel[4] == 0.0)
        assert d.mask[4] == 0.0

    def test_fewer_than_two_present_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="fewer than 2"):
            d = derivatives(traj([None, (1.0, 1.0), None]), 1.0)
        assert np.all(d.vel == 0.0) and np.all(d.jerk == 0.0)

    def test_absent_frames_zero(self):
        pts = [(1.0 * t, 0.0) if t % 2 == 0 else None for t in range(12)]
        d = derivatives(traj(pts), 1.0)
        absent = [t for t in range(12) if t % 2 == 1]
        assert np.all(d.vel[absent] == 0.0)
        assert np.all(d.speed[absent] == 0.0)
        assert np.all(d.mask[absent] == 0.0)

    def test_invalid_fps(self):
        with pytest.raises(ValueError, match="fps"):
            derivatives(traj([(0.0, 0.0)] * 3), 0.0)


class TestTimeReversal:
    def test_velocity_negates_at_mirrored_interior_frames(self):
        rng = np.random.default_rng(0)
        pts = [tuple(p) for p in rng.normal(size=(30, 2)).cumsum(axis=0)]
        fwd = derivatives(traj(pts), 1.0)
        rev = derivatives(traj(pts[::-1]), 1.0)
        T = 30
        for t in range(1, T - 1):
            assert np.allclose(rev.vel[t], -fwd.vel[T - 1 - t], atol=1e-12)
            assert rev.speed[t] == pytest.approx(fwd.speed[T - 1 - t], abs=1e-12)


class TestPairwise:
    def test_identical_stationary_tips(self):
        a = traj([(5.0, 5.0)] * 10)
        b = traj([(5.0, 5.0)] * 10, inst=1)
        pf = pairwise_features(a, b, 1.0)
        for key in ("dist", "relvel", "dot", "angle"):
            assert np.all(pf[key] == 0.0)

    def test_orthogonal_velocities(self):
        # one tip moves along x, the other along y
        a = traj([(1.0 * t, 0.0) for t in range(10)])
        b = traj([(0.0, 1.0 * t) for t in range(10)], inst=1)
        pf = pairwise_features(a, b, 1.0)
        assert np.allclose(pf["dot"][1:-1], 0.0)
        assert np.allclose(pf["angle"][1:-1], math.pi / 2)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        pa = rng.normal(size=(25, 2)).cumsum(axis=0)
        pb = rng.normal(size=(25, 2)).cumsum(axis=0)
        a = traj([tuple(p) for p in pa])
        b = traj([tuple(p) for p in pb], inst=1)
        da, db = derivatives(a, 5.0), derivatives(b, 5.0)
        pf = pairwise_features(a, b, 5.0, da, db)
        for t in range(25):
            va, vb = da.vel[t], db.vel[t]
            assert pf["dist"][t] == pytest.approx(np.linalg.norm(pa[t] - pb[t]))
            assert pf["relvel"][t] == pytest.approx(np.linalg.norm(va - vb))
            assert pf["dot"][t] == pytest.approx(float(va @ vb))
            na, nb = np.linalg.norm(va), np.linalg.norm(vb)
            expect = 0.0 if na == 0 or nb == 0 else math.acos(
                np.clip(va @ vb / (na * nb), -1, 1))
            assert pf["angle"][t] == pytest.approx(expect)

    def test_angle_zero_velocity_defined_zero(self):
        a = traj([(0.0, 0.0)] * 8)  # stationary
        b = linear_traj(8, vx=1.0, inst=1)
        pf = pairwise_features(a, b, 1.0)
        assert np.all(pf["angle"] == 0.0)

    def test_either_absent_masks_frame(self):
        a = traj([(0.0, 0.0), None, (2.0, 0.0), (3.0, 0.0)])
        b = linear_traj(4, vx=1.0, inst=1)
        pf = pairwise_features(a, b, 1.0)
        assert pf["mask"][1] == 0.0
        assert pf["dist"][1] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pairwise_features(linear_traj(5), linear_traj(6, inst=1), 1.0)


class TestBuildMatrix:
    def test_two_instruments_give_ten_columns(self):
        km = build_feature_matrix([linear_traj(30, inst=0),
                                   linear_traj(30, vx=0.0, vy=2.0, inst=1)],
                                  1.0)
        assert km.X.shape == (30, 10)
        assert len(km.feature_names) == 10
        assert km.feature_names[0] == "inst0_speed"
        assert km.feature_names[-1] == "pair0_1_angle"

    def test_all_absent_instrument_zero_columns(self):
        a = linear_traj(20, inst=0)
        b = traj([None] * 20, inst=1)
        km = build_feature_matrix([a, b], 1.0)
        cols = [i for i, n in enumerate(km.feature_names) if n.startswith("inst1")]
        assert np.all(km.X[:, cols] == 0.0)
        assert np.all(km.presence_mask[:, 1] == 0.0)

    def test_downsample_row_count_and_fps(self):
        a = linear_traj(600)
        b = linear_traj(600, vy=1.0, inst=1)
        km = build_feature_matrix([a, b], 30.0, downsample=6)
        assert km.X.shape[0] == 100
        assert km.fps == pytest.approx(5.0)

    def test_mismatched_lengths_error(self):
        with pytest.raises(ValueError, match="lengths"):
            build_feature_matrix([linear_traj(10), linear_traj(11, inst=1)], 1.0)

    def test_column_order_deterministic(self):
        trs = [linear_traj(15, inst=2), linear_traj(15, vy=1.0, inst=0)]
        km1 = build_feature_matrix(trs, 1.0)
        km2 = build_feature_matrix(list(reversed(trs)), 1.0)
        assert km1.feature_names == km2.feature_names
        assert np.array_equal(km1.X, km2.X)


class TestTranslationInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        off=st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
    )
    def test_offset_leaves_features_unchanged(self, seed, off):
        rng = np.random.default_rng(seed)
        T = 24
        pa = rng.normal(scale=5.0, size=(T, 2)).cumsum(axis=0)
        pb = rng.normal(scale=5.0, size=(T, 2)).cumsum(axis=0)
        drop = rng.random(T) < 0.15
        mk = lambda P, inst: traj(
            [None if drop[t] else tuple(P[t]) for t in range(T)], inst=inst)
        base = build_feature_matrix([mk(pa, 0), mk(pb, 1)], 5.0)
        shifted = build_feature_matrix([mk(pa + off, 0), mk(pb + off, 1)], 5.0)
        assert np.allclose(base.X, shifted.X, rtol=1e-9, atol=1e-7)


class TestNormalize:
    def test_closed_form_column(self):
        out = normalize(np.array([[1.0], [2.0], [3.0]]))
        expect = np.array([-1.0, 0.0, 1.0]) * math.sqrt(1.5)
        assert np.allclose(out[:, 0], expect, atol=1e-4)
        assert out[1, 0] == 0.0
        assert out[2, 0] == pytest.approx(1.2247, abs=1e-4)

    def test_constant_column_zeros(self):
        out = normalize(np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]))
        assert np.all(out[:, 0] == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6)) * rng.uniform(0.5, 20, size=6)
        once = normalize(X)
        assert np.allclose(normalize(once), once, atol=1e-12)

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        out = normalize(rng.normal(loc=3.0, scale=4.0, size=(100, 3)))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)


class TestExtractor:
    def test_transformer_api(self):
        trs = [linear_traj(40, inst=0), linear_traj(40, vy=1.5, inst=1)]
        km = KinematicFeatureExtractor().transform(trs, 1.0)
        assert km.X.shape == (40, 10)
        # z-scored: nonconstant columns have mean ~0
        assert np.allclose(km.X.mean(axis=0), 0.0, atol=1e-9)


class TestDownsample:
    def test_factor_one_identity(self):
        t = linear_traj(10)
        assert downsample_trajectory(t, 1) is t

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            downsample_trajectory(linear_traj(10), 0)
