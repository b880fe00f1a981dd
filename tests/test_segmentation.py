import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microact.segmentation import (
    Boundaries,
    NoveltyBoundaryDetector,
    SelfSimilarityBand,
    enhance,
    make_kernel,
    novelty,
    peak_pick,
    ssm,
    ssm_band,
)
from microact.validation import NotFittedError


# --- independent oracles -------------------------------------------------
# Written straight from the definitions, no shared code with the library.


def cosine_ssm_oracle(X):
    T = X.shape[0]
    S = np.zeros((T, T))
    for i in range(T):
        for j in range(T):
            ni = math.sqrt(float(np.dot(X[i], X[i])))
            nj = math.sqrt(float(np.dot(X[j], X[j])))
            if ni == 0.0 or nj == 0.0:
                S[i, j] = 0.0
            elif i == j:
                S[i, j] = 1.0
            else:
                S[i, j] = float(np.dot(X[i], X[j])) / (ni * nj)
    return S


def novelty_quadruple_loop(S_enh, h, sigma):
    """Literal double sum over i, j in [-h, h-1] with the closed-form weight."""
    T = S_enh.shape[0]
    N = np.zeros(T)
    for t in range(h, T - h):
        acc = 0.0
        for i in range(-h, h):
            for j in range(-h, h):
                g = math.exp(-(((i + 0.5) ** 2) + ((j + 0.5) ** 2))
                             / (2.0 * sigma * sigma))
                sgn = (1.0 if i >= 0 else -1.0) * (1.0 if j >= 0 else -1.0)
                acc += g * sgn * S_enh[t + i, t + j]
        N[t] = acc
    return N


def peak_oracle(N, threshold, d_min):
    """Exhaustive local-maxima + prominence + suppression reimplementation."""
    T = len(N)
    candidates = []
    for t in range(1, T - 1):
        if not N[t] > N[t - 1]:
            continue
        k = t
        while k + 1 < T and N[k + 1] == N[t]:
            k += 1
        if k == T - 1 or not N[k + 1] < N[t]:
            continue
        s = t - 1
        while s >= 0 and N[s] <= N[t]:
            s -= 1
        left = min(N[s + 1: t]) if s + 1 < t else N[t]
        e = t + 1
        while e < T and N[e] <= N[t]:
            e += 1
        right = min(N[t + 1: e]) if t + 1 < e else N[t]
        prom = N[t] - max(left, right)
        if prom >= threshold:
            candidates.append((t, prom))
    kept = []
    for t, p in sorted(candidates, key=lambda tp: (-N[tp[0]], tp[0])):
        if all(abs(t - u) >= d_min for u, _ in kept):
            kept.append((t, p))
    return sorted(kept)


# --- ssm -----------------------------------------------------------------


class TestSSM:
    def test_identical_rows_all_ones(self):
        S = ssm(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert np.allclose(S, np.ones((2, 2)), atol=1e-12)
        assert S[0, 0] == 1.0 and S[1, 1] == 1.0  # diagonal exact
        assert np.all(S <= 1.0)

    def test_orthogonal_rows(self):
        S = ssm(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert S[0, 1] == 0.0 and S[1, 0] == 0.0
        assert S[0, 0] == 1.0 and S[1, 1] == 1.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(6, 3))
        S = ssm(X)
        assert np.allclose(S, cosine_ssm_oracle(X), atol=1e-12)

    def test_zero_row_convention(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        S = ssm(X)
        assert np.all(S[1, :] == 0.0) and np.all(S[:, 1] == 0.0)
        assert S[1, 1] == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        S = ssm(rng.normal(size=(15, 4)))
        assert np.array_equal(S, S.T)

    def test_cap_exceeded_points_to_band(self):
        with pytest.raises(ValueError, match="ssm_band"):
            ssm(np.ones((30, 2)), full_matrix_cap=20)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.01, 100.0))
    def test_positive_row_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 3)) + 0.1
        X2 = X.copy()
        X2[3] *= scale
        assert np.allclose(ssm(X), ssm(X2), atol=1e-12)


class TestSSMBand:
    def test_band_equals_full_exactly(self):
        rng = np.random.default_rng(5)
        for T, h in [(12, 2), (40, 5), (25, 12), (9, 1)]:
            X = rng.normal(size=(T, 4))
            X[rng.random(T) < 0.2] = 0.0  # some zero rows
            S = ssm(X)
            band = ssm_band(X, h)
            bw = band.bandwidth
            for o in range(-min(bw, T - 1), min(bw, T - 1) + 1):
                expect = np.diagonal(S, offset=o)
                # S(t, t+o) for t in [max(0, -o), T - max(0, o))
                got = band.band[max(0, -o): T - max(0, o), bw + o]
                assert np.array_equal(got, expect), (T, h, o)

    def test_h_at_least_T_is_full(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        band = ssm_band(X, 5)
        # every offset of the 5x5 matrix is in the band
        bw = band.bandwidth
        dense = [[band.band[i, bw + j - i] for j in range(5)] for i in range(5)]
        assert np.array_equal(np.array(dense), ssm(X))

    def test_single_frame(self):
        band = ssm_band(np.array([[3.0, 4.0]]), 1)
        assert band.band[0, band.bandwidth] == 1.0
        band0 = ssm_band(np.array([[0.0, 0.0]]), 1)
        assert band0.band[0, band0.bandwidth] == 0.0

    def test_memory_is_banded(self):
        X = np.random.default_rng(0).normal(size=(500, 3))
        band = ssm_band(X, 4)
        assert band.band.shape == (500, 17)


class TestEnhance:
    def test_pointwise_values(self):
        S = np.array([[-0.5, 1.0], [1.0, 0.3]])
        out = enhance(S)
        assert out[0, 0] == 0.25
        assert out[0, 1] == 1.0

    def test_random_equals_square_oracle(self):
        rng = np.random.default_rng(9)
        S = rng.uniform(-1, 1, size=(10, 10))
        assert np.array_equal(enhance(S), S * S)

    def test_sign_erasing(self):
        rng = np.random.default_rng(10)
        S = rng.uniform(-1, 1, size=(6, 6))
        assert np.array_equal(enhance(S), enhance(-S))

    def test_band_inplace(self):
        X = np.random.default_rng(2).normal(size=(20, 3))
        band = ssm_band(X, 3)
        vals = band.band.copy()
        out = enhance(band, inplace=True)
        assert out is band
        assert np.array_equal(band.band, vals * vals)

    def test_band_copy_leaves_original(self):
        X = np.random.default_rng(2).normal(size=(20, 3))
        band = ssm_band(X, 3)
        vals = band.band.copy()
        out = enhance(band)
        assert out is not band
        assert np.array_equal(band.band, vals)


class TestKernel:
    def test_h1_closed_form(self):
        sigma = 0.7
        k = make_kernel(1, sigma)
        g = math.exp(-0.25 / (2 * sigma * sigma))
        expect = np.array([[g * g, -g * g], [-g * g, g * g]])
        assert np.allclose(np.outer(k.w, k.w), expect, rtol=1e-15)

    def test_h2_sigma1_matches_formula(self):
        k = make_kernel(2, 1.0)
        W = np.outer(k.w, k.w)
        for i in range(-2, 2):
            for j in range(-2, 2):
                g = math.exp(-(((i + 0.5) ** 2) + ((j + 0.5) ** 2)) / 2.0)
                sgn = (1 if i >= 0 else -1) * (1 if j >= 0 else -1)
                assert W[i + 2, j + 2] == pytest.approx(g * sgn, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 40), sigma=st.floats(0.1, 50.0))
    def test_weights_sum_to_zero(self, h, sigma):
        k = make_kernel(h, sigma)
        assert abs(float(np.outer(k.w, k.w).sum())) < 1e-12

    def test_quadrant_sign_pattern(self):
        k = make_kernel(3, 1.5)
        W = np.outer(k.w, k.w)
        for i in range(-3, 3):
            for j in range(-3, 3):
                same = (i >= 0) == (j >= 0)
                assert (W[i + 3, j + 3] > 0) == same

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_kernel(0, 1.0)
        with pytest.raises(ValueError):
            make_kernel(2, 0.0)


class TestNovelty:
    def test_constant_rows_zero_novelty(self):
        X = np.tile([1.0, 2.0, -1.0], (200, 1))
        band = enhance(ssm_band(X, 10), inplace=True)
        N = novelty(band, make_kernel(10, 5.0))
        assert np.max(np.abs(N)) < 1e-9

    def test_zero_outside_valid_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        h = 7
        band = enhance(ssm_band(X, h), inplace=True)
        N = novelty(band, make_kernel(h, 3.0))
        assert np.all(N[:h] == 0.0)
        assert np.all(N[50 - h:] == 0.0)

    def test_two_regime_peak_at_boundary(self):
        X = np.zeros((100, 2))
        X[:50, 0] = 1.0
        X[50:, 1] = 1.0
        h = 10
        band = enhance(ssm_band(X, h), inplace=True)
        N = novelty(band, make_kernel(h, 5.0))
        assert abs(int(np.argmax(N)) - 50) <= 1

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            T = int(rng.integers(10, 60))
            d = int(rng.integers(1, 5))
            h = int(rng.integers(1, max(2, T // 2 - 1)))
            sigma = float(rng.uniform(0.5, h))
            X = rng.normal(size=(T, d))
            X[rng.random(T) < 0.1] = 0.0
            S_enh = enhance(ssm(X))
            expect = novelty_quadruple_loop(S_enh, h, sigma)
            band = enhance(ssm_band(X, h), inplace=True)
            got = novelty(band, make_kernel(h, sigma))
            assert np.allclose(got, expect, atol=1e-12), (T, d, h)

    def test_full_matrix_input_equals_band_path(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        h = 5
        kernel = make_kernel(h, 2.5)
        from_band = novelty(enhance(ssm_band(X, h), inplace=True), kernel)
        from_full = novelty(enhance(ssm(X)), kernel)
        assert np.array_equal(from_band, from_full)

    def test_band_narrower_than_kernel_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        band = ssm_band(X, 2)
        with pytest.raises(ValueError, match="narrower"):
            novelty(band, make_kernel(5, 2.0))

    def test_short_signal_all_zero(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        band = enhance(ssm_band(X, 4), inplace=True)
        N = novelty(band, make_kernel(4, 2.0))
        assert np.all(N == 0.0)


class TestPeakPick:
    def test_single_peak(self):
        b = peak_pick([0.0, 1.0, 0.0], 0.0, 1)
        assert list(b.taus) == [1]
        assert b.prominences[0] == pytest.approx(1.0)

    def test_suppression_keeps_higher(self):
        b = peak_pick([0.0, 1.0, 0.0, 0.9, 0.0], 0.0, 4)
        assert list(b.taus) == [1]

    def test_close_peaks_survive_when_d_min_allows(self):
        b = peak_pick([0.0, 1.0, 0.0, 0.9, 0.0], 0.0, 2)
        assert list(b.taus) == [1, 3]

    def test_threshold_filters(self):
        N = [0.0, 0.2, 0.0, 1.0, 0.0]
        assert list(peak_pick(N, 0.5, 1).taus) == [3]

    def test_plateau_reports_leftmost(self):
        b = peak_pick([0.0, 1.0, 1.0, 1.0, 0.0], 0.0, 1)
        assert list(b.taus) == [1]

    def test_endpoint_plateau_not_a_peak(self):
        assert len(peak_pick([1.0, 1.0, 0.0], 0.0, 1)) == 0
        assert len(peak_pick([0.0, 1.0, 1.0], 0.0, 1)) == 0

    def test_matches_oracle_on_random_curves(self):
        rng = np.random.default_rng(23)
        for case in range(30):
            T = int(rng.integers(5, 300))
            N = rng.normal(size=T).cumsum()
            if case % 3 == 0:
                N = np.round(N, 1)  # force plateaus and height ties
            span = float(N.max() - N.min()) or 1.0
            threshold = float(rng.uniform(0.0, 0.3)) * span
            d_min = int(rng.integers(1, 30))
            got = peak_pick(N, threshold, d_min)
            expect = peak_oracle(N, threshold, d_min)
            assert list(got.taus) == [t for t, _ in expect], (case, T, d_min)
            assert list(got.prominences) == [p for _, p in expect]

    def test_output_spacing_invariant(self):
        rng = np.random.default_rng(4)
        N = rng.normal(size=400).cumsum()
        b = peak_pick(N, 0.0, 17)
        assert np.all(np.diff(b.taus) >= 17)
        assert np.all(np.diff(b.taus) > 0)

    def test_prominence_satisfies_definition(self):
        # recompute Eq. 4 independently for every returned peak
        rng = np.random.default_rng(31)
        N = rng.normal(size=250).cumsum()
        b = peak_pick(N, 0.1, 5)
        assert len(b) > 0
        oracle = dict(peak_oracle(N, 0.0, 1))
        for t, p in zip(b.taus, b.prominences):
            assert p == oracle[int(t)]

    def test_empty_and_flat(self):
        assert len(peak_pick([0.0, 0.0, 0.0, 0.0], 0.0, 1)) == 0
        assert len(peak_pick([1.0], 0.0, 1)) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            peak_pick([0.0, 1.0, 0.0], -0.1, 1)
        with pytest.raises(ValueError):
            peak_pick([0.0, 1.0, 0.0], 0.0, 0)


class TestDetector:
    @staticmethod
    def three_regime_X(T=240):
        X = np.zeros((T, 3))
        X[:80, 0] = 1.0
        X[80:160, 1] = 1.0
        X[160:, 2] = 1.0
        return X

    def test_finds_regime_boundaries(self):
        det = NoveltyBoundaryDetector(half_width=12, min_distance=20)
        det.fit(self.three_regime_X())
        assert len(det.boundaries_) == 2
        assert abs(det.boundaries_[0] - 80) <= 2
        assert abs(det.boundaries_[1] - 160) <= 2

    def test_constant_input_no_boundaries(self):
        det = NoveltyBoundaryDetector(half_width=10)
        det.fit(np.tile([0.5, 1.5], (300, 1)))
        assert len(det.boundaries_) == 0
        assert np.max(np.abs(det.novelty_)) < 1e-9

    def test_sigma_default_is_half_h(self):
        det = NoveltyBoundaryDetector(half_width=16).fit(self.three_regime_X())
        assert det.sigma_ == 8.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            NoveltyBoundaryDetector().predict()

    def test_fit_predict_returns_boundaries(self):
        det = NoveltyBoundaryDetector(half_width=12, min_distance=20)
        taus = det.fit_predict(self.three_regime_X())
        assert np.array_equal(taus, det.boundaries_)

    def test_get_set_params(self):
        det = NoveltyBoundaryDetector(half_width=7, prominence_frac=0.4)
        params = det.get_params()
        assert params["half_width"] == 7
        det.set_params(half_width=9)
        assert det.half_width == 9

    def test_set_params_unknown_rejected_unchanged(self):
        det = NoveltyBoundaryDetector(half_width=7, prominence_frac=0.4)
        before = det.get_params()
        with pytest.raises(ValueError, match="no_such_param"):
            det.set_params(half_width=9, no_such_param=1)
        assert det.get_params() == before
        assert not hasattr(det, "no_such_param")

    def test_deterministic(self):
        X = np.random.default_rng(6).normal(size=(300, 5))
        a = NoveltyBoundaryDetector(half_width=10).fit(X)
        b = NoveltyBoundaryDetector(half_width=10).fit(X)
        assert np.array_equal(a.novelty_, b.novelty_)
        assert np.array_equal(a.boundaries_, b.boundaries_)
