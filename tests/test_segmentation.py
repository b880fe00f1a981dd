import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import microact
from microact import segmentation
from microact.segmentation import (
    NoveltyBoundaryDetector,
    SelfSimilarityBand,
    enhance,
    make_kernel,
    novelty,
    peak_pick,
    ssm,
    ssm_band,
    unit_rows,
)


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


def novelty_from_band(band, w):
    """Novelty from a whole enhanced band, ``enhance(ssm_band(U, h))``:
    the same fold onto the upper half, the same kernel taps, FFT length
    and ``_BAND_COLS`` grouping as :func:`novelty`, with every column
    built before the first transform."""
    h = len(w) // 2
    T = band.T
    N = np.zeros(T, dtype=np.float64)
    if T <= 2 * h:
        return N
    L = 1 << (T - 1).bit_length()
    acc = np.zeros(L // 2 + 1, dtype=np.complex128)
    a = np.arange(2 * h)[:, None]
    w_pad = np.concatenate((w, np.zeros(2 * h)))
    step = segmentation._BAND_COLS
    for o0 in range(0, 2 * h, step):
        o = np.arange(o0, min(o0 + step, 2 * h))
        kernels = w[:, None] * w_pad[a + o]
        kernels[:, o > 0] *= 2.0
        cols = np.fft.rfft(band.band[:, o0: o0 + len(o)], n=L, axis=0)
        taps = np.fft.rfft(kernels, n=L, axis=0)
        acc += np.einsum("fk,fk->f", cols, taps.conj())
    N[h: T - h] = np.fft.irfft(acc, n=L)[: T - 2 * h]
    return N


def ssm_band_padded(U, h, start=0, stop=None):
    """The band as ``ssm_band`` built it before it read windows of U
    itself: one ``einsum`` over a sliding window of a zero-padded copy of
    all of U.  The oracle for its bits."""
    stop = 2 * h if stop is None else stop
    T, d = U.shape
    sq = np.einsum("td,td->t", U, U)
    pad = np.zeros((T + stop - 1, d), dtype=np.float64)
    pad[:T] = U
    n = stop - start
    band = np.einsum("tkd,td->tk",
                     sliding_window_view(pad[start:], (n, d))[:, 0], U)
    np.clip(band, -1.0, 1.0, out=band)
    if start == 0:
        band[:, 0] = sq > 0
    return band


def local_maxima_loop(N):
    """Interior local maxima, one sample at a time; a flat plateau reports
    its leftmost index."""
    T = len(N)
    out = []
    t = 1
    while t < T - 1:
        if N[t] > N[t - 1]:
            k = t
            while k + 1 < T and N[k + 1] == N[t]:
                k += 1
            if k < T - 1 and N[k + 1] < N[t]:
                out.append(t)
            t = k + 1
        else:
            t += 1
    return out


def prominence_loop(N, t):
    """Peak height minus the highest of the two flanking window minima;
    each window runs from the peak to the nearest strictly higher sample
    on that side, or to the signal edge when none exists."""
    T = len(N)
    s = t - 1
    while s >= 0 and N[s] <= N[t]:
        s -= 1
    left = min(N[s + 1: t]) if s + 1 < t else N[t]
    e = t + 1
    while e < T and N[e] <= N[t]:
        e += 1
    right = min(N[t + 1: e]) if t + 1 < e else N[t]
    return N[t] - max(left, right)


def peak_oracle(N, threshold, d_min):
    """Per-sample local-maxima and prominence scans, then suppression."""
    candidates = [(t, p) for t in local_maxima_loop(N)
                  if (p := prominence_loop(N, t)) >= threshold]
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
        # raises before it allocates the 10001 x 10001 matrix
        with pytest.raises(ValueError, match="ssm_band"):
            ssm(np.ones((10_001, 1)))

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
            band = ssm_band(unit_rows(X), h)
            assert band.band.shape == (T, 2 * h)
            for o in range(2 * h):
                # S(t, t+o) for t in [0, T - o), then 0 past T
                got = band.band[:, o]
                expect = np.diagonal(S, offset=o)
                assert np.array_equal(got[: T - o], expect), (T, h, o)
                assert np.all(got[max(T - o, 0):] == 0.0), (T, h, o)

    def test_h_at_least_T_is_full(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        band = ssm_band(unit_rows(X), 5)
        # every offset of the 5x5 matrix is in the upper half, which
        # gives the lower half by symmetry
        dense = [[band.band[min(i, j), abs(j - i)] for j in range(5)]
                 for i in range(5)]
        assert np.array_equal(np.array(dense), ssm(X))
        assert np.all(band.band[:, 5:] == 0.0)

    def test_single_frame(self):
        band = ssm_band(unit_rows(np.array([[3.0, 4.0]])), 1)
        assert band.band.tolist() == [[1.0, 0.0]]
        band0 = ssm_band(np.array([[0.0, 0.0]]), 1)
        assert band0.band.tolist() == [[0.0, 0.0]]

    def test_memory_is_banded(self):
        U = unit_rows(np.random.default_rng(0).normal(size=(500, 3)))
        band = ssm_band(U, 4)
        assert band.band.shape == (500, 8)
        block = ssm_band(U, 4, 3, 7)
        assert block.band.shape == (500, 4) and block.start == 3

    def test_peak_memory_is_the_band_and_a_few_rows(self):
        # the resegment-sweep shape: 8010 frames, 36 features, h = 150;
        # besides the band only the last 2h rows' zero-padded tail may be
        # alive, not a padded copy of all of U (2.3 MB)
        U = unit_rows(np.cumsum(
            np.random.default_rng(3).normal(size=(8010, 36)), axis=0))
        tracemalloc.start()
        try:
            band = ssm_band(U, 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= band.band.nbytes + (1 << 20), (peak, band.band.nbytes)

    def test_fit_peaks_below_the_full_band(self):
        # the whole detector at the resegment-sweep shape holds less than
        # the upper half of the band, T x 2h floats, would alone
        T, h = 8010, 150
        X = np.cumsum(np.random.default_rng(3).normal(size=(T, 36)), axis=0)
        tracemalloc.start()
        try:
            NoveltyBoundaryDetector(half_width=h).fit(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * 2 * h * 8, peak

    def test_raw_rows_rejected(self):
        X = np.random.default_rng(4).normal(size=(30, 3))
        with pytest.raises(ValueError, match="unit_rows"):
            ssm_band(X, 2)
        U = unit_rows(X)
        U[5] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="unit_rows"):
            ssm_band(U, 2)

    def test_block_bounds_checked(self):
        U = unit_rows(np.random.default_rng(4).normal(size=(30, 3)))
        for start, stop in [(-1, 2), (2, 2), (3, 2), (0, 5)]:
            with pytest.raises(ValueError, match="start"):
                ssm_band(U, 2, start, stop)


class TestUnitRows:
    def test_unit_or_zero(self):
        X = np.random.default_rng(2).normal(size=(40, 5))
        X[3] = 0.0
        U = unit_rows(X)
        sq = np.einsum("td,td->t", U, U)
        assert sq[3] == 0.0
        assert np.all(np.abs(np.delete(sq, 3) - 1.0) < 1e-15)

    @pytest.mark.parametrize("power", [-540, -480, 480, 540])
    def test_far_norms_come_out_unit(self, power):
        # squares of these rows underflow or overflow float64; scaling by
        # a power of two is exact, so the unit rows keep their bits
        X = np.random.default_rng(power % 7).normal(size=(20, 4))
        assert same_bits(unit_rows(np.ldexp(X, power)), unit_rows(X))


# --- one-pass builds against the per-offset code they replaced ------------


def _shifted_rowdot(Xu, o):
    T = Xu.shape[0]
    v = np.einsum("td,td->t", Xu[: T - o], Xu[o:])
    return np.clip(v, -1.0, 1.0, out=v)


def per_offset_ssm(X):
    X = np.ascontiguousarray(X, dtype=np.float64)
    T = X.shape[0]
    Xu = unit_rows(X)
    S = np.zeros((T, T), dtype=np.float64)
    nz = np.einsum("td,td->t", Xu, Xu) > 0
    S[np.diag_indices(T)] = nz.astype(np.float64)
    idx = np.arange(T)
    for o in range(1, T):
        v = _shifted_rowdot(Xu, o)
        S[idx[: T - o], idx[: T - o] + o] = v
        S[idx[: T - o] + o, idx[: T - o]] = v
    return S


def per_offset_band(X, h):
    X = np.ascontiguousarray(X, dtype=np.float64)
    T = X.shape[0]
    Xu = unit_rows(X)
    band = np.zeros((T, 2 * h), dtype=np.float64)
    nz = np.einsum("td,td->t", Xu, Xu) > 0
    band[:, 0] = nz.astype(np.float64)
    for o in range(1, min(2 * h, T)):
        band[: T - o, o] = _shifted_rowdot(Xu, o)
    return band


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@st.composite
def feature_matrices(draw, max_T=120, max_d=12, T=None):
    T = draw(st.integers(1, max_T)) if T is None else T
    d = draw(st.integers(0, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.normal(size=(T, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # scaled copies of one row, whose unit dot products can round past 1
    X[rng.random(T) < 0.3] = X[0] * draw(st.sampled_from([3.0, 0.1, 7e5]))
    X[rng.random(T) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    X[:, rng.random(d) < 0.2] *= -0.0  # columns of -0.0 and 0.0
    return X


@st.composite
def band_cases(draw):
    """(X, h, start, stop) for ``ssm_band``: stop = 1 among them, and T
    below, at and just past stop as often as far past it."""
    h = draw(st.integers(1, 40))
    stop = draw(st.one_of(st.just(1), st.integers(1, 2 * h)))
    start = draw(st.integers(0, stop - 1))
    T = draw(st.one_of(st.sampled_from([stop - 1, stop, stop + 1]),
                       st.integers(1, 3 * stop + 40)))
    return draw(feature_matrices(T=max(T, 1))), h, start, stop


class TestOnePassAgainstPerOffset:
    @settings(max_examples=150, deadline=None)
    @given(X=feature_matrices(), h=st.integers(1, 40), data=st.data())
    def test_band_bits(self, X, h, data):
        U = unit_rows(X)
        whole = ssm_band(U, h).band
        assert same_bits(whole, per_offset_band(X, h))
        # any block of columns has the bits of those columns of the band
        start = data.draw(st.integers(0, 2 * h - 1))
        stop = data.draw(st.integers(start + 1, 2 * h))
        assert same_bits(ssm_band(U, h, start, stop).band,
                         np.ascontiguousarray(whole[:, start:stop]))

    @settings(max_examples=100, deadline=None)
    @given(X=feature_matrices())
    def test_dense_bits(self, X):
        assert same_bits(ssm(X), per_offset_ssm(X))

    @settings(max_examples=200, deadline=None)
    @given(case=band_cases())
    @example(case=(np.zeros((1, 3)), 1, 0, 1))  # stop = 1, a zero row
    @example(case=(np.eye(3), 2, 1, 4))  # T = stop - 1, start > 0
    @example(case=(np.eye(4), 2, 1, 4))  # T = stop
    @example(case=(np.eye(2), 3, 4, 6))  # T < stop, start >= T
    def test_band_equals_padded_oracle(self, case):
        # windows of U itself, then a zero-padded tail: the bits of one
        # window over a padded copy of all of U
        X, h, start, stop = case
        U = unit_rows(X)
        assert same_bits(ssm_band(U, h, start, stop).band,
                         ssm_band_padded(U, h, start, stop))

    @pytest.mark.parametrize("h", [1, 60, 150])
    def test_band_bits_over_many_chunks(self, h):
        # random-walk features, as the kinematic ones drift; T spans
        # several chunks of the default size
        rng = np.random.default_rng(h)
        X = np.cumsum(rng.normal(size=(1100, 36)), axis=0)
        X[rng.random(1100) < 0.05] = 0.0
        assert same_bits(ssm_band(unit_rows(X), h).band,
                         per_offset_band(X, h))


class TestEnhance:
    def test_pointwise_values(self):
        S = np.array([[-0.5, 1.0], [1.0, 0.3]])
        out = enhance(S)
        assert out[0, 0] == 0.25
        assert out[0, 1] == 1.0

    def test_random_equals_square_oracle(self):
        rng = np.random.default_rng(9)
        S = rng.uniform(-1, 1, size=(10, 10))
        assert np.array_equal(enhance(S.copy()), S * S)

    def test_sign_erasing(self):
        rng = np.random.default_rng(10)
        S = rng.uniform(-1, 1, size=(6, 6))
        assert np.array_equal(enhance(S.copy()), enhance(-S))

    def test_band_inplace(self):
        X = np.random.default_rng(2).normal(size=(20, 3))
        band = ssm_band(unit_rows(X), 3)
        vals = band.band.copy()
        out = enhance(band)
        assert out is band
        assert np.array_equal(band.band, vals * vals)

    def test_matrix_inplace(self):
        S = ssm(np.random.default_rng(2).normal(size=(20, 3)))
        vals = S.copy()
        out = enhance(S)
        assert out is S
        assert np.array_equal(S, vals * vals)


class TestKernel:
    def test_h1_closed_form(self):
        sigma = 0.7
        w = make_kernel(1, sigma)
        assert w.shape == (2,) and w.dtype == np.float64
        g = math.exp(-0.25 / (2 * sigma * sigma))
        expect = np.array([[g * g, -g * g], [-g * g, g * g]])
        assert np.allclose(np.outer(w, w), expect, rtol=1e-15)

    def test_h2_sigma1_matches_formula(self):
        w = make_kernel(2, 1.0)
        W = np.outer(w, w)
        for i in range(-2, 2):
            for j in range(-2, 2):
                g = math.exp(-(((i + 0.5) ** 2) + ((j + 0.5) ** 2)) / 2.0)
                sgn = (1 if i >= 0 else -1) * (1 if j >= 0 else -1)
                assert W[i + 2, j + 2] == pytest.approx(g * sgn, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 40), sigma=st.floats(0.1, 50.0))
    def test_weights_sum_to_zero(self, h, sigma):
        w = make_kernel(h, sigma)
        assert w.shape == (2 * h,)
        assert abs(float(np.outer(w, w).sum())) < 1e-12

    def test_quadrant_sign_pattern(self):
        w = make_kernel(3, 1.5)
        W = np.outer(w, w)
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
        N = novelty(X, make_kernel(10, 5.0))
        assert np.max(np.abs(N)) < 1e-9

    def test_zero_outside_valid_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        h = 7
        N = novelty(X, make_kernel(h, 3.0))
        assert np.all(N[:h] == 0.0)
        assert np.all(N[50 - h:] == 0.0)

    def test_two_regime_peak_at_boundary(self):
        X = np.zeros((100, 2))
        X[:50, 0] = 1.0
        X[50:, 1] = 1.0
        h = 10
        N = novelty(X, make_kernel(h, 5.0))
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
            got = novelty(X, make_kernel(h, sigma))
            assert np.allclose(got, expect, atol=1e-12), (T, d, h)

    def test_non_finite_X_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            X = np.random.default_rng(8).normal(size=(40, 3))
            X[7, 1] = bad
            with pytest.raises(ValueError, match="NaN or inf"):
                novelty(X, make_kernel(5, 2.5))

    def test_peak_memory_is_one_block_and_two_spectra(self):
        # the resegment-sweep shape: the unit rows, one block of band
        # columns and the two reused spectrum buffers, not a spectrum per
        # block
        T, d, h = 8010, 36, 150
        X = np.cumsum(np.random.default_rng(3).normal(size=(T, d)), axis=0)
        w = make_kernel(h, h / 2.0)
        cols = segmentation._BAND_COLS
        L = 1 << (T - 1).bit_length()
        tracemalloc.start()
        try:
            novelty(X, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (T * d * 8 + T * cols * 8 + 2 * cols * (L // 2 + 1) * 16
                 + (1 << 20))
        assert peak <= bound, (peak, bound)

    def test_odd_length_kernel_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        for w in (make_kernel(5, 2.0)[:-1], np.ones(3), np.ones((2, 2)),
                  np.ones(0)):
            with pytest.raises(ValueError, match="even length"):
                novelty(X, w)

    def test_short_signal_all_zero(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        N = novelty(X, make_kernel(4, 2.0))
        assert np.all(N == 0.0)

    @settings(max_examples=120, deadline=None)
    @given(h=st.integers(1, 8), extra=st.integers(-16, 40),
           d=st.integers(1, 5), sigma=st.floats(0.2, 16.0),
           zeros=st.sampled_from([0.0, 0.2, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(h=4, extra=-1, d=3, sigma=2.0, zeros=0.2, seed=1)  # T < 2h
    @example(h=4, extra=0, d=3, sigma=2.0, zeros=0.2, seed=1)  # T = 2h
    @example(h=4, extra=1, d=3, sigma=2.0, zeros=0.2, seed=1)  # T = 2h + 1
    def test_matches_quadruple_loop_on_random_shapes(self, h, extra, d, sigma,
                                                      zeros, seed):
        T = max(1, 2 * h + extra)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(T, d))
        X[rng.random(T) < zeros] = 0.0
        expect = novelty_quadruple_loop(enhance(ssm(X)), h, sigma)
        got = novelty(X, make_kernel(h, sigma))
        assert np.max(np.abs(got - expect)) <= 1e-12
        outside = np.r_[0: min(h, T), max(T - h, h): T]
        assert np.all(got[outside] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 40), extra=st.integers(-20, 80),
           sigma=st.floats(0.2, 30.0), data=st.data())
    @example(h=17, extra=-1, sigma=8.5, data=None)  # T < 2h, 2h = 34
    @example(h=17, extra=0, sigma=8.5, data=None)  # T = 2h
    @example(h=17, extra=1, sigma=8.5, data=None)  # T = 2h + 1
    @example(h=40, extra=80, sigma=20.0, data=None)  # 2h = 80: 32 + 32 + 16
    @example(h=5, extra=30, sigma=2.5, data=None)  # 2h = 10: one short block
    def test_equals_band_oracle_bit_for_bit(self, h, extra, sigma, data):
        # zero rows and scaled copies of one row come from the draw
        T = max(1, 2 * h + extra)
        X = (data.draw(feature_matrices(T=T)) if data is not None else
             np.cumsum(np.random.default_rng(h).normal(size=(T, 5)), axis=0))
        w = make_kernel(h, sigma)
        expect = novelty_from_band(enhance(ssm_band(unit_rows(X), h)), w)
        assert same_bits(novelty(X, w), expect)


class TestPeakPick:
    def test_single_peak(self):
        taus, proms = peak_pick([0.0, 1.0, 0.0], 0.0, 1)
        assert list(taus) == [1]
        assert proms[0] == pytest.approx(1.0)

    def test_suppression_keeps_higher(self):
        taus, _ = peak_pick([0.0, 1.0, 0.0, 0.9, 0.0], 0.0, 4)
        assert list(taus) == [1]

    def test_close_peaks_survive_when_d_min_allows(self):
        taus, _ = peak_pick([0.0, 1.0, 0.0, 0.9, 0.0], 0.0, 2)
        assert list(taus) == [1, 3]

    def test_threshold_filters(self):
        N = [0.0, 0.2, 0.0, 1.0, 0.0]
        assert list(peak_pick(N, 0.5, 1)[0]) == [3]

    def test_plateau_reports_leftmost(self):
        taus, _ = peak_pick([0.0, 1.0, 1.0, 1.0, 0.0], 0.0, 1)
        assert list(taus) == [1]

    def test_endpoint_plateau_not_a_peak(self):
        assert len(peak_pick([1.0, 1.0, 0.0], 0.0, 1)[0]) == 0
        assert len(peak_pick([0.0, 1.0, 1.0], 0.0, 1)[0]) == 0

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
            taus, proms = peak_pick(N, threshold, d_min)
            expect = peak_oracle(N, threshold, d_min)
            assert list(taus) == [t for t, _ in expect], (case, T, d_min)
            assert list(proms) == [p for _, p in expect]

    def test_output_spacing_invariant(self):
        rng = np.random.default_rng(4)
        N = rng.normal(size=400).cumsum()
        taus, _ = peak_pick(N, 0.0, 17)
        assert np.all(np.diff(taus) >= 17)
        assert np.all(np.diff(taus) > 0)

    def test_prominence_satisfies_definition(self):
        # recompute Eq. 4 independently for every returned peak
        rng = np.random.default_rng(31)
        N = rng.normal(size=250).cumsum()
        taus, proms = peak_pick(N, 0.1, 5)
        assert len(taus) == len(proms) > 0
        oracle = dict(peak_oracle(N, 0.0, 1))
        for t, p in zip(taus, proms):
            assert p == oracle[int(t)]

    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(st.integers(-3, 3), max_size=60),
           special=st.lists(st.tuples(st.integers(0, 59), st.sampled_from(
               [math.nan, math.inf, -math.inf, -0.0])), max_size=2),
           threshold=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
           d_min=st.integers(1, 12))
    def test_matches_loops_on_plateaus_and_ties(self, levels, special,
                                                threshold, d_min):
        # few distinct heights: long plateaus, equal peaks, equal flanks
        N = np.array(levels, dtype=np.float64)
        for at, value in special:
            if at < len(N):
                N[at] = value
        taus, proms = peak_pick(N, threshold, d_min)
        expect = peak_oracle(N, threshold, d_min)
        assert taus.dtype == np.int64
        assert proms.dtype == np.float64
        assert taus.tolist() == [t for t, _ in expect]
        assert proms.tolist() == [p for _, p in expect]

    def test_empty_and_flat(self):
        assert len(peak_pick([0.0, 0.0, 0.0, 0.0], 0.0, 1)[0]) == 0
        assert len(peak_pick([1.0], 0.0, 1)[0]) == 0

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

    def test_same_bits_on_any_thread_count(self):
        prog = (
            "import hashlib\n"
            "import numpy as np\n"
            "from microact.segmentation import NoveltyBoundaryDetector\n"
            "rng = np.random.default_rng(11)\n"
            "X = np.cumsum(rng.normal(size=(8010, 36)), axis=0)\n"
            "det = NoveltyBoundaryDetector(half_width=150).fit(X)\n"
            "print(hashlib.sha256(det.novelty_.tobytes()).hexdigest(),\n"
            "      det.boundaries_.tolist())\n"
        )
        src = str(Path(microact.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            out = subprocess.run([sys.executable, "-c", prog], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            runs.append(out.stdout)
        assert runs[0] == runs[1]

    def test_builds_the_band_through_the_module_attribute(self, monkeypatch):
        # perfbench's tracer times ssm_band and reads each result's width
        # by swapping the module attribute for a wrapper, as done here;
        # the detector must call through it, one block of columns a call
        widths = []
        original = segmentation.ssm_band

        def traced(*args, **kwargs):
            res = original(*args, **kwargs)
            widths.append(res.band.shape[1])
            return res

        monkeypatch.setattr(segmentation, "ssm_band", traced)
        T, h = 8010, 150
        X = np.cumsum(np.random.default_rng(3).normal(size=(T, 36)), axis=0)
        NoveltyBoundaryDetector(half_width=h).fit(X)
        step = segmentation._BAND_COLS
        assert widths and max(widths) <= step, widths
        assert sum(widths) == 2 * h
        assert len(widths) == -(-2 * h // step)

    def test_deterministic(self):
        X = np.random.default_rng(6).normal(size=(300, 5))
        a = NoveltyBoundaryDetector(half_width=10).fit(X)
        b = NoveltyBoundaryDetector(half_width=10).fit(X)
        assert np.array_equal(a.novelty_, b.novelty_)
        assert np.array_equal(a.boundaries_, b.boundaries_)
