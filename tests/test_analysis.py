import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslyap import (EmptyWindow, InsufficientData, SingularNormalEquations,
                    WindowedStat, fit_dky_linear, fit_power_law, kaplan_yorke,
                    scan_exponent_p, windowed_median_mad)
from kslyap.analysis import _mean_abs_deviation, default_p_grid


def model_exponent(i, L):
    """A synthetic periodic spectrum: lambda_i(L) = 0.093 - 0.94 (i - 0.39) / L."""
    return 0.093 - 0.94 * (i - 0.39) / L


class Rec:
    def __init__(self, L, exponents=(), dky=0.0):
        self.L = L
        self.exponents = np.asarray(exponents, dtype=float)
        self.dky = dky


# --- Kaplan-Yorke ---

def test_ky_simple():
    res = kaplan_yorke([0.5, -1.0])
    assert res.j == 1
    assert res.dimension == pytest.approx(1.5)


def test_ky_negative_leading_exponent():
    # odd-periodic L=17.5 spectrum: no positive exponents, dimension 0
    res = kaplan_yorke([-0.001, -0.166, -0.272, -0.299, -0.300])
    assert res.j == 0 and res.dimension == 0.0


TABLE_L22 = [0.043, 0.003, 0.002, -0.004, -0.008, -0.185, -0.253, -0.296,
             -0.309, -1.965, -1.967, -5.599]


def test_ky_table_l22():
    res = kaplan_yorke(TABLE_L22)
    assert res.dimension == pytest.approx(5.198, abs=0.05)


def test_ky_unsaturated():
    res = kaplan_yorke([0.5, 0.4])
    assert res.unsaturated and res.j == 2 and res.dimension == 2.0


def test_ky_rejects_unsorted():
    with pytest.raises(ValueError):
        kaplan_yorke([0.1, 0.2])


@st.composite
def descending_spectra(draw):
    vals = draw(st.lists(st.floats(-5, 1, allow_nan=False), min_size=2, max_size=12))
    return np.sort(np.asarray(vals))[::-1]


@given(descending_spectra())
@settings(max_examples=100, deadline=None)
def test_ky_append_below_j_is_inert(lam):
    res = kaplan_yorke(lam)
    if res.unsaturated or res.j + 1 >= lam.size:
        return
    extended = np.append(lam, lam[-1] - 1.0)
    res2 = kaplan_yorke(extended)
    assert res2.j == res.j
    assert res2.dimension == pytest.approx(res.dimension, abs=1e-12)


@given(descending_spectra())
@settings(max_examples=100, deadline=None)
def test_ky_bracket(lam):
    res = kaplan_yorke(lam)
    if res.unsaturated or res.j == 0:
        return
    assert res.j <= res.dimension < res.j + 1


def test_ky_stays_below_j_plus_one_when_the_sum_rounds_up():
    # 2 + 2/2.0000000000000004 rounds to 3
    res = kaplan_yorke([1.0, 1.0, -2.0000000000000004])
    assert res.j == 2 and res.dimension == np.nextafter(3.0, 2.0)


@pytest.mark.parametrize("k", range(-2, 3))
@pytest.mark.parametrize("lead", [(1.0, 1.0), (0.043, 0.003), (0.7, 0.1), (3.0, 1.0)])
def test_ky_bracket_at_the_rounding_boundary(lead, k):
    # lambda_3 within k ulps of -(lambda_1 + lambda_2): the third partial sum
    # is zero or a few ulps either side of it
    res = kaplan_yorke([*lead, -sum(lead) * (1 + k * 2.0**-52)])
    assert res.j <= res.dimension < res.j + 1


# --- windowed statistics ---

def test_window_single_record():
    stat = windowed_median_mad([Rec(50.0, [0.07])], 50.0, 1)
    assert stat.median == 0.07 and stat.mad == 0.0 and stat.count == 1


def test_window_hand_example():
    recs = [Rec(10.0, [1.0]), Rec(10.1, [2.0]), Rec(9.9, [3.0])]
    stat = windowed_median_mad(recs, 10.0, 1)
    assert stat.median == 2.0
    assert stat.mad == pytest.approx(2.0 / 3.0)


def test_window_synthetic_model_value():
    Ls = np.round(np.arange(74.0, 76.0001, 0.1), 10)
    recs = [Rec(L, [model_exponent(1, L)]) for L in Ls]
    stat = windowed_median_mad(recs, 75.0, 1)
    assert stat.count == 21
    assert stat.median == pytest.approx(0.093 - 0.94 * 0.61 / 75.0, abs=1e-12)


def test_window_empty_raises():
    with pytest.raises(EmptyWindow):
        windowed_median_mad([Rec(10.0, [1.0])], 50.0, 1)


def test_window_leaves_out_a_failed_rows_nan():
    recs = [Rec(10.0, [1.0]), Rec(10.1, [2.0]), Rec(9.9, [3.0])]
    with_failed = recs + [Rec(10.05, [np.nan])]
    assert windowed_median_mad(with_failed, 10.0, 1) == windowed_median_mad(recs, 10.0, 1)


def test_window_of_failed_rows_only_raises():
    with pytest.raises(EmptyWindow):
        windowed_median_mad([Rec(10.0, [np.nan]), Rec(10.1, [np.nan])], 10.0, 1)


def test_window_permutation_and_duplication_invariance():
    rng = np.random.default_rng(0)
    recs = [Rec(20.0 + 0.1 * i, [v]) for i, v in enumerate(rng.standard_normal(9))]
    base = windowed_median_mad(recs, 20.4, 1)
    shuffled = windowed_median_mad(recs[::-1], 20.4, 1)
    doubled = windowed_median_mad(recs + recs, 20.4, 1)
    assert shuffled.median == base.median and shuffled.mad == base.mad
    assert doubled.median == pytest.approx(base.median)
    assert doubled.mad == pytest.approx(base.mad)


# --- power-law fitting ---

def synth_stats(a, b, c, p, Ls=(55, 65, 75, 85, 95), imax=8):
    stats = []
    for L in Ls:
        for i in range(1, imax + 1):
            med = a + (b + c * i) / L**p
            stats.append(WindowedStat(L_center=float(L), index=i, median=med,
                                      mad=0.0, count=21))
    return stats


def test_fit_recovers_exact_model():
    stats = synth_stats(a=0.093, b=0.367, c=-0.94, p=1.0, imax=5)
    fit = fit_power_law(stats, 1.0)
    assert fit.a == pytest.approx(0.093, abs=1e-10)
    assert fit.b == pytest.approx(0.367, abs=1e-9)
    assert fit.c == pytest.approx(-0.94, abs=1e-9)
    assert fit.rms_residual < 1e-10


def test_fit_constant_data():
    stats = synth_stats(a=0.05, b=0.0, c=0.0, p=1.0)
    for p in (0.5, 1.0, 1.7):
        fit = fit_power_law(stats, p)
        assert fit.a == pytest.approx(0.05, abs=1e-10)
        assert abs(fit.b) < 1e-9 and abs(fit.c) < 1e-9


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
def test_fit_zero_residual_across_grid(p):
    # a large enough that every median stays positive for all p on the grid
    stats = synth_stats(a=1.0, b=0.3, c=-0.8, p=p, imax=5)
    assert fit_power_law(stats, p).rms_residual <= 1e-10


def test_fit_requires_enough_support():
    stats = synth_stats(a=0.1, b=0.2, c=-0.5, p=1.0, Ls=(50, 60), imax=5)
    with pytest.raises(InsufficientData):
        fit_power_law(stats, 1.0)


def test_fit_singular_design():
    # i proportional to L makes the third basis column collinear at p=1
    stats = [WindowedStat(L_center=L, index=i, median=0.1, mad=0.0, count=1)
             for L, i in ((10.0, 1), (20.0, 2), (40.0, 4))]
    with pytest.raises(SingularNormalEquations):
        fit_power_law(stats, 1.0)


@pytest.mark.parametrize("truth", [0.5, 1.0, 1.5])
def test_p_scan_recovers_planted_exponent(truth):
    stats = synth_stats(a=1.0, b=0.367, c=-0.94, p=truth, imax=6)
    grid, rms, mad, best = scan_exponent_p(stats)
    assert abs(best - truth) <= 0.02 + 1e-12
    assert rms.shape == grid.shape == mad.shape


def test_default_p_grid_matches_figure_range():
    grid = default_p_grid()
    assert grid[0] == pytest.approx(0.02)
    assert grid[-1] == pytest.approx(2.0)
    assert np.allclose(np.diff(grid), 0.02)
    assert grid.tobytes() == np.round(np.arange(1, 101) * 0.02, 10).tobytes()


# --- D_KY vs L ---

def test_dky_fit_exact_line():
    recs = [Rec(L, dky=0.226 * L - 0.160) for L in range(80, 101)]
    slope, intercept, rms = fit_dky_linear(recs)
    assert slope == pytest.approx(0.226, abs=1e-12)
    assert intercept == pytest.approx(-0.160, abs=1e-10)
    assert rms < 1e-12


def test_dky_fit_two_points():
    recs = [Rec(80.0, dky=17.9), Rec(100.0, dky=22.4)]
    slope, _, _ = fit_dky_linear(recs)
    assert slope == pytest.approx(0.225)


def test_dky_fit_insufficient():
    with pytest.raises(InsufficientData):
        fit_dky_linear([Rec(90.0, dky=20.0)], L_min=80.0)


# --- synthetic spectra ---

@pytest.mark.parametrize("L", [60.0, 80.0, 100.0])
def test_j_zero_consistent_with_ky_index(L):
    # the synthetic spectrum's partial sums cross zero near i = 0.2 L - 0.2
    lam = np.array([model_exponent(i, L) for i in range(1, 61)])
    res = kaplan_yorke(lam)
    assert abs(res.j - (0.2 * L - 0.2)) <= 1.0


def test_mean_abs_deviation():
    assert _mean_abs_deviation([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)
