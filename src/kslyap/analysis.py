"""Kaplan-Yorke dimension and scaling fits over domain size.

Throughout, "MAD" is the *mean* absolute deviation about the median, a robust
dispersion measure (not the median absolute deviation).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, InsufficientData, SingularNormalEquations


@dataclass
class KaplanYorkeResult:
    j: int                     # largest index with nonnegative partial sum
    dimension: float
    unsaturated: bool = False  # partial sums never went negative


@dataclass
class WindowedStat:
    L_center: float
    index: int
    median: float
    mad: float
    count: int


@dataclass
class PowerLawFit:
    a: float
    b: float
    c: float
    p: float
    rms_residual: float
    mad_residual: float
    n_points: int


def kaplan_yorke(exponents):
    """Attractor dimension  j + sum_{i<=j} lambda_i / |lambda_{j+1}|.

    ``exponents`` must be sorted non-increasing.  j is the largest index with
    a nonnegative partial sum; j=0 (dimension 0) when the leading exponent is
    already negative.  When the partial sums never go negative within the
    supplied exponents the result is flagged unsaturated and the dimension is
    reported as j.
    """
    lam = np.asarray(exponents, dtype=float)
    if lam.size == 0:
        raise ValueError("need at least one exponent")
    if np.any(np.diff(lam) > 0):
        raise ValueError("exponents must be sorted non-increasing")
    partial = np.cumsum(lam)
    nonneg = np.nonzero(partial >= 0)[0]
    if nonneg.size == 0:
        return KaplanYorkeResult(j=0, dimension=0.0)
    j = int(nonneg[-1]) + 1
    if j == lam.size:
        return KaplanYorkeResult(j=j, dimension=float(j), unsaturated=True)
    # partial[j] < 0 <= partial[j-1] means lam[j] < 0 and partial[j-1] < -lam[j]
    # exactly (a rounded sum keeps its sign), so the fraction is below 1, but
    # j + fraction can round to j + 1
    dimension = j + partial[j - 1] / abs(lam[j])
    return KaplanYorkeResult(j=j, dimension=min(dimension, np.nextafter(j + 1, j)))


def _mean_abs_deviation(values):
    """Mean absolute deviation about the median."""
    values = np.asarray(values, dtype=float)
    return float(np.mean(np.abs(values - np.median(values))))


def windowed_median_mad(records, L_center, i, halfwidth=1.0):
    """Median and MAD of the i-th exponent over records with |L-L_center|<=halfwidth.

    ``records`` is any iterable with ``.L`` and ``.exponents`` attributes
    (index i is 1-based, matching the spectrum ordering).  Only finite values
    enter the statistics and the count, so the NaN exponents of a failed
    sweep row are left out.
    """
    values = np.asarray([r.exponents[i - 1] for r in records
                         if abs(r.L - L_center) <= halfwidth and len(r.exponents) >= i],
                        dtype=float)
    values = values[np.isfinite(values)]
    if not values.size:
        raise EmptyWindow(f"no finite values within [{L_center - halfwidth:g}, "
                          f"{L_center + halfwidth:g}] with index {i}")
    return WindowedStat(L_center=float(L_center), index=int(i),
                        median=float(np.median(values)),
                        mad=_mean_abs_deviation(values), count=values.size)


def _lstsq_qr(A, y):
    """Least squares via QR of the design matrix (better conditioned than
    normal equations)."""
    Q, R = np.linalg.qr(A)
    d = np.abs(np.diagonal(R))
    if np.min(d) <= 1e-12 * max(1.0, np.max(d)):
        raise SingularNormalEquations("design matrix is rank deficient")
    return np.linalg.solve(R, Q.T @ y)


def fit_power_law(stats, p):
    """Fit  lambda_i(L) ~= a + (b + c*i)/L^p  to windowed medians.

    Only entries with positive median are used (the model targets the
    positive part of the spectrum).  Requires at least 3 distinct L and
    3 distinct i among the retained entries.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    kept = [s for s in stats if s.median > 0]
    Ls = {s.L_center for s in kept}
    idxs = {s.index for s in kept}
    if len(Ls) < 3 or len(idxs) < 3:
        raise InsufficientData("need >= 3 distinct L and >= 3 distinct i with positive medians")
    L = np.array([s.L_center for s in kept])
    i = np.array([s.index for s in kept], dtype=float)
    y = np.array([s.median for s in kept])
    A = np.column_stack([np.ones_like(L), L**-p, i * L**-p])
    a, b, c = _lstsq_qr(A, y)
    resid = y - A @ np.array([a, b, c])
    return PowerLawFit(a=float(a), b=float(b), c=float(c), p=float(p),
                       rms_residual=float(np.sqrt(np.mean(resid**2))),
                       mad_residual=_mean_abs_deviation(resid),
                       n_points=len(kept))


def _grid(start, step, end):
    """The points ``start + i*step`` up to ``end`` (within a millionth of a
    step), rounded to 10 decimals: the sweep's L grid, the p grid and the
    ``simulate`` output times."""
    n = int(math.floor((end - start) / step + 0.5)) + 1
    values = start + step * np.arange(n)
    values = values[values <= end + 1e-6 * step]
    return np.round(values, 10)


def default_p_grid():
    return _grid(0.02, 0.02, 2.0)


def scan_exponent_p(stats, p_grid=None):
    """Residuals of the power-law fit over a grid of exponents p.

    Returns (p_grid, rms array, mad array, argmin-of-rms p).
    """
    if p_grid is None:
        p_grid = default_p_grid()
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(np.diff(p_grid) <= 0):
        raise ValueError("p_grid must be strictly ascending")
    rms = np.empty_like(p_grid)
    mad = np.empty_like(p_grid)
    for idx, p in enumerate(p_grid):
        fit = fit_power_law(stats, p)
        rms[idx] = fit.rms_residual
        mad[idx] = fit.mad_residual
    best = float(p_grid[np.argmin(rms)])
    return p_grid, rms, mad, best


def fit_dky_linear(records, L_min=80.0):
    """Ordinary least squares of D_KY against L over records with L >= L_min.

    Returns (slope, intercept, rms residual).
    """
    pts = [(r.L, r.dky) for r in records if r.L >= L_min]
    if len(pts) < 2:
        raise InsufficientData(f"need >= 2 records with L >= {L_min:g}")
    L = np.array([p[0] for p in pts])
    d = np.array([p[1] for p in pts])
    slope, intercept = _lstsq_qr(np.column_stack([L, np.ones_like(L)]), d)
    resid = d - (slope * L + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))

