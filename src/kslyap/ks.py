"""Kuramoto-Sivashinsky right-hand sides:  u_t + u_xxxx + u_xx + u u_x = 0.

Two discretizations are provided for the two boundary conditions:

* periodic      -- Fourier pseudospectral.  The state is the real
                   parametrization of the conjugate-symmetric spectrum:
                   ``[c_0, Re c_1..Re c_n, Im c_1..Im c_n]`` with
                   wavenumbers k_j = 2*pi*j/L.  The quadratic term is
                   evaluated on a physical grid large enough (>= 3n+1 points)
                   that the retained band is alias-free, i.e. the 2/3 rule:
                   the least 5-smooth length >= 3n+1.  The transforms are
                   the forward-normalized pair (``norm="forward"``: the
                   inverse unscaled, the forward one times 1/M), so the
                   state enters the grid as it is.  The RHS works in real
                   arithmetic on float views of the spectra and is
                   bit-identical to the complex formula
                   ``(k^2 - k^4) c - (ik/2) rfft(irfft(c)^2)``.
* odd-periodic  -- second-order central finite differences on the interior
                   grid, with u = u_xx = 0 at both ends enforced by
                   odd-reflection ghost points.  The nonlinearity is the
                   conservative form (u^2/2)_x.  The state is the grid
                   field's orthonormal DST-I coefficients, in which the
                   ghost-point operator ``-(D4 + D2) = -(D2^2 + D2)`` is
                   diagonal.

:func:`make_model` builds the model of a boundary condition on a domain of
length L, resolving wavenumbers up to at least ``k_max`` (default 9); L and
``k_max`` alone fix its resolution (``n_modes`` or ``n_interior``).  Each
model's constructor is the one place that refuses a grid below its floor,
with ``ResolutionTooCoarse``: ``n_modes < 4`` (periodic), ``n_interior < 2``
(odd).
Each model is a ``dynamics.DynamicalSystem``: it declares the diagonal lam
of its linear operator (``stiff_linear_part``), the periodic model's
``k^2 - k^4`` integrated by ETDRK4, the odd model's finite-difference
eigenvalues by IMEX-CNAB2 (``crank_nicolson``).  Its one method
``rhs(t, state)`` returns the explicit part N, so that the KS right-hand
side is f = lam state + N.  The periodic model's N is the quadratic term,
formed directly; the odd model forms f in its own order of operations and
subtracts lam a again, so its N carries that rounding.

Both models call their FFT kernels directly, not through the public
functions, whose dispatch and checks cost more than the transform at these
sizes; tests pin the bits to the public functions.  The periodic model runs
the ``numpy.fft._pocketfft_umath`` gufuncs behind ``np.fft.irfft`` and
``np.fft.rfft``; the odd model runs scipy's pocketfft DST
(``scipy.fft._pocketfft.pypocketfft.dst``, the kernel behind
``scipy.fft.dst(type=1, norm="ortho")``) through :func:`_orthonormal_dst1`.
Only the odd model needs scipy, and only that compiled kernel: it is loaded
from its file on the first DST, without importing ``scipy.fft``
(:func:`_load_pocketfft`), so a periodic run imports numpy alone and an odd
run numpy and one extension module.  Each model keeps its work arrays per
block shape and returns a new array from ``rhs``.

Given a sequence of G lengths instead of one, :func:`make_model` builds one
lockstep system of G members: every array that depends on L (``L`` itself
included) is computed from a ``(G, 1, 1)`` column of the lengths, so it
carries a leading member axis of shape ``(G, 1, ...)``.  Both ``rhs``
bodies index with ``...``, so one body maps a ``(rows, dim)`` block and a
``(G, rows, dim)`` block, each member's rows with the bits of its own
model's ``rhs``.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np

from .dynamics import DynamicalSystem
from .errors import ResolutionTooCoarse

PERIODIC = "periodic"
ODD_PERIODIC = "odd"

DEFAULT_K_MAX = 9.0

# scipy's DST kernel, bound on the first call of _orthonormal_dst1, so that
# a periodic run loads no scipy
_pocketfft_dst = None
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _domain_lengths(L):
    """One domain length as given, or a sequence of G as a ``(G, 1, 1)``
    column, from which every array of the model gets its member axis."""
    return L if np.ndim(L) == 0 else np.asarray(L, dtype=float)[:, None, None]


def _one_resolution(name, needed):
    """The resolution ``needed`` holds for every domain, as an int; domains
    that need different ones cannot share one lockstep system.  (Sorted
    from a set: ``np.unique`` would import ``numpy.ma`` on a cold start.)"""
    values = sorted(set(np.ravel(needed).tolist()))
    if len(values) > 1:
        raise ValueError(f"one lockstep system needs one {name}; "
                         f"its lengths need {', '.join(f'{v:g}' for v in values)}")
    return int(values[0])


def _next_fast_len(target):
    """The least 5-smooth integer >= ``target`` (a positive integer): the
    FFT-friendly length that ``scipy.fftpack.next_fast_len(target)``
    returns, at which numpy's real FFT pair runs faster than at the least
    11-smooth one.

    Each product 3^b 5^c below the best length so far is rounded up by the
    least power of two that brings it to ``target``: O(log(target)^2)
    products, where a walk over the integers from ``target`` takes seconds
    at 10^9."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two >= ceil(target / p35)
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _load_pocketfft():
    """scipy's compiled pocketfft module, loaded from its file under
    ``scipy/fft/_pocketfft/`` without importing ``scipy`` or ``scipy.fft``.

    The package ``__init__`` files import ``scipy._lib.array_api_compat``
    and with it every numpy submodule, 150+ ms; the kernel file alone loads
    in under 1 ms.  Loaded under its full name, it is the module that an
    ``import scipy.fft`` before or after finds.  Raises ``ImportError`` if
    scipy or the kernel file is missing.
    """
    scipy_spec = importlib.util.find_spec("scipy")  # finds, does not import
    where = [os.path.join(path, "fft", "_pocketfft")
             for path in (scipy_spec and scipy_spec.submodule_search_locations) or ()]
    spec = importlib.machinery.PathFinder.find_spec(_POCKETFFT, where)
    if spec is None:
        raise ImportError(
            "the odd-periodic model needs scipy>=1.13 for its DST-I kernel; "
            f"no {_POCKETFFT} extension in "
            f"{', '.join(where) if where else 'sys.path (no scipy package)'}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _orthonormal_dst1(x, out=None):
    """The orthonormal DST-I of ``x`` along its last axis, its own inverse:
    ``scipy.fft.dst(x, type=1, norm="ortho")`` with the same bits, into
    ``out`` (a new array if None; may be ``x`` itself)."""
    global _pocketfft_dst
    if _pocketfft_dst is None:
        _pocketfft_dst = _load_pocketfft().dst
    # the kernel, not scipy.fft.dst: its dispatch costs more than the DST at
    # these sizes, and a test pins the bits to scipy.fft.dst
    return _pocketfft_dst(x, 1, axes=(-1,), inorm=1, out=out, nthreads=1)


class PeriodicSpectralModel(DynamicalSystem):
    """The periodic KS system, pseudospectral; integrated by ETDRK4.  ``L``
    is one length or a sequence (see :func:`make_model`)."""

    def __init__(self, L, k_max=DEFAULT_K_MAX):
        L = _domain_lengths(L)
        n_modes = _one_resolution("n_modes", np.ceil(k_max * L / (2 * np.pi)))
        if n_modes < 4:
            raise ResolutionTooCoarse(
                f"n_modes={n_modes} < 4 for L={np.max(L):g}, k_max={k_max:g}")
        self.L = L
        self.n_modes = n_modes
        # physical grid for the quadratic term; >= 3n+1 makes the retained
        # band alias-free, padded up to an FFT-friendly length
        self.grid_size = _next_fast_len(3 * n_modes + 1)
        self.k = 2 * np.pi * np.arange(n_modes + 1) / L
        growth = self.k**2 - self.k**4
        super().__init__(2 * n_modes + 1, stiff_linear_part=np.concatenate(
            [growth, growth[..., 1:]], axis=-1))
        # i.i.d. coordinates of this spread make u(x) unit-variance at every
        # grid point: var u = (1 + 4n) var c (``dynamics.initial_state``)
        self.initial_std = 1 / np.sqrt(1 + 4 * n_modes)
        # the quadratic term's factors on [Im sq_0..n, Re sq_1..n], +k/2 then
        # -k/2, so that one product per half forms it: -(ik/2) sq
        half_k = 0.5 * self.k
        self._half_k, self._minus_half_k = half_k, -half_k[..., 1:]
        # 1/M: the factor np.fft.rfft(norm="forward") passes its kernel
        self._inv_grid_size = np.reciprocal(self.grid_size, dtype=float)
        from numpy.fft import _pocketfft_umath as kernels
        self._irfft = kernels.irfft
        # np.fft.rfft picks its kernel by the parity of the length: M is
        # 5-smooth, not always even
        self._rfft = kernels.rfft_n_even if self.grid_size % 2 == 0 else kernels.rfft_n_odd
        self._work = {}  # block shape -> work arrays of that shape

    def _work_arrays(self, shape):
        """The work arrays of a block of ``shape``: the padded spectrum with
        views of its Re c_0..n and Im c_1..n, the physical grid, the squared
        field's spectrum with views of its Im sq_0..n and Re sq_1..n, and the
        result's shape.  The spectrum's padding and Im c_0 stay zero, as only
        its retained band is written."""
        work = self._work.get(shape)
        if work is None:
            n, lead, half = self.n_modes, shape[:-1], self.grid_size // 2 + 1
            spectrum = np.zeros(lead + (half,), dtype=complex)
            sq = np.empty(lead + (half,), dtype=complex)
            parts = spectrum.view(float).reshape(lead + (half, 2))
            sq_parts = sq.view(float).reshape(lead + (half, 2))
            work = self._work[shape] = (
                spectrum, parts[..., : n + 1, 0], parts[..., 1 : n + 1, 1],
                np.empty(lead + (self.grid_size,)),
                sq, sq_parts[..., : n + 1, 1], sq_parts[..., 1 : n + 1, 0],
                np.broadcast_shapes(self.stiff_linear_part.shape, shape))
        return work

    def rhs(self, t, state):
        """The quadratic term N(c) = -(ik/2) rfft(irfft(c)^2) on the real
        state, the pair forward-normalized; the KS right-hand side is
        f(c) = (k^2 - k^4) c + N(c).

        Evaluated in real arithmetic on float views of the complex spectra,
        with the bits of the complex formula
        ``-0.5j * k * rfft(irfft(c, M, norm="forward")**2, norm="forward")``
        for N (-(ik/2)(a + ib) = (k/2) b - i (k/2) a, one product per part).
        The result is a new array; the work arrays are the model's, kept per
        block shape.
        """
        n = self.n_modes
        spectrum, re_c, im_c, u, sq, im_sq, re_sq, shape = self._work_arrays(state.shape)
        np.copyto(re_c, state[..., : n + 1])
        np.copyto(im_c, state[..., n + 1 :])
        # the kernels, not np.fft.irfft/rfft: their dispatch costs more than
        # the transforms at these sizes, and a test pins the bits to np.fft
        self._irfft(spectrum, 1.0, out=u)
        u *= u
        self._rfft(u, self._inv_grid_size, out=sq)
        out = np.empty(shape)
        np.multiply(im_sq, self._half_k, out=out[..., : n + 1])
        np.multiply(re_sq, self._minus_half_k, out=out[..., n + 1 :])
        return out

    def to_physical(self, state):
        """(x, u(x)) on the ``grid_size`` uniform points of the physical grid."""
        n, M = self.n_modes, self.grid_size
        state = np.atleast_1d(np.asarray(state, dtype=float))
        coeffs = state[..., : n + 1].astype(complex)
        coeffs[..., 1:] += 1j * state[..., n + 1 :]
        full = np.zeros(M // 2 + 1, dtype=complex)
        full[: n + 1] = coeffs
        x = self.L * np.arange(M) / M
        return x, np.fft.irfft(full, M, norm="forward")

    def field_mean(self, state):
        return float(np.asarray(state)[..., 0])


class OddPeriodicFDModel(DynamicalSystem):
    """The odd-periodic KS system, finite differences in sine coordinates;
    integrated by IMEX-CNAB2 (``crank_nicolson``).

    Interior grid x_i = i*h, i = 1..n, h = L/(n+1); boundary values and odd
    reflections handled through ghost points.  The state ``a`` holds the
    orthonormal DST-I coefficients of the grid field, ``u = dst(a)``, where
    ``dst`` is ``scipy.fft.dst(type=1, norm="ortho")``, its own inverse.  The
    model runs that transform's pocketfft kernel (:func:`_orthonormal_dst1`),
    loaded on the first DST without importing ``scipy.fft``;
    ``scipy.fft.dst`` is the reference its tests hold the bits to.
    Coordinate j is the sine mode sin(j*pi*x/L) on the grid, an eigenvector
    of the ghost-point operator ``-(D4 + D2)`` with the eigenvalue
    ``-(mu_j**2 + mu_j)``, where ``mu_j = -(4/h**2) sin(j*pi/(2(n+1)))**2`` is
    the eigenvalue of the second difference D2 (Strang, SIAM Review 1999).
    So the first m coordinate vectors, from which every Lyapunov frame
    starts, are the m lowest sine modes.  The random start
    (``dynamics.initial_state``) draws the coordinates with unit variance,
    so the grid field has unit variance at every point, the DST-I being
    orthonormal.  ``L`` is one length or a sequence (see
    :func:`make_model`).
    """

    crank_nicolson = True

    def __init__(self, L, k_max=DEFAULT_K_MAX):
        L = _domain_lengths(L)
        # the fewest interior points whose spacing h = L/(n+1) is <= pi/k_max
        # (a k_max <= 0 leaves n <= -1, refused below)
        n = np.ceil(k_max * L / np.pi) - 1
        while k_max > 0 and np.any(coarse := L / (n + 1) > np.pi / k_max):
            n = n + coarse
        self.n = n = _one_resolution("n_interior", n)
        if n < 2:  # the flux stencil needs both neighbours of an end point
            raise ResolutionTooCoarse(
                f"n_interior={n} < 2 for L={np.max(L):g}, k_max={k_max:g}")
        self.L = L
        self.h = L / (n + 1)
        self.x = self.h * np.arange(1, n + 1)
        j = np.arange(1, n + 1)
        mu = -(4 / self.h**2) * np.sin(j * np.pi / (2 * (n + 1)))**2
        super().__init__(n, stiff_linear_part=-(mu * mu + mu))
        self._four_h = 4 * self.h
        self._work = {}  # block shape -> work arrays of that shape

    def _work_arrays(self, shape):
        """The work arrays of a block of ``shape``: ``sq``, ``flux`` and lam a
        in the result's shape."""
        work = self._work.get(shape)
        if work is None:
            work = self._work[shape] = (
                np.empty(shape), np.empty(shape),
                np.empty(np.broadcast_shapes(self.stiff_linear_part.shape, shape)))
        return work

    def rhs(self, t, state):
        """N(a) = (lam a - dst((u^2/2)_x)) - lam a with u = dst(a): the KS
        right-hand side f(a) = lam a - dst((u^2/2)_x), the sine coefficients
        of the ghost-point stencils' -u_xxxx - u_xx - (u^2/2)_x, less lam a,
        the product lam a formed once.

        In this order of operations: ``sq = dst(a)**2`` in place; the flux
        ``(sq[i+1] - sq[i-1]) / (4 h)``, where the boundary zeros stand in
        for the neighbours of the end points; then ``lam * a - dst(flux)``,
        less ``lam * a``.  The result is a new array; the work arrays are
        the model's, kept per block shape.
        """
        n = self.n
        sq, flux, lam_a = self._work_arrays(state.shape)
        _orthonormal_dst1(state, out=sq)
        sq *= sq
        np.subtract(sq[..., 2:], sq[..., : n - 2], out=flux[..., 1 : n - 1])
        flux[..., 0] = sq[..., 1]
        np.negative(sq[..., n - 2], out=flux[..., n - 1])
        flux /= self._four_h
        np.multiply(self.stiff_linear_part, state, out=lam_a)
        out = lam_a - _orthonormal_dst1(flux, out=flux)
        out -= lam_a
        return out

    def to_physical(self, state):
        """Full field including the boundary zeros; returns (x, u)."""
        u = _orthonormal_dst1(np.asarray(state, dtype=float))
        x = self.h * np.arange(self.n + 2)
        return x, np.concatenate([[0.0], u, [0.0]])


def check_bc(bc):
    """Refuse a boundary condition that is neither periodic nor odd."""
    if bc not in (PERIODIC, ODD_PERIODIC):
        raise ValueError(f"bc must be {PERIODIC!r} or {ODD_PERIODIC!r}")


def make_model(bc, L, k_max=DEFAULT_K_MAX):
    """The KS system of boundary condition ``bc`` on a domain of length L,
    resolving wavenumbers up to ``k_max``; the two fix its resolution, and
    the model refuses one below its floor with ``ResolutionTooCoarse``.

    Given a sequence of G lengths, the lockstep system of their G models:
    its ``rhs`` maps a ``(G, rows, dim)`` block with member g's domain in
    row block g, each row with the bits of its own model's ``rhs``.  The
    lengths must need one resolution (one ``dim``); others raise
    ``ValueError``.
    """
    lengths = np.ravel(L)
    if not np.all(np.isfinite(lengths) & (lengths > 0)):
        raise ValueError("domain length L must be positive and finite")
    check_bc(bc)
    if not np.isfinite(k_max):
        raise ValueError(f"k_max={k_max:g} must be finite")
    model = PeriodicSpectralModel if bc == PERIODIC else OddPeriodicFDModel
    return model(L, k_max)
