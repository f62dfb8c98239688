"""Kuramoto-Sivashinsky right-hand sides:  u_t + u_xxxx + u_xx + u u_x = 0.

Two discretizations are provided for the two boundary conditions:

* periodic      -- Fourier pseudospectral.  The state is the real
                   parametrization of the conjugate-symmetric spectrum:
                   ``[c_0, Re c_1..Re c_n, Im c_1..Im c_n]`` with
                   wavenumbers k_j = 2*pi*j/L.  The quadratic term is
                   evaluated on a physical grid large enough (>= 3n+1 points)
                   that the retained band is alias-free, i.e. the 2/3 rule.
                   The RHS works in real arithmetic on float views of the
                   spectra and is bit-identical to the complex formula
                   ``(k^2 - k^4) c - (ik/2) FFT[u^2]``.
* odd-periodic  -- second-order central finite differences on the interior
                   grid, with u = u_xx = 0 at both ends enforced by
                   odd-reflection ghost points.  The nonlinearity is the
                   conservative form (u^2/2)_x.  The state is the grid
                   field's orthonormal DST-I coefficients, in which the
                   ghost-point operator ``-(D4 + D2) = -(D2^2 + D2)`` is
                   diagonal.

:func:`make_model` builds the model of a boundary condition on a domain of
length L, resolving wavenumbers up to at least ``k_max`` (default 9); L and
``k_max`` alone fix its resolution (``n_modes`` or ``n_interior``).
Each model is a ``dynamics.DynamicalSystem``: it declares the diagonal of
its stiff linear operator, which picks its integrator
(``dynamics.make_stepper``): the periodic model's ``k^2 - k^4`` runs with
ETDRK4, the odd model's finite-difference eigenvalues with IMEX-CNAB2
(``crank_nicolson``).

Both models call their FFT kernels directly, not through the public
functions, whose dispatch and checks cost more than the transform at these
sizes; tests pin the bits to the public functions.  The periodic model runs
the ``numpy.fft._pocketfft_umath`` gufuncs behind ``np.fft.irfft`` and
``np.fft.rfft``; the odd model runs scipy's pocketfft DST
(``scipy.fft._pocketfft.pypocketfft.dst``, the kernel behind
``scipy.fft.dst(type=1, norm="ortho")``) through :func:`_orthonormal_dst1`.
Only the odd model needs scipy: its kernel is imported when the first odd
model is built, so a periodic run imports numpy alone.  Each model keeps
its work arrays per block shape and returns a new array from ``rhs``.

Given a sequence of G lengths instead of one, :func:`make_model` builds one
lockstep system of G members: every array that depends on L (``L`` itself
included) is computed from a ``(G, 1, 1)`` column of the lengths, so it
carries a leading member axis of shape ``(G, 1, ...)``.  Both ``rhs``
bodies index with ``...``, so one body maps a ``(rows, dim)`` block and a
``(G, rows, dim)`` block, each member's rows with the bits of its own
model's ``rhs``.
"""

import numpy as np

from .dynamics import DynamicalSystem
from .errors import ResolutionTooCoarse

PERIODIC = "periodic"
ODD_PERIODIC = "odd"

DEFAULT_K_MAX = 9.0

# scipy's DST kernel, bound when the first odd model is built (every model
# binds the same one), so that a periodic run loads no scipy
_pocketfft_dst = None


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
    """The least 11-smooth integer >= ``target`` (a positive integer): the
    FFT-friendly length that ``scipy.fft.next_fast_len(target)`` returns."""
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _orthonormal_dst1(x, out=None):
    """The orthonormal DST-I of ``x`` along its last axis, its own inverse:
    ``scipy.fft.dst(x, type=1, norm="ortho")`` with the same bits, into
    ``out`` (a new array if None; may be ``x`` itself)."""
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
        # the quadratic term's factors on [Im sq_0..n, Re sq_1..n], +k/2 then
        # -k/2, so that one product forms it: (-k/2) x = -(k/2 x) exactly,
        # and x + (-y) rounds as x - y
        half_k = 0.5 * self.k
        self._signed_half_k = np.concatenate([half_k, -half_k[..., 1:]], axis=-1)
        # 1/M: the factor np.fft.irfft passes its kernel, and the one numpy's
        # complex ``/ M`` multiplies by
        self._inv_grid_size = np.reciprocal(self.grid_size, dtype=float)
        from numpy.fft import _pocketfft_umath as kernels
        self._irfft = kernels.irfft
        # np.fft.rfft picks its kernel by the parity of the length: M is
        # 11-smooth, not always even
        self._rfft = kernels.rfft_n_even if self.grid_size % 2 == 0 else kernels.rfft_n_odd
        self._work = {}  # block shape -> work arrays of that shape

    def rhs(self, t, state):
        """(k^2 - k^4) c_k - (ik/2) FFT[u^2]_k on the real state.

        Evaluated in real arithmetic on float views of the complex spectra,
        with the operations of the complex formula
        ``(k**2 - k**4) * c - 0.5j * k * (rfft(irfft(c * M)**2) / M)``
        in the same order, so the result has the same bits (numpy's complex
        ``/ M`` multiplies by ``1 / M``).
        """
        return self._evaluate(state, nonlinear=False)

    def _nonlinear(self, t, state):
        return self._evaluate(state, nonlinear=True)

    def _work_arrays(self, shape):
        """The work arrays of a block of ``shape``: the padded spectrum with
        views of its Re c_0..n and Im c_1..n, the physical grid, the squared
        field's spectrum with views of its Im sq_0..n and Re sq_1..n, and
        lam c in the result's shape.  The spectrum's padding and Im c_0 stay
        zero, as only its retained band is written."""
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
                np.empty(np.broadcast_shapes(self.stiff_linear_part.shape, shape)))
        return work

    def _evaluate(self, state, nonlinear):
        """f(c) = lam c + D(c), or with ``nonlinear`` N(c) = (lam c + D(c)) -
        lam c, the product lam c formed once; D is the quadratic term, and
        D + lam c has the bits of lam c + D.  The result is a new array; the
        work arrays are the model's, kept per block shape."""
        n, M, inv_M = self.n_modes, self.grid_size, self._inv_grid_size
        spectrum, re_c, im_c, u, sq, im_sq, re_sq, lam_s = self._work_arrays(state.shape)
        # the padded spectrum, scaled by M for the rfft normalization
        np.multiply(state[..., : n + 1], M, out=re_c)
        np.multiply(state[..., n + 1 :], M, out=im_c)
        # the kernels, not np.fft.irfft/rfft: their dispatch costs more than
        # the transforms at these sizes, and a test pins the bits to np.fft
        self._irfft(spectrum, inv_M, out=u)
        u *= u
        self._rfft(u, 1.0, out=sq)
        out = np.empty(lam_s.shape)
        np.multiply(im_sq, inv_M, out=out[..., : n + 1])
        np.multiply(re_sq, inv_M, out=out[..., n + 1 :])
        out *= self._signed_half_k
        out += np.multiply(self.stiff_linear_part, state, out=lam_s)
        if nonlinear:
            out -= lam_s
        return out

    def to_physical(self, state):
        """(x, u(x)) on the ``grid_size`` uniform points of the physical grid."""
        n, M = self.n_modes, self.grid_size
        state = np.atleast_1d(np.asarray(state, dtype=float))
        coeffs = state[..., : n + 1].astype(complex)
        coeffs[..., 1:] += 1j * state[..., n + 1 :]
        full = np.zeros(M // 2 + 1, dtype=complex)
        full[: n + 1] = coeffs * M
        x = self.L * np.arange(M) / M
        return x, np.fft.irfft(full, M)

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
    imported when the first odd model is built; ``scipy.fft.dst`` is the
    reference its tests hold the bits to.
    Coordinate j is the sine mode sin(j*pi*x/L) on the grid, an eigenvector
    of the ghost-point operator ``-(D4 + D2)`` with the eigenvalue
    ``-(mu_j**2 + mu_j)``, where ``mu_j = -(4/h**2) sin(j*pi/(2(n+1)))**2`` is
    the eigenvalue of the second difference D2 (Strang, SIAM Review 1999).
    So the first m coordinate vectors, from which every Lyapunov frame
    starts, are the m lowest sine modes.  ``L`` is one length or a sequence
    (see :func:`make_model`).
    """

    crank_nicolson = True

    def __init__(self, L, k_max=DEFAULT_K_MAX):
        L = _domain_lengths(L)
        # the fewest interior points whose spacing h = L/(n+1) is <= pi/k_max
        n = np.ceil(k_max * L / np.pi) - 1
        while np.any(coarse := L / (n + 1) > np.pi / k_max):
            n = n + coarse
        self.n = n = _one_resolution("n_interior", n)
        self.L = L
        self.h = L / (n + 1)
        self.x = self.h * np.arange(1, n + 1)
        j = np.arange(1, n + 1)
        mu = -(4 / self.h**2) * np.sin(j * np.pi / (2 * (n + 1)))**2
        super().__init__(n, stiff_linear_part=-(mu * mu + mu))
        self._four_h = 4 * self.h
        self._work = {}  # block shape -> work arrays of that shape
        global _pocketfft_dst
        from scipy.fft._pocketfft.pypocketfft import dst as _pocketfft_dst

    def rhs(self, t, state):
        """lam a - dst((u^2/2)_x) with u = dst(a), the sine coefficients of
        the ghost-point stencils' -u_xxxx - u_xx - (u^2/2)_x.

        In this order of operations: ``sq = dst(a)**2`` in place; the flux
        ``(sq[i+1] - sq[i-1]) / (4 h)``, where the boundary zeros stand in
        for the neighbours of the end points; then ``lam * a - dst(flux)``.
        """
        return self._evaluate(state, nonlinear=False)

    def _nonlinear(self, t, state):
        return self._evaluate(state, nonlinear=True)

    def _work_arrays(self, shape):
        """The work arrays of a block of ``shape``: ``sq``, ``flux`` and lam a
        in the result's shape."""
        work = self._work.get(shape)
        if work is None:
            work = self._work[shape] = (
                np.empty(shape), np.empty(shape),
                np.empty(np.broadcast_shapes(self.stiff_linear_part.shape, shape)))
        return work

    def _evaluate(self, state, nonlinear):
        """f(a), or with ``nonlinear`` N(a) = f(a) - lam a, the product lam a
        formed once.  The result is a new array; the work arrays are the
        model's, kept per block shape."""
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
        if nonlinear:
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
    resolving wavenumbers up to ``k_max``; the two fix its resolution.

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
    min_k = (2 * np.pi if bc == PERIODIC else np.pi) / np.min(lengths)
    if k_max < min_k:
        raise ValueError(f"k_max_target={k_max:g} resolves no mode on "
                         f"L={np.min(lengths):g} (need >= {min_k:g})")
    model = PeriodicSpectralModel if bc == PERIODIC else OddPeriodicFDModel
    return model(L, k_max)
