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
                   conservative form (u^2/2)_x.

Both models resolve wavenumbers up to at least ``k_max_target`` (default 9).
Each model's system declares its stiff linear operator, which picks its
integrator (``dynamics.make_stepper``): the periodic model's diagonal
``k^2 - k^4`` runs with ETDRK4, the odd model's banded finite-difference
matrix with IMEX-CNAB2.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import next_fast_len

from .dynamics import DynamicalSystem
from .errors import ResolutionTooCoarse

PERIODIC = "periodic"
ODD_PERIODIC = "odd"

DEFAULT_K_MAX = 9.0


@dataclass
class DomainSpec:
    """Domain length, boundary condition, and target resolved wavenumber."""

    L: float
    bc: str = PERIODIC
    k_max_target: float = DEFAULT_K_MAX

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("domain length L must be positive")
        if self.bc not in (PERIODIC, ODD_PERIODIC):
            raise ValueError(f"bc must be {PERIODIC!r} or {ODD_PERIODIC!r}")
        min_k = (2 * np.pi if self.bc == PERIODIC else np.pi) / self.L
        if self.k_max_target < min_k:
            raise ValueError(
                f"k_max_target={self.k_max_target:g} resolves no mode on L={self.L:g} "
                f"(need >= {min_k:g})")


class PeriodicSpectralModel:
    """Pseudospectral evaluation machinery for the periodic case."""

    def __init__(self, spec, n_modes=None):
        L = spec.L
        if n_modes is None:
            n_modes = int(np.ceil(spec.k_max_target * L / (2 * np.pi)))
        if n_modes < 4:
            raise ResolutionTooCoarse(
                f"n_modes={n_modes} < 4 for L={L:g}, k_max={spec.k_max_target:g}")
        self.spec = spec
        self.L = L
        self.n_modes = n_modes
        self.dim = 2 * n_modes + 1
        # physical grid for the quadratic term; >= 3n+1 makes the retained
        # band alias-free, padded up to an FFT-friendly length
        self.grid_size = next_fast_len(3 * n_modes + 1)
        self.dealias_cut = n_modes
        self.k = 2 * np.pi * np.arange(n_modes + 1) / L
        growth = self.k**2 - self.k**4
        self.stiff_linear_part = np.concatenate([growth, growth[1:]])
        self._half_k = 0.5 * self.k
        self._inv_grid_size = 1.0 / self.grid_size

    def pack(self, coeffs):
        """Complex spectrum (..., n+1) -> real state (..., 2n+1)."""
        return np.concatenate([coeffs.real, coeffs[..., 1:].imag], axis=-1)

    def unpack(self, state):
        """Real state (..., 2n+1) -> complex spectrum (..., n+1)."""
        n = self.n_modes
        coeffs = state[..., : n + 1].astype(complex)
        coeffs[..., 1:] += 1j * state[..., n + 1 :]
        return coeffs

    def rhs(self, t, state):
        """(k^2 - k^4) c_k - (ik/2) FFT[u^2]_k on the real state.

        Evaluated in real arithmetic on float views of the complex spectra,
        with the operations of the complex formula
        ``(k**2 - k**4) * c - 0.5j * k * (rfft(irfft(c * M)**2) / M)``
        in the same order, so the result has the same bits (numpy's complex
        ``/ M`` multiplies by ``1 / M``).
        """
        n, M = self.n_modes, self.grid_size
        s = np.atleast_2d(state)
        # (batch, M//2+1, 2): real and imaginary parts of the padded spectrum
        spectrum = np.zeros((s.shape[0], M // 2 + 1, 2))
        spectrum[:, : n + 1, 0] = s[:, : n + 1]
        spectrum[:, 1 : n + 1, 1] = s[:, n + 1 :]
        spectrum[:, : n + 1] *= M  # rfft normalization
        u = np.fft.irfft(spectrum.view(complex)[..., 0], M, axis=-1)
        u *= u
        sq = np.fft.rfft(u, axis=-1).view(float).reshape(spectrum.shape)[:, : n + 1]
        sq *= self._inv_grid_size
        out = self.stiff_linear_part * s
        out[:, : n + 1] += self._half_k * sq[..., 1]
        out[:, n + 1 :] -= self._half_k[1:] * sq[:, 1:, 0]
        return out[0] if np.ndim(state) == 1 else out

    def to_physical(self, state, n_points=None):
        """Evaluate u(x) on a uniform grid; returns (x, u)."""
        if n_points is None:
            n_points = self.grid_size
        if n_points < 2 * self.n_modes + 1:
            raise ValueError("n_points too small to represent the retained modes")
        coeffs = self.unpack(np.atleast_1d(np.asarray(state, dtype=float)))
        full = np.zeros(n_points // 2 + 1, dtype=complex)
        full[: self.n_modes + 1] = coeffs * n_points
        x = self.L * np.arange(n_points) / n_points
        return x, np.fft.irfft(full, n_points)

    def from_physical(self, u):
        """Project grid values (uniform, length M) onto the retained modes."""
        u = np.asarray(u, dtype=float)
        coeffs = np.fft.rfft(u)[: self.n_modes + 1] / u.size
        return self.pack(coeffs)

    def field_mean(self, state):
        return float(np.asarray(state)[..., 0])

    def build_system(self):
        return DynamicalSystem(
            dim=self.dim, rhs=self.rhs, stiff_linear_part=self.stiff_linear_part,
            label=f"ks-periodic(L={self.L:g},n={self.n_modes})")


class OddPeriodicFDModel:
    """Finite-difference machinery for the odd-periodic case.

    Interior grid x_i = i*h, i = 1..n, h = L/(n+1); boundary values and
    odd reflections handled through ghost points.
    """

    def __init__(self, spec, n_interior=None):
        L = spec.L
        if n_interior is None:
            n_interior = int(np.ceil(spec.k_max_target * L / np.pi)) - 1
            while L / (n_interior + 1) > np.pi / spec.k_max_target:
                n_interior += 1
        self.spec = spec
        self.L = L
        self.n = n_interior
        self.h = L / (n_interior + 1)
        if self.h > np.pi / spec.k_max_target:
            raise ResolutionTooCoarse(
                f"h={self.h:g} > pi/k_max={np.pi / spec.k_max_target:g}")
        self.dim = n_interior
        self.x = self.h * np.arange(1, n_interior + 1)
        self.linear_matrix = self._build_linear_matrix()

    def _build_linear_matrix(self):
        n, h = self.n, self.h
        d2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
        d4 = sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2],
                      shape=(n, n), format="lil") / h**4
        # odd reflection through the boundary: u_{-1} = -u_1, u_{n+2} = -u_n
        d4[0, 0] += -1.0 / h**4
        d4[n - 1, n - 1] += -1.0 / h**4
        return sp.csr_matrix(-(d4.tocsr() + d2))

    def rhs(self, t, state):
        """-u_xxxx - u_xx - (u^2/2)_x by the ghost-point stencils.

        The state is extended to ``z`` with the boundary zeros and the odd
        ghosts ``u_{-1} = -u_1``, ``u_{n+2} = -u_n``; then, in this order of
        operations, ``u_xx = (z[i-1] - 2 z[i] + z[i+1]) / h**2``,
        ``u_xxxx = (z[i-2] - 4 z[i-1] + 6 z[i] - 4 z[i+1] + z[i+2]) / h**4``
        and ``flux_x = (z[i+1]**2 - z[i-1]**2) / (4 h)``, each summed and
        divided in place.
        """
        u = np.atleast_2d(state)
        n, h = self.n, self.h
        z = np.empty((u.shape[0], n + 4))
        z[:, 1] = 0.0
        z[:, n + 2] = 0.0
        z[:, 2 : n + 2] = u
        z[:, 0] = -u[:, 0]
        z[:, n + 3] = -u[:, n - 1]
        left, mid, right = z[:, 1 : n + 1], z[:, 2 : n + 2], z[:, 3 : n + 3]
        u_xx = 2 * mid
        np.subtract(left, u_xx, out=u_xx)
        u_xx += right
        u_xx /= h**2
        u_xxxx = 4 * left
        np.subtract(z[:, 0:n], u_xxxx, out=u_xxxx)
        u_xxxx += 6 * mid
        u_xxxx -= 4 * right
        u_xxxx += z[:, 4 : n + 4]
        u_xxxx /= h**4
        sq = z[:, 1 : n + 3] * z[:, 1 : n + 3]
        flux_x = sq[:, 2:] - sq[:, :n]
        flux_x /= 4 * h
        out = np.negative(u_xxxx, out=u_xxxx)
        out -= u_xx
        out -= flux_x
        return out[0] if np.ndim(state) == 1 else out

    def sine_frame(self, m):
        """The m lowest orthonormal DST-I vectors, sin(j*pi*x_i/L) for j = 1..m.

        These are the grid's counterparts of the periodic model's Fourier
        coordinates (and eigenvectors of the linear operator), so a Lyapunov
        frame started from them spreads over the domain from the first
        interval.  Single-point perturbations next to the x=0 wall would
        instead be nearly collinear after one interval.
        """
        if not 0 < m <= self.n:
            raise ValueError(f"m={m} must be in 1..{self.n}")
        j = np.arange(1, m + 1)
        i = np.arange(1, self.n + 1)
        return np.sqrt(2.0 / (self.n + 1)) * np.sin(np.pi * np.outer(i, j) / (self.n + 1))

    def to_physical(self, state):
        """Full field including the boundary zeros; returns (x, u)."""
        u = np.asarray(state, dtype=float)
        x = self.h * np.arange(self.n + 2)
        return x, np.concatenate([[0.0], u, [0.0]])

    def build_system(self):
        return DynamicalSystem(
            dim=self.dim, rhs=self.rhs, stiff_linear_matrix=self.linear_matrix,
            frame_factory=self.sine_frame, label=f"ks-odd(L={self.L:g},n={self.n})")


def make_model(spec, **kwargs):
    """The spatial model for ``spec.bc``; ``.build_system()`` gives its ODE."""
    if spec.bc == PERIODIC:
        return PeriodicSpectralModel(spec, **kwargs)
    return OddPeriodicFDModel(spec, **kwargs)
