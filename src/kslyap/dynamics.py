"""Autonomous dynamical systems and fixed-step time integration.

A system is described by its dimension and a right-hand-side function
``rhs(t, u)``.  States are 1-D real arrays of length ``dim``; ``rhs`` also
accepts a ``(batch, dim)`` array of states and returns the elementwise
right-hand sides, which lets callers propagate many trajectories in lockstep
(used heavily by the Lyapunov engine).

The system determines its fixed-step scheme (:func:`make_stepper`) from the
stiff linear operator it declares:

* ``stiff_linear_matrix`` (sparse, banded) -- IMEX-CNAB2: Crank-Nicolson on
  the linear part, Adams-Bashforth-2 on the rest;
* ``stiff_linear_part`` (a diagonal)       -- ETDRK4: exponential time
  differencing RK4 (Cox-Matthews, with the Kassam-Trefethen contour
  evaluation of the phi-function coefficients);
* neither                                  -- classic explicit RK4, for
  non-stiff systems.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from .errors import IntegrationBlowUp

#: Integration aborts when the state max-norm exceeds this guard.
BLOWUP_NORM = 1e6


@dataclass
class DynamicalSystem:
    """An autonomous ODE  du/dt = rhs(t, u)  on R^dim.

    A system with a stiff linear operator declares it, and that declaration
    picks its integrator (see :func:`make_stepper`): ``stiff_linear_part``,
    the operator's diagonal, for one that is diagonal (ETDRK4), or
    ``stiff_linear_matrix``, a sparse matrix, for one that is banded
    (IMEX-CNAB2).  A system that declares neither is run with RK4.

    ``initial_frame(m)`` returns the orthonormal ``(dim, m)`` frame a
    Lyapunov computation starts from.  Systems may supply ``frame_factory``
    (a callable ``m -> (dim, m)`` array) for a basis suited to their
    coordinates; otherwise the frame is the first m coordinate vectors.
    """

    dim: int
    rhs: Callable
    stiff_linear_part: Optional[np.ndarray] = None
    label: str = ""
    stiff_linear_matrix: Optional[sp.spmatrix] = None
    frame_factory: Optional[Callable] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("system dimension must be positive")
        if self.stiff_linear_part is not None:
            self.stiff_linear_part = np.asarray(self.stiff_linear_part, dtype=float)
            if self.stiff_linear_part.shape != (self.dim,):
                raise ValueError("stiff_linear_part must have shape (dim,)")

    def initial_frame(self, m):
        """Orthonormal (dim, m) starting frame for the Lyapunov computation."""
        if self.frame_factory is None:
            return np.eye(self.dim)[:, :m]
        return self.frame_factory(m)

    def rhs_batch(self, t, states):
        """Evaluate the RHS for a (batch, dim) block of states."""
        return self.rhs(t, np.asarray(states, dtype=float))


def initial_state(dim, seed):
    """I.i.d. standard-normal state components from a PCG64 generator.

    The generator is pinned (numpy PCG64) so the same seed yields the same
    vector on every platform.
    """
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(dim)


def _check_finite(u, t):
    if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOWUP_NORM:
        raise IntegrationBlowUp(t)


class _RK4Stepper:
    def __init__(self, system, dt):
        self.f = system.rhs_batch
        self.dt = dt

    def step(self, t, u):
        dt, f = self.dt, self.f
        k1 = f(t, u)
        k2 = f(t + dt / 2, u + dt / 2 * k1)
        k3 = f(t + dt / 2, u + dt / 2 * k2)
        k4 = f(t + dt, u + dt * k3)
        return u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class _ETDRK4Stepper:
    """Cox-Matthews ETDRK4 for a diagonal stiff linear part.

    The four phi-function coefficient vectors are evaluated by averaging over
    32 points on a unit circle centred on each h*lambda, which is stable for
    small |h*lambda| where the closed forms cancel catastrophically.
    """

    N_CONTOUR = 32

    def __init__(self, system, dt):
        lam = system.stiff_linear_part
        self.f = system.rhs_batch
        self.lam = lam
        self.dt = dt
        h = dt
        self.e_full = np.exp(h * lam)
        self.e_half = np.exp(h * lam / 2)
        M = self.N_CONTOUR
        r = np.exp(1j * np.pi * (np.arange(M) + 0.5) / M)  # upper/lower symmetric
        lr = h * lam[:, None] + r[None, :]
        elr = np.exp(lr)
        self.q = h * np.real(np.mean((np.exp(lr / 2) - 1) / lr, axis=1))
        self.f1 = h * np.real(np.mean((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3, axis=1))
        self.f2 = h * np.real(np.mean((2 + lr + elr * (lr - 2)) / lr**3, axis=1))
        self.f3 = h * np.real(np.mean((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3, axis=1))

    def _nl(self, t, u):
        return self.f(t, u) - self.lam * u

    def step(self, t, u):
        h = self.dt
        n0 = self._nl(t, u)
        a = self.e_half * u + self.q * n0
        na = self._nl(t + h / 2, a)
        b = self.e_half * u + self.q * na
        nb = self._nl(t + h / 2, b)
        c = self.e_half * a + self.q * (2 * nb - n0)
        nc = self._nl(t + h, c)
        return self.e_full * u + self.f1 * n0 + 2 * self.f2 * (na + nb) + self.f3 * nc


def _sparse_to_banded(mat):
    """Extract (ab, l, u) diagonal-ordered form for scipy.linalg.solve_banded."""
    mat = sp.csr_matrix(mat)
    n = mat.shape[0]
    coo = mat.tocoo()
    offsets = coo.col - coo.row
    lo = int(max(0, -offsets.min(initial=0)))
    up = int(max(0, offsets.max(initial=0)))
    ab = np.zeros((lo + up + 1, n))
    for r, c, v in zip(coo.row, coo.col, coo.data):
        ab[up + r - c, c] = v
    return ab, lo, up


class _IMEXCNAB2Stepper:
    """Crank-Nicolson (linear) / Adams-Bashforth-2 (remainder).

    The implicit linear operator is the sparse ``stiff_linear_matrix``.  The
    first step uses explicit Euler for the nonlinear term.
    """

    def __init__(self, system, dt):
        self.f = system.rhs_batch
        self.dt = dt
        self._nl_prev = None
        self.L = sp.csr_matrix(system.stiff_linear_matrix)
        n = self.L.shape[0]
        lhs = sp.eye(n) - (dt / 2) * self.L
        self._ab, self._lo, self._up = _sparse_to_banded(lhs)

    def _nl(self, t, u):
        return self.f(t, u) - (self.L @ u.T).T

    def step(self, t, u):
        dt = self.dt
        nl = self._nl(t, u)
        if self._nl_prev is None:
            expl = nl
        else:
            expl = 1.5 * nl - 0.5 * self._nl_prev
        self._nl_prev = nl
        rhs = u + (dt / 2) * (self.L @ u.T).T + dt * expl
        out = solve_banded((self._lo, self._up), self._ab, rhs.T).T
        return out


def make_stepper(system, dt):
    """The stepper of step ``dt`` for the scheme the system's stiff linear
    operator calls for: IMEX-CNAB2 for a matrix, ETDRK4 for a diagonal, RK4
    for none."""
    if system.stiff_linear_matrix is not None:
        return _IMEXCNAB2Stepper(system, dt)
    if system.stiff_linear_part is not None:
        return _ETDRK4Stepper(system, dt)
    return _RK4Stepper(system, dt)


def _step_count(t0, t1, dt):
    """Full steps plus optional remainder so the walk lands exactly on t1."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    span = t1 - t0
    ratio = span / dt
    n = round(ratio)
    if abs(ratio - n) <= 4 * np.finfo(float).eps * max(1.0, abs(ratio)):
        return int(n), 0.0
    n = int(np.floor(ratio))
    return n, span - n * dt


def integrate(system, u0, t0, t1, dt):
    """Advance u0 from t0 to t1 in fixed steps dt of the system's scheme.

    ``u0`` may be a single state of shape (dim,) or a (batch, dim) block of
    states advanced in lockstep.  Raises IntegrationBlowUp (carrying the
    failure time) if the state leaves the finite / bounded regime.
    """
    u0 = np.asarray(u0, dtype=float)
    single = u0.ndim == 1
    u = u0[None, :].copy() if single else u0.copy()
    if u.shape[-1] != system.dim:
        raise ValueError(f"state length {u.shape[-1]} != system dim {system.dim}")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return u[0] if single else u

    n_steps, remainder = _step_count(t0, t1, dt)
    stepper = make_stepper(system, dt)
    t = t0
    for _ in range(n_steps):
        u = stepper.step(t, u)
        t += dt
        _check_finite(u, t)
    if remainder > 0:
        u = make_stepper(system, remainder).step(t, u)
        _check_finite(u, t1)
    return u[0] if single else u


def divergence(system, t, u, fd_step=1e-6):
    """Divergence of the flow field at u, by central finite differences."""
    n = system.dim
    eye = np.eye(n)
    block = np.concatenate([u + fd_step * eye, u - fd_step * eye])
    f = system.rhs_batch(t, block)
    return float(np.trace(f[:n] - f[n:]) / (2 * fd_step))


def jacobian_trace_average(system, u0, horizon, dt):
    """Time-averaged divergence of the flow along the trajectory from u0.

    Equals the sum of all Lyapunov exponents (useful as a validation oracle).
    The divergence is sampled at the start of every time step and averaged.
    """
    u = np.asarray(u0, dtype=float)
    n_steps, remainder = _step_count(0.0, horizon, dt)
    stepper = make_stepper(system, dt)
    samples = []
    t = 0.0
    for _ in range(n_steps):
        samples.append(divergence(system, t, u))
        u = stepper.step(t, u[None, :])[0]
        t += dt
        _check_finite(u, t)
    if remainder > 0:
        samples.append(divergence(system, t, u))
    if not samples:
        samples.append(divergence(system, 0.0, u))
    return float(np.mean(samples))


def lorenz_system(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """The Lorenz-63 system; analytic Jacobian trace is -(sigma+1+beta)."""

    def rhs(t, u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([sigma * (y - x), x * (rho - z) - y, x * y - beta * z], axis=-1)

    return DynamicalSystem(dim=3, rhs=rhs,
                           label=f"lorenz(sigma={sigma:g},rho={rho:g},beta={beta:g})")


def diagonal_linear_system(rates):
    """du/dt = diag(rates) u; Lyapunov exponents are exactly `rates`."""
    rates = np.asarray(rates, dtype=float)

    def rhs(t, u):
        return rates * u

    return DynamicalSystem(dim=rates.size, rhs=rhs,
                           label="diaglin(" + ",".join(f"{r:g}" for r in rates) + ")")
