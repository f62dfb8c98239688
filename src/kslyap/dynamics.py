"""Autonomous dynamical systems and fixed-step time integration.

A system is described by its dimension and a right-hand-side function
``rhs(t, u)``.  States are 1-D real arrays of length ``dim``; ``rhs`` also
accepts a ``(batch, dim)`` array of states and returns the elementwise
right-hand sides, which lets callers propagate many trajectories in lockstep
(used heavily by the Lyapunov engine).

The system determines its fixed-step scheme (:func:`make_stepper`) from the
stiff linear operator it declares:

* ``stiff_linear_matrix`` (sparse, banded) -- IMEX-CNAB2: Crank-Nicolson on
  the linear part, Adams-Bashforth-2 on the rest; the banded Crank-Nicolson
  matrix is LU-factored once per stepper (LAPACK ``dgbtrf``) and each step
  is one product with the matrix and one banded solve (``dgbtrs``);
* ``stiff_linear_part`` (a diagonal)       -- ETDRK4: exponential time
  differencing RK4 (Cox-Matthews, with the Kassam-Trefethen contour
  evaluation of the phi-function coefficients);
* neither                                  -- classic explicit RK4, for
  non-stiff systems.

A system builds each stepper once: :func:`integrate` and
:func:`jacobian_trace_average` take the stepper of their step ``dt`` from a
cache on the system, one stepper per step size, and call
:func:`make_stepper` only on a miss.  Every walk restarts the stepper it
takes, so IMEX-CNAB2 opens each ``integrate`` call with an Euler step for
the explicit part, as a newly built stepper does; results do not depend on
what the system integrated before.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

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

    ``rhs`` must return a new array: the ETDRK4 and IMEX-CNAB2 steppers
    update it in place.
    The system keeps the steppers :func:`integrate` builds for it, one per
    step size, so its operator fields are not to be changed after the first
    integration.
    """

    dim: int
    rhs: Callable
    stiff_linear_part: Optional[np.ndarray] = None
    label: str = ""
    stiff_linear_matrix: Optional[sp.spmatrix] = None
    frame_factory: Optional[Callable] = None
    _steppers: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

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
    # one reduction: NaN fails the comparison, as +-inf and a blow-up do
    if not np.max(np.abs(u)) <= BLOWUP_NORM:
        raise IntegrationBlowUp(t)


class _Stepper:
    """A fixed-step scheme; ``restart`` forgets any multistep history, so the
    next step is taken as by a newly built stepper."""

    def restart(self):
        pass


class _RK4Stepper(_Stepper):
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


class _ETDRK4Stepper(_Stepper):
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
        self._2f2 = 2 * self.f2

    def _nl(self, t, u):
        n = self.f(t, u)
        n -= self.lam * u
        return n

    def step(self, t, u):
        """One step of

            a = E/2 u + Q N(u),   b = E/2 u + Q N(a),   c = E/2 a + Q (2 N(b) - N(u)),
            u' = E u + f1 N(u) + 2 f2 (N(a) + N(b)) + f3 N(c),

        with N(v) = f(v) - lam v, evaluated in place in that order of
        operations.
        """
        h, q = self.dt, self.q
        n0 = self._nl(t, u)
        half_u = self.e_half * u
        a = q * n0
        a += half_u
        na = self._nl(t + h / 2, a)
        b = q * na
        b += half_u
        nb = self._nl(t + h / 2, b)
        c = 2 * nb
        c -= n0
        c *= q
        c += self.e_half * a
        nc = self._nl(t + h, c)
        out = self.e_full * u
        out += self.f1 * n0
        na += nb
        na *= self._2f2
        out += na
        nc *= self.f3
        out += nc
        return out


def _sparse_to_banded(mat):
    """Extract (ab, l, u): the matrix in LAPACK band storage with ``l`` extra
    leading rows for the fill-in of a partial-pivoting LU, as ``dgbtrf``
    takes it (``ab[l + u + r - c, c] = mat[r, c]``)."""
    mat = sp.csr_matrix(mat)
    n = mat.shape[0]
    coo = mat.tocoo()
    offsets = coo.col - coo.row
    lo = int(max(0, -offsets.min(initial=0)))
    up = int(max(0, offsets.max(initial=0)))
    ab = np.zeros((2 * lo + up + 1, n))
    for r, c, v in zip(coo.row, coo.col, coo.data):
        ab[lo + up + r - c, c] = v
    return ab, lo, up


class _IMEXCNAB2Stepper(_Stepper):
    """Crank-Nicolson (linear) / Adams-Bashforth-2 (remainder).

    The implicit linear operator is the sparse ``stiff_linear_matrix``.  The
    banded matrix ``I - dt/2 L`` is LU-factored once, here, by LAPACK
    ``dgbtrf``; each step takes one product ``L u``, shared by the nonlinear
    term and the Crank-Nicolson right-hand side, and one banded solve
    ``dgbtrs`` in place.  ``dgbsv`` (``scipy.linalg.solve_banded``) is these
    two calls, so the result has the same bits as solving afresh each step.
    The first step after construction or ``restart`` uses explicit Euler for
    the nonlinear term.
    """

    def __init__(self, system, dt):
        self.f = system.rhs_batch
        self.dt = dt
        self.restart()
        self.L = sp.csr_matrix(system.stiff_linear_matrix)
        n = self.L.shape[0]
        lhs = sp.eye(n) - (dt / 2) * self.L
        ab, self._lo, self._up = _sparse_to_banded(lhs)
        self._lu, self._piv, info = dgbtrf(ab, self._lo, self._up)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dgbtrf failed on I - dt/2 L (info={info}) at dt={dt:g}")

    def restart(self):
        self._nl_prev = None

    def step(self, t, u):
        dt = self.dt
        Lu = (self.L @ u.T).T
        nl = self.f(t, u)
        nl -= Lu
        if self._nl_prev is None:
            expl = nl
        else:
            expl = 1.5 * nl - 0.5 * self._nl_prev
        self._nl_prev = nl
        rhs = u + (dt / 2) * Lu
        rhs += dt * expl
        # rhs is C-ordered, so rhs.T is Fortran-ordered and solved in place
        out = dgbtrs(self._lu, self._lo, self._up, rhs.T, self._piv, overwrite_b=1)[0]
        return out.T


def make_stepper(system, dt):
    """The stepper of step ``dt`` for the scheme the system's stiff linear
    operator calls for: IMEX-CNAB2 for a matrix, ETDRK4 for a diagonal, RK4
    for none."""
    if system.stiff_linear_matrix is not None:
        return _IMEXCNAB2Stepper(system, dt)
    if system.stiff_linear_part is not None:
        return _ETDRK4Stepper(system, dt)
    return _RK4Stepper(system, dt)


def _stepper(system, dt):
    """The system's stepper of step ``dt``: built by :func:`make_stepper` on
    first use and restarted on every use, so each walk starts as with a new
    stepper (IMEX-CNAB2's Adams-Bashforth history does not carry over)."""
    stepper = system._steppers.get(dt)
    if stepper is None:
        stepper = system._steppers[dt] = make_stepper(system, dt)
    stepper.restart()
    return stepper


def _step_count(t0, t1, dt):
    """Full steps plus optional remainder so the walk lands exactly on t1.

    A span within rounding of a whole number of steps is walked as whole
    steps.  The span ``t1 - t0`` carries the rounding of t0 and t1, of order
    eps*max(|t0|, |t1|), so the tolerance on ``span / dt`` scales with
    ``max(|t0|, |t1|) / dt`` as well as with the ratio; from t0 = 0 the two
    are the same.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    span = t1 - t0
    ratio = span / dt
    n = round(ratio)
    scale = max(1.0, abs(ratio), max(abs(t0), abs(t1)) / dt)
    if abs(ratio - n) <= 4 * np.finfo(float).eps * scale:
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
    stepper = _stepper(system, dt)
    t = t0
    for _ in range(n_steps):
        u = stepper.step(t, u)
        t += dt
        _check_finite(u, t)
    if remainder > 0:
        u = _stepper(system, remainder).step(t, u)
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
    stepper = _stepper(system, dt)
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
