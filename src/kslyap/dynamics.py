"""Autonomous dynamical systems and fixed-step time integration.

A system is two parts: a diagonal linear part lam (``stiff_linear_part``,
zeros when the system declares none) and an explicit part N, so that
du/dt = lam u + N(u).  States are 1-D real arrays of length ``dim``; N also
accepts a ``(batch, dim)`` array of states, or any block with more leading
axes, and returns the elementwise results, which lets callers propagate
many trajectories in lockstep (used heavily by the Lyapunov engine).  A
lockstep system of G members (``ks.make_model`` of G lengths) declares lam
with a leading member axis, shape ``(G, 1, dim)``, and steps
``(G, rows, dim)`` blocks; every row of a block gets the bits it gets
alone, as each stepper builds its coefficients member by member with the
code of a single system (ETDRK4) or elementwise (IMEX-CNAB2).

The system determines its fixed-step scheme (:func:`make_stepper`):

* with ``crank_nicolson`` -- IMEX-CNAB2: Crank-Nicolson on lam,
  Adams-Bashforth-2 on N, each step a diagonal update;
* without                 -- ETDRK4: exponential time differencing RK4
  (Cox-Matthews, with the Kassam-Trefethen contour evaluation of the
  phi-function coefficients).  At lam = 0 it is classical RK4, so a
  system with no stiff part (the Lorenz oracle) runs with it too.

A system builds each stepper once: :func:`integrate` takes the stepper of
its step ``dt`` from a cache on the system, one stepper per step size, and
calls :func:`make_stepper` only on a miss.  Every walk restarts the stepper
it takes, so IMEX-CNAB2 opens each ``integrate`` call with an Euler step for
the explicit part, as a newly built stepper does; results do not depend on
what the system integrated before.

A system is evaluated through one method, ``rhs(t, u)``, which returns N,
and every stepper reaches it through ``DynamicalSystem.rhs_batch``: ETDRK4
four times a step, IMEX-CNAB2 once.  The base ``rhs`` runs the wrapped
function; the periodic KS model returns its quadratic term and the odd
model forms lam v once and subtracts it again.  Both KS models and the
ETDRK4 stepper keep work arrays per block shape and return new arrays, so
no model or stepper may be stepped from two threads at once (a forked
process has its own copies).
"""

import numpy as np

from .errors import IntegrationBlowUp

#: Integration aborts when the state max-norm exceeds this guard.
BLOWUP_NORM = 1e6


class DynamicalSystem:
    """An autonomous ODE  du/dt = lam u + N(u)  on R^dim.

    ``stiff_linear_part`` is the diagonal lam, of shape ``(dim,)``, or
    ``(G, 1, dim)`` for a lockstep system of G members; a scalar is that
    rate on every coordinate, and the default is lam = 0.  The system is
    integrated by ETDRK4, or by IMEX-CNAB2 when its class sets
    ``crank_nicolson`` (see :func:`make_stepper`).

    ``rhs(t, u)`` is the one method that evaluates a system: the explicit
    part N(u).  ``DynamicalSystem(dim, rhs, ...)`` wraps a function
    ``rhs(t, u)`` that returns N, and the base method runs it; a subclass
    (the KS models of ``ks``) overrides the method instead and passes none.
    ``rhs`` must return a new array: the ETDRK4 and IMEX-CNAB2 steppers
    update it in place.
    The system keeps the steppers :func:`integrate` builds for it, one per
    step size, so its operator is not to be changed after the first
    integration.  ``initial_std`` is the spread of each coordinate of the
    system's random start (:func:`initial_state`).
    """

    crank_nicolson = False
    initial_std = 1.0

    def __init__(self, dim, rhs=None, stiff_linear_part=0.0):
        if dim <= 0:
            raise ValueError("system dimension must be positive")
        self._function = rhs
        lam = np.asarray(stiff_linear_part, dtype=float)
        if lam.ndim == 0:  # one rate for every coordinate
            lam = np.full(dim, lam)
        if lam.shape[-1:] != (dim,):
            raise ValueError("stiff_linear_part must have dim entries on its last axis")
        self.dim = dim
        self.stiff_linear_part = lam
        self._steppers = {}

    def rhs(self, t, states):
        """N for a (..., batch, dim) block of states, from the wrapped
        function."""
        return self._function(t, states)

    def rhs_batch(self, t, states):
        """``rhs`` of a (..., batch, dim) block of states, given as any
        array-like; every stepper evaluates its system through this method."""
        return self.rhs(t, np.asarray(states, dtype=float))


def initial_state(system, seed):
    """The random start of ``system``: i.i.d. normal coordinates of standard
    deviation ``system.initial_std``, from a PCG64 generator.

    That is 1 unless the system declares another: both KS models' starts
    have unit variance at every point of their physical grid.  The
    generator is pinned (numpy PCG64) so the same seed yields the same
    vector on every platform.
    """
    draw = np.random.Generator(np.random.PCG64(seed)).standard_normal(system.dim)
    return draw * system.initial_std


def _check_finite(u, t):
    # one reduction: NaN fails the comparison, as +-inf and a blow-up do
    if not np.max(np.abs(u)) <= BLOWUP_NORM:
        raise IntegrationBlowUp(t)


def _per_member(build, lam):
    """The coefficient arrays ``build(lam)`` returns for a 1-D ``lam``; for a
    stacked ``lam`` of shape (..., dim), each member's row is built alone and
    the results stacked to ``lam``'s shape, so every member gets the bits of
    its own single build (a contour mean over a stacked ``lam`` rounds
    differently)."""
    if lam.ndim == 1:
        return build(lam)
    built = [build(row) for row in lam.reshape(-1, lam.shape[-1])]
    return tuple(np.reshape(np.stack(c), lam.shape) for c in zip(*built))


class _Stepper:
    """A fixed-step scheme; ``restart`` forgets any multistep history, so the
    next step is taken as by a newly built stepper."""

    def restart(self):
        pass


class _ETDRK4Stepper(_Stepper):
    """Cox-Matthews ETDRK4 for a diagonal linear part; at lam = 0 it is
    classical RK4 (Q = h/2 and f1 = f2 = f3 = h/6 up to rounding).

    The four phi-function coefficient vectors are evaluated by averaging over
    32 points on a unit circle centred on each h*lambda, which is stable for
    small |h*lambda| where the closed forms cancel catastrophically.
    """

    N_CONTOUR = 32

    def __init__(self, system, dt):
        self.f = system.rhs_batch
        self.dt = dt
        self.e_full, self.e_half, self.q, self.f1, self.f2, self.f3 = _per_member(
            lambda row: self._coefficients(row, dt), system.stiff_linear_part)
        self._2f2 = 2 * self.f2
        self._work = {}  # block shape -> three work arrays of that shape

    @classmethod
    def _coefficients(cls, lam, h):
        """E, E/2, Q, f1, f2, f3 of step h for a 1-D diagonal lam."""
        e_full = np.exp(h * lam)
        e_half = np.exp(h * lam / 2)
        M = cls.N_CONTOUR
        r = np.exp(1j * np.pi * (np.arange(M) + 0.5) / M)  # upper/lower symmetric
        lr = h * lam[:, None] + r[None, :]
        elr = np.exp(lr)
        q = h * np.real(np.mean((np.exp(lr / 2) - 1) / lr, axis=1))
        f1 = h * np.real(np.mean((-4 - lr + elr * (4 - 3 * lr + lr**2)) / lr**3, axis=1))
        f2 = h * np.real(np.mean((2 + lr + elr * (lr - 2)) / lr**3, axis=1))
        f3 = h * np.real(np.mean((-4 - 3 * lr - lr**2 + elr * (4 - lr)) / lr**3, axis=1))
        return e_full, e_half, q, f1, f2, f3

    def step(self, t, u):
        """One step of

            a = E/2 u + Q N(u),   b = E/2 u + Q N(a),   c = E/2 a + Q (2 N(b) - N(u)),
            u' = E u + f1 N(u) + 2 f2 (N(a) + N(b)) + f3 N(c),

        with N the system's explicit part, evaluated in place in that
        order of operations.  a, b and c live in work arrays the stepper
        keeps per block shape; the returned u' is a new array.
        """
        h, q, e_half = self.dt, self.q, self.e_half
        work = self._work.get(u.shape)
        if work is None:
            shape = np.broadcast_shapes(e_half.shape, u.shape)
            work = self._work[u.shape] = tuple(np.empty(shape) for _ in range(3))
        half_u, a, b = work
        n0 = self.f(t, u)
        np.multiply(e_half, u, out=half_u)
        np.multiply(q, n0, out=a)
        a += half_u
        na = self.f(t + h / 2, a)
        np.multiply(q, na, out=b)
        b += half_u
        nb = self.f(t + h / 2, b)
        c = np.multiply(nb, 2, out=half_u)  # E/2 u is spent: c takes its array
        c -= n0
        c *= q
        c += np.multiply(e_half, a, out=b)
        nc = self.f(t + h, c)
        out = self.e_full * u
        out += np.multiply(self.f1, n0, out=a)
        na += nb
        na *= self._2f2
        out += na
        nc *= self.f3
        out += nc
        return out


class _IMEXCNAB2Stepper(_Stepper):
    """Crank-Nicolson (diagonal linear part) / Adams-Bashforth-2 (remainder).

    With the linear part a diagonal ``lam``, a step is the elementwise
    update ``u' = (1 + dt/2 lam) u + dt E  over  1 - dt/2 lam``, with the
    explicit term ``E = 3/2 N(u) - 1/2 N(u_prev)`` and N the system's
    explicit part.
    The first step after construction or ``restart`` uses explicit Euler,
    ``E = N(u)``.
    """

    def __init__(self, system, dt):
        lam = system.stiff_linear_part
        self.f = system.rhs_batch
        self.dt = dt
        self.gain = 1 + (dt / 2) * lam
        self.inv = 1 / (1 - (dt / 2) * lam)
        self.restart()

    def restart(self):
        self._nl_prev = None

    def step(self, t, u):
        dt = self.dt
        nl = self.f(t, u)
        if self._nl_prev is None:
            expl = nl * dt
        else:
            expl = 1.5 * nl
            expl -= 0.5 * self._nl_prev
            expl *= dt
        self._nl_prev = nl
        out = self.gain * u
        out += expl
        out *= self.inv
        return out


def make_stepper(system, dt):
    """The stepper of step ``dt`` for the system's scheme: IMEX-CNAB2 when
    its class sets ``crank_nicolson``, ETDRK4 otherwise."""
    if system.crank_nicolson:
        return _IMEXCNAB2Stepper(system, dt)
    return _ETDRK4Stepper(system, dt)


def _stepper(system, dt):
    """The system's stepper of step ``dt``: built by :func:`make_stepper` on
    first use and restarted on every use, so each walk starts as with a new
    stepper (IMEX-CNAB2's Adams-Bashforth history does not carry over)."""
    stepper = system._steppers.get(dt)
    if stepper is None:
        stepper = system._steppers[dt] = make_stepper(system, dt)
    stepper.restart()
    return stepper


def _step_count(span, dt):
    """Full steps plus optional remainder so a walk of ``span`` lands exactly
    on its end; a span within rounding of a whole number of steps is walked
    as whole steps."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    ratio = span / dt
    n = round(ratio)
    if abs(ratio - n) <= 4 * np.finfo(float).eps * max(1.0, abs(ratio)):
        return int(n), 0.0
    n = int(np.floor(ratio))
    return n, span - n * dt


def integrate(system, u0, t, dt):
    """Advance u0 over time t in fixed steps dt of the system's scheme.

    ``u0`` may be a single state of shape (dim,) or a block of states of any
    leading shape, (batch, dim) or (G, batch, dim), advanced in lockstep.
    The system is autonomous, so every walk starts its clock at 0.
    Raises IntegrationBlowUp (carrying the failure time) if the state leaves
    the finite / bounded regime.
    """
    u0 = np.asarray(u0, dtype=float)
    single = u0.ndim == 1
    u = u0[None].copy() if single else u0.copy()
    if u.shape[-1] != system.dim:
        raise ValueError(f"state length {u.shape[-1]} != system dim {system.dim}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return u[0] if single else u

    n_steps, remainder = _step_count(t, dt)
    stepper = _stepper(system, dt)
    now = 0.0
    for _ in range(n_steps):
        u = stepper.step(now, u)
        now += dt
        _check_finite(u, now)
    if remainder > 0:
        u = _stepper(system, remainder).step(now, u)
        _check_finite(u, t)
    return u[0] if single else u


def lorenz_system(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """The Lorenz-63 system, all explicit (lam = 0, so ETDRK4 is classical
    RK4); analytic Jacobian trace is -(sigma+1+beta)."""

    def rhs(t, u):
        x, y, z = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([sigma * (y - x), x * (rho - z) - y, x * y - beta * z], axis=-1)

    return DynamicalSystem(dim=3, rhs=rhs)


def diagonal_linear_system(rates):
    """du/dt = diag(rates) u, declared as lam = rates with N = 0, so ETDRK4
    integrates it exactly; Lyapunov exponents are exactly `rates`."""
    rates = np.asarray(rates, dtype=float)
    return DynamicalSystem(dim=rates.size, rhs=lambda t, u: np.zeros_like(u),
                           stiff_linear_part=rates)
