"""Benettin-Shimada computation of the leading Lyapunov exponents.

The flow-map action on each tracked direction q_i is approximated by a
finite difference of the full nonlinear flow,

    Psi(t_j, t_{j-1}) q_i  ~=  (flow(u + eps*q_i) - flow(u)) / eps,

and the frame is reorthonormalized by a reduced QR factorization after each
interval of length T.  The exponents are the interval-averaged logs of the
positive R diagonals,  lambda_i = sum_j log R_ii^(j) / (N*T),  sorted in
non-increasing order.

Every trajectory is advanced in fixed steps ``dt`` of the scheme its system
picks (``dynamics.make_stepper``); the configuration carries only the step.

Several spectra run in lockstep from a ``(G, dim)`` start: G seeds of one
system, or the G members of a lockstep system (``ks.make_model`` of G
lengths).  Their burn-in is one ``(G, 1, dim)`` block, each interval one
``(G, m+1, dim)`` block and one stacked QR of a ``(G, dim, m)`` array, and
the results gain a leading member axis.  Every member's numbers are
bit-identical to its run alone; a single ``(dim,)`` start runs with 2-D
blocks, as it always has.

On a machine with a second usable core, the main process steps the last
half of each interval's rows in a forked helper process (:class:`_RowHelper`)
when the block holds at least :data:`SPLIT_NUMBERS` numbers.  Rows
never interact within an interval, so every number is the same either way.
"""

import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import initial_state, integrate
from .errors import IntegrationBlowUp, NonFiniteColumn, RankDeficient

#: Numbers in an interval's block, (m+1) rows x dim x members, from which a
#: spectrum's intervals are split between two processes.  Accumulation time
#: on a 2-core VM, N=40, medians of 5-9 alternating runs, one process ->
#: split: periodic L=22 m=12 (845 numbers) +2 to +21%; a lockstep group of
#: 2 such points (1690) +22%, of 3 (2535) -11%, of 4 (3380) -7 to -16%;
#: periodic L=22 m=24 (1625) +18 to -20%; odd L=41 m=12 (1521) -9 to -21%;
#: periodic L=60 m=12 (2249) +5 to -8%, m=24 (4325) -15%; periodic L=100
#: m=24 (7225) -23%; odd L=100 m=24 (7150) -26%.
SPLIT_NUMBERS = 2000


@dataclass
class LyapunovConfig:
    """Parameters of the reorthonormalization algorithm.

    m        -- number of most-positive exponents to track
    tau      -- transient (burn-in) time discarded before accumulation
    T        -- reorthonormalization interval
    N        -- number of intervals
    epsilon  -- perturbation magnitude for the flow-map finite difference
    seed     -- seed of the default initial state
    dt       -- time step of the system's integrator
    """

    m: int = 24
    tau: float = 2000.0
    T: float = 2.0
    N: int = 1000
    epsilon: float = 1e-6
    seed: int = 0
    dt: float = 0.05

    def __post_init__(self):
        if self.m <= 0 or self.N <= 0:
            raise ValueError("m and N must be positive")
        if not (0 <= self.tau < np.inf and 0 < self.T < np.inf
                and 0 < self.epsilon < np.inf and 0 < self.dt < np.inf):
            raise ValueError("finite tau >= 0, T > 0, epsilon > 0, dt > 0 required")
        if self.epsilon > 1e-2:
            warnings.warn("epsilon > 1e-2 is large relative to typical state scales")


@dataclass
class LyapunovResult:
    """One spectrum, or G of them along a leading member axis of every
    array (the wall time is the group's)."""

    exponents: np.ndarray          # sorted non-increasing, (..., m)
    logR_history: np.ndarray       # (..., N, m), log R_ii per interval, unsorted
    final_state: np.ndarray        # (..., dim)
    wall_time: float


def burn_in(system, u0, tau, dt):
    """Discard the transient: evolve u0 for time tau (tau=0 is a no-op).

    A ``(dim,)`` start burns in as a ``(1, dim)`` block, a ``(G, dim)`` stack
    of starts as one ``(G, 1, dim)`` block, a trajectory per member."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u0 = np.asarray(u0, dtype=float)
    if tau == 0:
        return u0.copy()
    return integrate(system, u0[..., None, :], tau, dt)[..., 0, :]


def propagate_frame(system, u_prev, Q_prev, T, epsilon, dt, helper=None):
    """One interval: advance the base state and the m perturbed states.

    Returns (u_next, V) where column i of V is the finite-difference
    flow-map image of Q_prev[:, i].  The base and perturbed trajectories are
    integrated in one lockstep batch, which is bit-identical to integrating
    them one at a time.  Leading axes, ``u_prev`` (..., dim) and ``Q_prev``
    (..., dim, m), are members stepped together as one (..., m+1, dim) block.
    A ``helper`` (:class:`_RowHelper`) integrates the last half of its rows.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    Q_prev = np.asarray(Q_prev, dtype=float)
    Qt = np.swapaxes(Q_prev, -1, -2)
    ortho_err = np.max(np.abs(Qt @ Q_prev - np.eye(Q_prev.shape[-1])))
    if ortho_err > 1e-8:
        raise ValueError(f"Q_prev columns not orthonormal (deviation {ortho_err:.2e})")
    base = u_prev[..., None, :]
    batch = np.concatenate([base, base + epsilon * Qt], axis=-2)
    if helper is None:
        out = integrate(system, batch, T, dt)
    else:
        out = helper.integrate(batch)
    u_next = out[..., 0, :]
    V = np.swapaxes(out[..., 1:, :] - out[..., :1, :], -1, -2) / epsilon
    if not np.all(np.isfinite(V)):
        bad = np.nonzero(~np.all(np.isfinite(V), axis=-2))[-1]
        raise NonFiniteColumn(f"non-finite flow-map columns: {bad.tolist()}")
    return u_next, V


def reorthonormalize(V):
    """Reduced QR with the positive-diagonal sign convention.

    Returns (Q, r_diag) with r_diag > 0; columns of Q are flipped where the
    raw factorization produced a negative diagonal.  A (..., dim, m) stack
    is factored by one stacked QR, each matrix with the bits of its own.
    """
    Q, R = np.linalg.qr(np.asarray(V, dtype=float))
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    if not np.all(np.isfinite(d)) or np.min(np.abs(d)) < 1e-300:
        raise RankDeficient(
            "QR diagonal underflow: epsilon too small or m too large for the dynamics")
    signs = np.where(d < 0, -1.0, 1.0)
    return Q * signs[..., None, :], np.abs(d)


def compute_spectrum(system, cfg, u0=None):
    """Run the full reorthonormalization algorithm and return the spectrum.

    The initial condition defaults to ``initial_state(system, cfg.seed)``,
    the system's random start; pass ``u0`` to start from a specific state
    instead.
    A ``(G, dim)`` ``u0`` runs G spectra in lockstep, one per row: G starts
    of one system, or one start per member of a lockstep system
    (``ks.make_model`` of G lengths), which needs one.  The result's arrays
    then lead with the member axis; each member's numbers equal those of its
    run alone.

    The frame starts from the first m coordinate vectors.  For the KS
    models these are the lowest modes: the mean and the real parts of the
    lowest Fourier modes for the periodic model, and the m lowest sine modes
    for the odd-periodic one, whose state is in sine coordinates.  No
    interval is discarded after burn-in, so the logs of the first
    reorthonormalization enter the average and a frame that starts far from
    the growing directions biases the exponents.
    """
    if cfg.m > system.dim:
        raise ValueError(f"m={cfg.m} exceeds system dimension {system.dim}")
    if u0 is None:
        u0 = initial_state(system, cfg.seed)
    u0 = np.asarray(u0, dtype=float)
    members = np.shape(system.stiff_linear_part)[:-2]
    if members and u0.shape[:-1] != members:
        raise ValueError(f"a lockstep system of {members[0]} members needs "
                         f"a ({members[0]}, dim) start, not {u0.shape}")
    t_start = time.perf_counter()
    u = burn_in(system, u0, cfg.tau, cfg.dt)
    Q = np.broadcast_to(np.eye(system.dim)[:, : cfg.m], u.shape + (cfg.m,))
    logR = np.empty(u.shape[:-1] + (cfg.N, cfg.m))
    helper = None
    if _split((cfg.m + 1) * u.size):
        try:
            helper = _RowHelper(system, cfg.T, cfg.dt)
        except OSError:  # no process to spare: the run is the same in one
            pass
    try:
        for j in range(cfg.N):
            try:
                u, V = propagate_frame(system, u, Q, cfg.T, cfg.epsilon, cfg.dt, helper)
                Q, r_diag = reorthonormalize(V)
            except Exception as exc:
                exc.args = (f"interval {j + 1}/{cfg.N}: {exc}",)
                raise
            logR[..., j, :] = np.log(r_diag)
    finally:
        if helper is not None:
            helper.close()
    exponents = np.sort(logR.sum(axis=-2) / (cfg.N * cfg.T))[..., ::-1]
    return LyapunovResult(
        exponents=exponents, logR_history=logR, final_state=u,
        wall_time=time.perf_counter() - t_start)


def _split(numbers):
    """Whether a spectrum whose intervals step blocks of ``numbers`` numbers
    splits them with a :class:`_RowHelper`: the block is large enough to
    gain, two CPUs are usable, and this is the main thread of a main process
    that can fork (a sweep's pool workers already share the cores)."""
    if numbers < SPLIT_NUMBERS or not hasattr(os, "sched_getaffinity"):
        return False
    import threading
    if (len(os.sched_getaffinity(0)) < 2
            or threading.current_thread() is not threading.main_thread()):
        return False
    import multiprocessing
    return ("fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None)


class _RowHelper:
    """A forked process holding ``system`` that integrates the last half of
    the rows of each block it is given over ``T``, while the caller
    integrates the first half.  Each row gets the bits it gets in one
    process: steppers act row by row, and the helper's IMEX-CNAB2 history
    lives in its own forked stepper.  The helper calls no BLAS, prints
    nothing (its warnings are re-issued here) and ignores SIGINT;
    :meth:`close` stops it on every path."""

    def __init__(self, system, T, dt):
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self.system, self.T, self.dt = system, T, dt
        self._registry = {}  # warnings shown, as a module's registry
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=_serve, daemon=True,
                                    args=(system, T, dt, child, self._conn))
        try:
            self._process.start()
        except OSError:
            self._conn.close()
            raise
        finally:
            child.close()

    def integrate(self, block):
        """``integrate(system, block, T, dt)``, half of it in the helper.
        When rows of both halves blow up, the earlier failure is raised, as
        one process raises it."""
        cut = (block.shape[-2] + 1) // 2
        self._conn.send(block[..., cut:, :])
        try:
            own = integrate(self.system, block[..., :cut, :], self.T, self.dt)
        except IntegrationBlowUp as exc:
            own = exc
        theirs, caught = self._conn.recv()
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=self._registry)
        failures = [r for r in (own, theirs) if isinstance(r, Exception)]
        if failures:
            raise min(failures, key=lambda exc: getattr(exc, "time", -np.inf))
        return np.concatenate([own, theirs], axis=-2)

    def close(self):
        # terminate rather than ask: a result still in the pipe could block
        # both a polite stop and the join behind it
        self._process.terminate()
        self._process.join()
        self._process.close()
        self._conn.close()


def _serve(system, T, dt, conn, parent_end):
    """The helper's loop: integrate each block received over T and send back
    (the block or its exception, the warnings raised); end when the parent's
    end of the pipe closes."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            block = conn.recv()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            try:
                reply = integrate(system, block, T, dt)
            except Exception as exc:
                reply = exc
        conn.send((reply, [(w.message, w.category, w.filename, w.lineno)
                           for w in caught]))
