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
"""

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import initial_state, integrate
from .errors import NonFiniteColumn, RankDeficient


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
        if self.tau < 0 or not self.T > 0 or not self.epsilon > 0 or not self.dt > 0:
            raise ValueError("tau >= 0, T > 0, epsilon > 0, dt > 0 required")
        if self.epsilon > 1e-2:
            warnings.warn("epsilon > 1e-2 is large relative to typical state scales")


@dataclass
class LyapunovResult:
    exponents: np.ndarray          # sorted non-increasing, length m
    logR_history: np.ndarray       # (N, m), log R_ii per interval, unsorted
    final_state: np.ndarray
    config_echo: LyapunovConfig
    wall_time: float


def burn_in(system, u0, tau, dt):
    """Discard the transient: evolve u0 for time tau (tau=0 is a no-op)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u0 = np.asarray(u0, dtype=float)
    if tau == 0:
        return u0.copy()
    return integrate(system, u0, 0.0, tau, dt)


def propagate_frame(system, u_prev, Q_prev, T, epsilon, dt):
    """One interval: advance the base state and the m perturbed states.

    Returns (u_next, V) where column i of V is the finite-difference
    flow-map image of Q_prev[:, i].  The base and perturbed trajectories are
    integrated in one lockstep batch, which is bit-identical to integrating
    them one at a time.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    Q_prev = np.asarray(Q_prev, dtype=float)
    ortho_err = np.max(np.abs(Q_prev.T @ Q_prev - np.eye(Q_prev.shape[1])))
    if ortho_err > 1e-8:
        raise ValueError(f"Q_prev columns not orthonormal (deviation {ortho_err:.2e})")
    batch = np.concatenate([u_prev[None, :], u_prev[None, :] + epsilon * Q_prev.T])
    out = integrate(system, batch, 0.0, T, dt)
    u_next = out[0]
    V = (out[1:] - u_next).T / epsilon
    if not np.all(np.isfinite(V)):
        bad = np.where(~np.all(np.isfinite(V), axis=0))[0]
        raise NonFiniteColumn(f"non-finite flow-map columns: {bad.tolist()}")
    return u_next, V


def reorthonormalize(V):
    """Reduced QR with the positive-diagonal sign convention.

    Returns (Q, r_diag) with r_diag > 0; columns of Q are flipped where the
    raw factorization produced a negative diagonal.
    """
    Q, R = np.linalg.qr(np.asarray(V, dtype=float))
    d = np.diagonal(R).copy()
    if not np.all(np.isfinite(d)) or np.min(np.abs(d)) < 1e-300:
        raise RankDeficient(
            "QR diagonal underflow: epsilon too small or m too large for the dynamics")
    signs = np.where(d < 0, -1.0, 1.0)
    return Q * signs, np.abs(d)


def compute_spectrum(system, cfg, u0=None):
    """Run the full reorthonormalization algorithm and return the spectrum.

    The initial condition defaults to ``initial_state(dim, cfg.seed)``, a
    standard-normal state; pass ``u0`` to start from a specific state instead.

    The frame starts from ``system.initial_frame(m)``: the first m coordinate
    vectors unless the system supplies its own basis.  For the periodic KS
    model the coordinates are Fourier modes; the odd-periodic model starts
    from its m lowest sine modes (``OddPeriodicFDModel.sine_frame``).  No
    interval is discarded after burn-in, so the logs of the first
    reorthonormalization enter the average and a frame that starts far from
    the growing directions biases the exponents.
    """
    if cfg.m > system.dim:
        raise ValueError(f"m={cfg.m} exceeds system dimension {system.dim}")
    if u0 is None:
        u0 = initial_state(system.dim, cfg.seed)
    t_start = time.perf_counter()
    u = burn_in(system, np.asarray(u0, dtype=float), cfg.tau, cfg.dt)
    Q = system.initial_frame(cfg.m)
    logR = np.empty((cfg.N, cfg.m))
    for j in range(cfg.N):
        try:
            u, V = propagate_frame(system, u, Q, cfg.T, cfg.epsilon, cfg.dt)
            Q, r_diag = reorthonormalize(V)
        except Exception as exc:
            exc.args = (f"interval {j + 1}/{cfg.N}: {exc}",)
            raise
        logR[j] = np.log(r_diag)
    exponents = np.sort(logR.sum(axis=0) / (cfg.N * cfg.T))[::-1]
    return LyapunovResult(
        exponents=exponents, logR_history=logR, final_state=u,
        config_echo=cfg, wall_time=time.perf_counter() - t_start)


def scan_reorthonormalization_interval(system, cfg, T_values):
    """Recompute the spectrum for each T, everything else held fixed.

    Returns (T_values, exponent matrix) with one row per T; failed runs give
    a row of NaNs rather than aborting the scan.
    """
    T_values = np.asarray(T_values, dtype=float)
    if np.any(T_values <= 0) or np.any(np.diff(T_values) <= 0):
        raise ValueError("T_values must be positive and strictly ascending")
    rows = np.full((T_values.size, cfg.m), np.nan)
    for idx, T in enumerate(T_values):
        try:
            rows[idx] = compute_spectrum(system, replace(cfg, T=float(T))).exponents
        except Exception as exc:
            warnings.warn(f"T={T:g} failed: {exc}")
    return T_values, rows
