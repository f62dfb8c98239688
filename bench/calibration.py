"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the same computation runs up to 40% slower for stretches of
tens of seconds to minutes, while other tenants are busy.  The benchmark times
``kernel()`` before and after every CLI call and multiplies the call's wall
time by ``REFERENCE_S`` over the mean of those two kernel times: the call's
time at the speed the machine had when ``REFERENCE_S`` was measured.  The kernel is the benchmark's
own code and calls nothing in ``kslyap``, so a change to the program moves the
rescaled time and a change in machine load mostly does not.

It mixes the three kinds of work the workloads do, in about equal shares:
batched FFT pseudo-spectral right-hand sides (periodic L=100), the same at
batch 1 with the interpreter overhead of small arrays (burn-in, the L=22
sweep), and finite-difference stencils with a banded solve (odd-periodic).
"""

import time

import numpy as np
from scipy.linalg import solve_banded

# About the median of ``kernel()`` on the machine the first baseline was
# measured on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1) while
# its host was quiet.  It only sets the scale: keep it fixed, or rescaled
# times before and after a change no longer compare.
REFERENCE_S = 0.040

_REPS = 14
_M, _N = 384, 144  # periodic: FFT size and retained modes
_FD = 286  # odd-periodic: interior points

_rng = np.random.default_rng(12345)
_SPEC = 1e-2 * (_rng.standard_normal((25, _N + 1)) + 1j * _rng.standard_normal((25, _N + 1)))
_DECAY = np.exp(-0.01 * np.linspace(0.0, 1.0, _N + 1))
_FIELD = 1e-2 * _rng.standard_normal((25, _FD))
_BANDED = np.vstack([np.full(_FD, -0.01), np.full(_FD, 0.04), np.full(_FD, 1.0 + 0.06),
                     np.full(_FD, 0.04), np.full(_FD, -0.01)])


def _spectral_rhs(c):
    full = np.zeros((c.shape[0], _M // 2 + 1), complex)
    full[:, : _N + 1] = c * _M
    u = np.fft.irfft(full, _M, axis=-1)
    return -0.5j * np.fft.rfft(u * u, axis=-1)[:, : _N + 1] / _M


def _spectral(c):
    for _ in range(3):
        k1 = _spectral_rhs(c)
        k2 = _spectral_rhs(c * _DECAY + 0.01 * k1)
        c = c * _DECAY + 0.005 * (k1 + k2)
    return c


def _finite_difference(u):
    for _ in range(3):
        z = np.zeros((u.shape[0], _FD + 4))
        z[:, 2: _FD + 2] = u
        rhs = (z[:, 0:_FD] - 4 * z[:, 1: _FD + 1] + 6 * z[:, 2: _FD + 2]
               - 4 * z[:, 3: _FD + 3] + z[:, 4: _FD + 4]) * 1e-3 - z[:, 2: _FD + 2] ** 2
        u = solve_banded((2, 2), _BANDED, (u + 0.01 * rhs).T).T
    return u


def kernel():
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _spectral(_SPEC)
        for row in range(0, 25, 5):
            _spectral(_SPEC[row: row + 1])
        _finite_difference(_FIELD)
    return time.perf_counter() - t0
