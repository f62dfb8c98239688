"""The odd-periodic KS model on its grid, as plain finite differences: the
ghost-point stencil right-hand side, the sparse matrix of its linear part
and an IMEX-CNAB2 step that solves the banded Crank-Nicolson system with
``scipy.linalg.solve_banded`` every step.

``kslyap`` steps the same model in sine coordinates (the orthonormal DST-I
of the grid values); the tests map its states to the grid with
:func:`to_grid` and compare them with this reference.
"""

import numpy as np
import scipy.sparse as sp
from scipy.fft import dst
from scipy.linalg import solve_banded


def to_grid(a, axis=-1):
    """Grid values of sine coordinates; the orthonormal DST-I is its own
    inverse, so this maps grid values to sine coordinates as well."""
    return dst(a, type=1, norm="ortho", axis=axis)


def stencil_rhs(model, state):
    """The odd RHS by its stencil formula, each term a new array: extend with
    the boundary zeros and odd ghosts, then -u_xxxx - u_xx - (u^2/2)_x."""
    n, h = model.n, model.h
    z = np.zeros((state.shape[0], n + 4))
    z[:, 2 : n + 2] = state
    z[:, 0] = -state[:, 0]
    z[:, n + 3] = -state[:, n - 1]
    u_xx = (z[:, 1 : n + 1] - 2 * z[:, 2 : n + 2] + z[:, 3 : n + 3]) / h**2
    u_xxxx = (z[:, 0:n] - 4 * z[:, 1 : n + 1] + 6 * z[:, 2 : n + 2]
              - 4 * z[:, 3 : n + 3] + z[:, 4 : n + 4]) / h**4
    sq = z * z
    flux_x = (sq[:, 3 : n + 3] - sq[:, 1 : n + 1]) / (4 * h)
    return -u_xxxx - u_xx - flux_x


def linear_matrix(model):
    """-(D4 + D2) with the odd ghosts u_{-1} = -u_1, u_{n+2} = -u_n."""
    n, h = model.n, model.h
    d2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
    d4 = sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2],
                  shape=(n, n), format="lil") / h**4
    d4[0, 0] += -1.0 / h**4
    d4[n - 1, n - 1] += -1.0 / h**4
    return sp.csr_matrix(-(d4.tocsr() + d2))


class SolveBandedCNAB2:
    """IMEX-CNAB2 on the grid: Crank-Nicolson on the sparse linear matrix,
    Adams-Bashforth-2 (Euler after ``restart``) on the rest, and a fresh
    banded solve (LAPACK ``dgbsv``) every step."""

    def __init__(self, model, dt):
        self.f = lambda t, u: stencil_rhs(model, u)
        self.dt = dt
        self.L = linear_matrix(model)
        lhs = (sp.eye(self.L.shape[0]) - (dt / 2) * self.L).todia()
        self.lu = (-int(lhs.offsets.min()), int(lhs.offsets.max()))
        self.ab = np.zeros((sum(self.lu) + 1, self.L.shape[0]))
        for offset, diagonal in zip(lhs.offsets, lhs.data):
            self.ab[self.lu[1] - offset] = diagonal
        self.restart()

    def restart(self):
        self.nl_prev = None

    def step(self, t, u):
        dt = self.dt
        nl = self.f(t, u) - (self.L @ u.T).T
        expl = nl if self.nl_prev is None else 1.5 * nl - 0.5 * self.nl_prev
        self.nl_prev = nl
        rhs = u + (dt / 2) * (self.L @ u.T).T + dt * expl
        return solve_banded(self.lu, self.ab, rhs.T).T
