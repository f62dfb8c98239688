import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded

from kslyap import (DomainSpec, DynamicalSystem, IntegrationBlowUp, LyapunovConfig,
                    compute_spectrum, diagonal_linear_system, initial_state, integrate,
                    jacobian_trace_average, lorenz_system, make_model)
from kslyap import cli, dynamics
from kslyap.dynamics import (BLOWUP_NORM, _ETDRK4Stepper, _IMEXCNAB2Stepper,
                             _RK4Stepper, _step_count, make_stepper)
from kslyap.sweep import NUMERICS


def constant_system(value=0.0, dim=1):
    def rhs(t, u):
        return np.full_like(u, value)
    return DynamicalSystem(dim=dim, rhs=rhs, label="const")


def stiff_diagonal_system(rates):
    """du/dt = diag(rates) u declared as a stiff diagonal part (run by ETDRK4)."""
    rates = np.asarray(rates, dtype=float)
    return DynamicalSystem(dim=rates.size, rhs=lambda t, u: rates * u,
                           stiff_linear_part=rates)


DT = 0.01

STEPPERS = {"rk4": _RK4Stepper, "etdrk4": _ETDRK4Stepper,
            "imex_cnab2": _IMEXCNAB2Stepper}


def test_identity_flow():
    u = integrate(constant_system(), np.array([3.5]), 0.0, 10.0, DT)
    assert u == pytest.approx([3.5])


def test_rk4_exponential_decay():
    u = integrate(diagonal_linear_system([-1.0]), np.array([1.0]), 0.0, 1.0, DT)
    assert abs(u[0] - np.exp(-1)) < 1e-8


def test_lorenz_stays_bounded():
    system = lorenz_system()
    dt = 0.005
    u = integrate(system, np.array([1.0, 1.0, 1.0]), 0.0, 50.0, dt)
    assert np.all(np.isfinite(u)) and np.max(np.abs(u)) < 100
    # step-halving agreement at t=1 (3 digits)
    a = integrate(system, np.array([1.0, 1.0, 1.0]), 0.0, 1.0, dt)
    b = integrate(system, np.array([1.0, 1.0, 1.0]), 0.0, 1.0, dt / 2)
    assert np.max(np.abs(a - b)) < 1e-3


def test_rk4_fourth_order():
    system = diagonal_linear_system([-1.0])
    errs = []
    for dt in (0.1, 0.05):
        u = integrate(system, np.array([1.0]), 0.0, 2.0, dt)
        errs.append(abs(u[0] - np.exp(-2)))
    ratio = errs[0] / errs[1]
    assert 16 * 0.8 < ratio < 16 * 1.2


def test_etdrk4_exact_on_linear_problem():
    rates = np.array([-2.0, -0.5, 1.3])
    system = stiff_diagonal_system(rates)
    u = integrate(system, np.ones(3), 0.0, 1.0, 1.0)
    assert np.max(np.abs(u - np.exp(rates))) < 1e-14


@pytest.mark.parametrize("scheme,dt", [("rk4", 0.01), ("etdrk4", 0.01)])
def test_time_additivity(scheme, dt):
    build = {"rk4": diagonal_linear_system, "etdrk4": stiff_diagonal_system}[scheme]
    system = build([-1.0, 0.2])
    u0 = np.array([1.0, 0.5])
    direct = integrate(system, u0, 0.0, 2.0, dt)
    mid = integrate(system, u0, 0.0, 0.7, dt)
    split = integrate(system, mid, 0.7, 2.0, dt)
    assert np.max(np.abs(direct - split)) < 1e-12


def test_partial_final_step():
    system = diagonal_linear_system([-1.0])
    u = integrate(system, np.array([1.0]), 0.0, 1.003, DT)
    assert abs(u[0] - np.exp(-1.003)) < 1e-8


def test_blow_up_carries_time():
    def rhs(t, u):
        return u * u
    system = DynamicalSystem(dim=1, rhs=rhs)
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(system, np.array([10.0]), 0.0, 1.0, DT)
    assert 0 < err.value.time <= 1.0


# every scheme: RK4 (no stiff operator), ETDRK4 (a diagonal one) and
# IMEX-CNAB2 (a banded matrix)
STIFF_OPERATORS = {"rk4": {},
                   "etdrk4": {"stiff_linear_part": np.array([-1.0, -2.0])},
                   "imex_cnab2": {"stiff_linear_matrix": sp.diags(
                       [[0.5], [-1.0, -2.0], [0.5]], [-1, 0, 1], format="csr")}}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 10 * BLOWUP_NORM / DT, -10 * BLOWUP_NORM / DT])
def test_blow_up_detects_every_bad_value(bad):
    # from t = 0.5 the RHS of one component of the second row is `bad`: the
    # state turns NaN, infinite or beyond BLOWUP_NORM in the step that first
    # evaluates it, and every scheme reports a blow-up at the end of that
    # step.  RK4 and ETDRK4 evaluate the RHS at the step's end, so they stop
    # within one step of t = 0.5; IMEX-CNAB2 evaluates it at the step's
    # start, so it stops up to one step later.
    for scheme, operator in STIFF_OPERATORS.items():
        seen = []

        def rhs(t, u):
            out = np.zeros_like(u)
            if t >= 0.5:
                seen.append(t)
                out[-1, 0] = bad
            return out

        system = DynamicalSystem(dim=2, rhs=rhs, **operator)
        assert type(make_stepper(system, DT)) is STEPPERS[scheme]
        with pytest.raises(IntegrationBlowUp) as err:
            integrate(system, np.ones((2, 2)), 0.2, 1.0, DT)
        assert seen[0] <= err.value.time <= seen[0] + DT
        steps_late = 2 if scheme == "imex_cnab2" else 1
        assert 0.5 - DT < err.value.time <= 0.5 + steps_late * DT


def test_step_count_walks_whole_steps_away_from_zero():
    # 5.4 - 5.1 is 0.3 only to within the rounding of 5.4: six steps of 0.05
    # and no remainder step of about 1e-15
    assert _step_count(5.1, 5.4, 0.05) == (6, 0.0)
    assert _step_count(0.0, 1.03, 0.05) == (20, pytest.approx(0.03))


def test_simulate_walks_no_remainder_step(tmp_path, monkeypatch, capsys):
    # `kslyap simulate --dt 0.05 --dt-out 0.3 --t-end 500` walks 1667 output
    # intervals of six steps each
    walks = []

    def record(system, state, t0, t1, dt):
        walks.append(_step_count(t0, t1, dt))
        return state

    monkeypatch.setattr(cli, "integrate", record)
    assert cli.main(["simulate", "--L", "22", "--dt", "0.05", "--dt-out", "0.3",
                     "--t-end", "500", "--out", str(tmp_path / "sim.csv")]) == 0
    assert len(walks) == 1667 and set(walks) == {(6, 0.0)}


def test_trace_average_constant_jacobian():
    got = jacobian_trace_average(diagonal_linear_system([-1.0]), np.array([2.0]), 3.0, DT)
    assert abs(got - (-1.0)) < 1e-6


def test_trace_average_zero_field():
    got = jacobian_trace_average(constant_system(dim=2), np.array([1.0, -1.0]), 2.0, DT)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_trace_average_lorenz():
    got = jacobian_trace_average(lorenz_system(), np.array([1.0, 1.0, 1.0]), 10.0, DT)
    assert abs(got - (-41.0 / 3.0)) < 1e-2


def test_config_validation():
    system = lorenz_system()
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            integrate(system, np.ones(3), 0.0, 1.0, dt)
        with pytest.raises(ValueError):
            jacobian_trace_average(system, np.ones(3), 1.0, dt)


@pytest.mark.parametrize("bc", ["periodic", "odd"])
def test_ks_system_steps_with_its_numerics_scheme(bc):
    system = make_model(DomainSpec(L=22.0, bc=bc)).build_system()
    stepper = make_stepper(system, 0.05)
    expected = _ETDRK4Stepper if bc == "periodic" else _IMEXCNAB2Stepper
    assert type(stepper) is expected
    assert type(stepper) is STEPPERS[NUMERICS[bc]["scheme"]]


@pytest.mark.parametrize("system", [lorenz_system(), diagonal_linear_system([0.3, -1.0])],
                         ids=["lorenz", "diaglin"])
def test_oracle_systems_step_with_rk4(system):
    assert type(make_stepper(system, 0.01)) is _RK4Stepper


def test_batched_matches_sequential():
    system = lorenz_system()
    batch = np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 5.0]])
    together = integrate(system, batch, 0.0, 1.0, DT)
    singly = np.stack([integrate(system, row, 0.0, 1.0, DT) for row in batch])
    assert np.array_equal(together, singly)


def test_stepper_built_once_per_system_and_step(monkeypatch):
    built = []

    def counting(system, dt):
        built.append((system.label, dt))
        return make_stepper(system, dt)

    monkeypatch.setattr(dynamics, "make_stepper", counting)
    cfg = LyapunovConfig(m=3, tau=1.0, T=0.5, N=4, dt=0.05)
    labels = []
    for bc in ("periodic", "odd"):
        system = make_model(DomainSpec(L=22.0, bc=bc)).build_system()
        labels.append(system.label)
        u = compute_spectrum(system, cfg).final_state
        jacobian_trace_average(system, u, 0.1, 0.05)
    assert built == [(label, 0.05) for label in labels]


def _odd_system():
    return make_model(DomainSpec(L=22.0, bc="odd")).build_system()


def test_reused_stepper_restarts_its_history():
    # IMEX-CNAB2 keeps an Adams-Bashforth history; a walk on a system that
    # has stepped before equals one on a newly built system, bit for bit,
    # whatever batch shape and remainder step came before
    system = _odd_system()
    u = 0.1 * initial_state(system.dim, 1)
    block = u + 1e-3 * np.random.default_rng(0).standard_normal((25, system.dim))
    for _ in range(2):
        for state, t1 in ((u, 1.0), (block, 1.0), (u, 1.03), (block, 1.03)):
            got = integrate(system, state, 0.0, t1, DT)
            want = integrate(_odd_system(), state, 0.0, t1, DT)
            assert got.tobytes() == want.tobytes()


class _SolveBandedCNAB2:
    """IMEX-CNAB2 as it stepped before its matrix was factored once: two
    sparse products ``L u`` and a fresh ``scipy.linalg.solve_banded`` (LAPACK
    ``dgbsv``) every step."""

    def __init__(self, system, dt):
        self.f, self.dt = system.rhs_batch, dt
        self.L = sp.csr_matrix(system.stiff_linear_matrix)
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


@pytest.mark.parametrize("L", [17.5, 41.0, 100.0])
def test_cnab2_step_matches_the_solve_banded_reference(L):
    system = make_model(DomainSpec(L=L, bc="odd")).build_system()
    stepper, reference = _IMEXCNAB2Stepper(system, 0.05), _SolveBandedCNAB2(system, 0.05)
    assert (stepper._lo, stepper._up) == reference.lu == (2, 2)
    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 13, 25):
        u = rng.standard_normal((rows, system.dim))
        for restart in range(2):
            stepper.restart()
            reference.restart()
            # the Euler step, then Adams-Bashforth-2 steps
            for k in range(4):
                before = u.copy()
                got, want = stepper.step(0.05 * k, u), reference.step(0.05 * k, u)
                assert np.array_equal(got, want)
                assert np.array_equal(u, before)
                u = got
