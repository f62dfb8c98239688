import numpy as np
import pytest

from kslyap import (DomainSpec, DynamicalSystem, IntegrationBlowUp,
                    diagonal_linear_system, integrate, jacobian_trace_average,
                    lorenz_system, make_model)
from kslyap.dynamics import (_ETDRK4Stepper, _IMEXCNAB2Stepper, _RK4Stepper,
                             make_stepper)
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


STEPPERS = {"rk4": _RK4Stepper, "etdrk4": _ETDRK4Stepper,
            "imex_cnab2": _IMEXCNAB2Stepper}


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
