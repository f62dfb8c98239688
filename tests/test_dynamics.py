import numpy as np
import pytest

from kslyap import (DynamicalSystem, IntegrationBlowUp, IntegratorConfig,
                    diagonal_linear_system, integrate, jacobian_trace_average,
                    lorenz_system)


def constant_system(value=0.0, dim=1):
    def rhs(t, u):
        return np.full_like(u, value)
    return DynamicalSystem(dim=dim, rhs=rhs, label="const")


RK4 = IntegratorConfig(dt=0.01, scheme="rk4")


def test_identity_flow():
    u = integrate(constant_system(), np.array([3.5]), 0.0, 10.0, RK4)
    assert u == pytest.approx([3.5])


def test_rk4_exponential_decay():
    u = integrate(diagonal_linear_system([-1.0]), np.array([1.0]), 0.0, 1.0, RK4)
    assert abs(u[0] - np.exp(-1)) < 1e-8


def test_lorenz_stays_bounded():
    system = lorenz_system()
    cfg = IntegratorConfig(dt=0.005, scheme="rk4")
    u = integrate(system, np.array([1.0, 1.0, 1.0]), 0.0, 50.0, cfg)
    assert np.all(np.isfinite(u)) and np.max(np.abs(u)) < 100
    # step-halving agreement at t=1 (3 digits)
    a = integrate(system, np.array([1.0, 1.0, 1.0]), 0.0, 1.0, cfg)
    b = integrate(system, np.array([1.0, 1.0, 1.0]), 0.0, 1.0,
                  IntegratorConfig(dt=0.0025, scheme="rk4"))
    assert np.max(np.abs(a - b)) < 1e-3


def test_rk4_fourth_order():
    system = diagonal_linear_system([-1.0])
    errs = []
    for dt in (0.1, 0.05):
        u = integrate(system, np.array([1.0]), 0.0, 2.0, IntegratorConfig(dt=dt, scheme="rk4"))
        errs.append(abs(u[0] - np.exp(-2)))
    ratio = errs[0] / errs[1]
    assert 16 * 0.8 < ratio < 16 * 1.2


def test_etdrk4_exact_on_linear_problem():
    rates = np.array([-2.0, -0.5, 1.3])
    system = diagonal_linear_system(rates)
    u = integrate(system, np.ones(3), 0.0, 1.0, IntegratorConfig(dt=1.0, scheme="etdrk4"))
    assert np.max(np.abs(u - np.exp(rates))) < 1e-14


@pytest.mark.parametrize("scheme,dt", [("rk4", 0.01), ("etdrk4", 0.01)])
def test_time_additivity(scheme, dt):
    system = diagonal_linear_system([-1.0, 0.2])
    cfg = IntegratorConfig(dt=dt, scheme=scheme)
    u0 = np.array([1.0, 0.5])
    direct = integrate(system, u0, 0.0, 2.0, cfg)
    mid = integrate(system, u0, 0.0, 0.7, cfg)
    split = integrate(system, mid, 0.7, 2.0, cfg)
    assert np.max(np.abs(direct - split)) < 1e-12


def test_partial_final_step():
    system = diagonal_linear_system([-1.0])
    u = integrate(system, np.array([1.0]), 0.0, 1.003, RK4)
    assert abs(u[0] - np.exp(-1.003)) < 1e-8


def test_blow_up_carries_time():
    def rhs(t, u):
        return u * u
    system = DynamicalSystem(dim=1, rhs=rhs)
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(system, np.array([10.0]), 0.0, 1.0, RK4)
    assert 0 < err.value.time <= 1.0


def test_trace_average_constant_jacobian():
    got = jacobian_trace_average(diagonal_linear_system([-1.0]), np.array([2.0]), 3.0, RK4)
    assert abs(got - (-1.0)) < 1e-6


def test_trace_average_zero_field():
    got = jacobian_trace_average(constant_system(dim=2), np.array([1.0, -1.0]), 2.0, RK4)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_trace_average_lorenz():
    got = jacobian_trace_average(lorenz_system(), np.array([1.0, 1.0, 1.0]), 10.0, RK4)
    assert abs(got - (-41.0 / 3.0)) < 1e-2


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, scheme="euler")
    system = lorenz_system()  # no stiff linear part
    with pytest.raises(ValueError):
        integrate(system, np.ones(3), 0.0, 1.0, IntegratorConfig(dt=0.1, scheme="etdrk4"))


def test_batched_matches_sequential():
    system = lorenz_system()
    cfg = IntegratorConfig(dt=0.01, scheme="rk4")
    batch = np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 5.0]])
    together = integrate(system, batch, 0.0, 1.0, cfg)
    singly = np.stack([integrate(system, row, 0.0, 1.0, cfg) for row in batch])
    assert np.array_equal(together, singly)
