import numpy as np
import pytest

from kslyap import (DynamicalSystem, IntegrationBlowUp, LyapunovConfig,
                    compute_spectrum, diagonal_linear_system, initial_state, integrate,
                    lorenz_system, make_model)
from kslyap import cli, dynamics
from kslyap.dynamics import (BLOWUP_NORM, _ETDRK4Stepper, _IMEXCNAB2Stepper,
                             _step_count, make_stepper)
from kslyap.sweep import NUMERICS
from odd_fd_reference import SolveBandedCNAB2, to_grid


def constant_system(value=0.0, dim=1):
    def rhs(t, u):
        return np.full_like(u, value)
    return DynamicalSystem(dim=dim, rhs=rhs)


class CrankNicolsonSystem(DynamicalSystem):
    crank_nicolson = True


def explicit_linear_system(rates):
    """du/dt = diag(rates) u declared as all explicit part (lam = 0), so
    that ETDRK4 steps it as classical RK4."""
    rates = np.asarray(rates, dtype=float)
    return DynamicalSystem(dim=rates.size, rhs=lambda t, u: rates * u)


DT = 0.01

STEPPERS = {"etdrk4": _ETDRK4Stepper, "imex_cnab2": _IMEXCNAB2Stepper}


def test_identity_flow():
    u = integrate(constant_system(), np.array([3.5]), 10.0, DT)
    assert u == pytest.approx([3.5])


def test_rk4_exponential_decay():
    u = integrate(explicit_linear_system([-1.0]), np.array([1.0]), 1.0, DT)
    assert abs(u[0] - np.exp(-1)) < 1e-8


def test_lorenz_stays_bounded():
    system = lorenz_system()
    dt = 0.005
    u = integrate(system, np.array([1.0, 1.0, 1.0]), 50.0, dt)
    assert np.all(np.isfinite(u)) and np.max(np.abs(u)) < 100
    # step-halving agreement at t=1 (3 digits)
    a = integrate(system, np.array([1.0, 1.0, 1.0]), 1.0, dt)
    b = integrate(system, np.array([1.0, 1.0, 1.0]), 1.0, dt / 2)
    assert np.max(np.abs(a - b)) < 1e-3


def test_etdrk4_at_zero_rate_is_classical_rk4():
    # with lam = 0, c = a + (h/2)(2 N(b) - N(u)) = u + h N(b), and the update
    # weights are RK4's h/6, h/3, h/3, h/6, each to within 2 ulp
    h = 0.05
    stepper = make_stepper(lorenz_system(), h)
    assert type(stepper) is _ETDRK4Stepper
    assert np.all(stepper.e_full == 1) and np.all(stepper.e_half == 1)
    for got, want in ((stepper.q, h / 2), (stepper.f1, h / 6),
                      (2 * stepper.f2, h / 3), (stepper.f3, h / 6)):
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_etdrk4_at_zero_rate_is_fourth_order():
    # u' = -u^2 all explicit, exact solution u0 / (1 + u0 t): halving dt
    # divides the error by 16
    system = DynamicalSystem(dim=1, rhs=lambda t, u: -u * u)
    errs = []
    for dt in (0.2, 0.1):
        u = integrate(system, np.array([1.0]), 2.0, dt)
        errs.append(abs(u[0] - 1 / 3))
    ratio = errs[0] / errs[1]
    assert 16 * 0.8 < ratio < 16 * 1.2


def test_etdrk4_exact_on_linear_problem():
    rates = np.array([-2.0, -0.5, 1.3])
    system = diagonal_linear_system(rates)
    u = integrate(system, np.ones(3), 1.0, 1.0)
    assert np.max(np.abs(u - np.exp(rates))) < 1e-14


@pytest.mark.parametrize("scheme,dt", [("rk4", 0.01), ("etdrk4", 0.01)])
def test_time_additivity(scheme, dt):
    build = {"rk4": explicit_linear_system, "etdrk4": diagonal_linear_system}[scheme]
    system = build([-1.0, 0.2])
    u0 = np.array([1.0, 0.5])
    direct = integrate(system, u0, 2.0, dt)
    mid = integrate(system, u0, 0.7, dt)
    split = integrate(system, mid, 1.3, dt)
    assert np.max(np.abs(direct - split)) < 1e-12


def test_partial_final_step():
    system = diagonal_linear_system([-1.0])
    u = integrate(system, np.array([1.0]), 1.003, DT)
    assert abs(u[0] - np.exp(-1.003)) < 1e-8


def test_blow_up_carries_time():
    def rhs(t, u):
        return u * u
    system = DynamicalSystem(dim=1, rhs=rhs)
    with pytest.raises(IntegrationBlowUp) as err:
        integrate(system, np.array([10.0]), 1.0, DT)
    assert 0 < err.value.time <= 1.0


# every scheme: ETDRK4 with no linear part (classical RK4) and with a
# diagonal one, and IMEX-CNAB2 (a diagonal one on a system whose class sets
# crank_nicolson)
STIFF_OPERATORS = [("etdrk4", DynamicalSystem, {}),
                   ("etdrk4", DynamicalSystem, {"stiff_linear_part": np.array([-1.0, -2.0])}),
                   ("imex_cnab2", CrankNicolsonSystem,
                    {"stiff_linear_part": np.array([-1.0, -2.0])})]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 10 * BLOWUP_NORM / DT, -10 * BLOWUP_NORM / DT])
def test_blow_up_detects_every_bad_value(bad):
    # from t = 0.5 the RHS of one component of the second row is `bad`: the
    # state turns NaN, infinite or beyond BLOWUP_NORM in the step that first
    # evaluates it, and every scheme reports a blow-up at the end of that
    # step.  ETDRK4 evaluates the RHS at the step's end, so it stops within
    # one step of t = 0.5; IMEX-CNAB2 evaluates it at the step's start, so
    # it stops up to one step later.
    for scheme, cls, operator in STIFF_OPERATORS:
        seen = []

        def rhs(t, u):
            out = np.zeros_like(u)
            if t >= 0.5:
                seen.append(t)
                out[-1, 0] = bad
            return out

        system = cls(dim=2, rhs=rhs, **operator)
        assert type(make_stepper(system, DT)) is STEPPERS[scheme]
        with pytest.raises(IntegrationBlowUp) as err:
            integrate(system, np.ones((2, 2)), 1.0, DT)
        assert seen[0] <= err.value.time <= seen[0] + DT
        steps_late = 2 if scheme == "imex_cnab2" else 1
        assert 0.5 - DT < err.value.time <= 0.5 + steps_late * DT


def test_step_count_walks_whole_steps_within_rounding():
    # 0.3 / 0.05 is 6 only to within rounding: six steps of 0.05 and no
    # remainder step of about 1e-17
    assert 0.3 / 0.05 != 6
    assert _step_count(0.3, 0.05) == (6, 0.0)
    assert _step_count(1.03, 0.05) == (20, pytest.approx(0.03))


def test_simulate_walks_no_remainder_step(tmp_path, monkeypatch, capsys):
    # `kslyap simulate --dt 0.05 --dt-out 0.3 --t-end 500` walks 1666 output
    # intervals of six steps each, up to t = 499.8 (none past t_end)
    walks = []

    def record(system, state, t, dt):
        walks.append(_step_count(t, dt))
        return state

    monkeypatch.setattr(cli, "integrate", record)
    assert cli.main(["simulate", "--L", "22", "--dt", "0.05", "--dt-out", "0.3",
                     "--t-end", "500", "--out", str(tmp_path / "sim.csv")]) == 0
    assert len(walks) == 1666 and set(walks) == {(6, 0.0)}


def test_simulate_builds_one_remainder_stepper(tmp_path, monkeypatch, capsys):
    # `--dt-out 0.33` walks each output interval as six steps and a remainder
    # of about 0.03; every interval is walked from t = 0, so the remainder is
    # the same float each time and its stepper is built once
    built = []

    def counting(system, dt):
        built.append(dt)
        return make_stepper(system, dt)

    monkeypatch.setattr(dynamics, "make_stepper", counting)
    assert cli.main(["simulate", "--bc", "odd", "--L", "22", "--dt", "0.05",
                     "--dt-out", "0.33", "--t-end", "500",
                     "--out", str(tmp_path / "sim.csv")]) == 0
    assert len(built) == 2 and built[0] == 0.05
    assert built[1] == pytest.approx(0.03)


def test_config_validation():
    system = lorenz_system()
    for dt in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(system, np.ones(3), 1.0, dt)
    with pytest.raises(ValueError, match="dim entries"):
        CrankNicolsonSystem(dim=2, rhs=lambda t, u: u, stiff_linear_part=[-1.0])


@pytest.mark.parametrize("bc", ["periodic", "odd"])
def test_ks_system_steps_with_its_numerics_scheme(bc):
    system = make_model(bc, 22.0)
    stepper = make_stepper(system, 0.05)
    expected = _ETDRK4Stepper if bc == "periodic" else _IMEXCNAB2Stepper
    assert type(stepper) is expected
    assert type(stepper) is STEPPERS[NUMERICS[bc]["scheme"]]


def test_batched_matches_sequential():
    system = lorenz_system()
    batch = np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 5.0]])
    together = integrate(system, batch, 1.0, DT)
    singly = np.stack([integrate(system, row, 1.0, DT) for row in batch])
    assert np.array_equal(together, singly)


@pytest.mark.parametrize("bc, Ls", [("periodic", [99.9, 100.0]), ("odd", [41.0, 41.05])])
def test_lockstep_coefficients_are_each_members_own(bc, Ls):
    # a contour mean over a stacked lam rounds otherwise at L=100, so each
    # member's coefficients are built alone
    models = [make_model(bc, L) for L in Ls]
    stacked = make_stepper(make_model(bc, Ls), 0.05)
    names = (("e_full", "e_half", "q", "f1", "f2", "f3") if bc == "periodic"
             else ("gain", "inv"))
    for g, model in enumerate(models):
        alone = make_stepper(model, 0.05)
        for name in names:
            assert np.array_equal(getattr(stacked, name)[g, 0], getattr(alone, name))


def test_stepper_built_once_per_system_and_step(monkeypatch):
    built = []

    def counting(system, dt):
        built.append((system, dt))
        return make_stepper(system, dt)

    monkeypatch.setattr(dynamics, "make_stepper", counting)
    cfg = LyapunovConfig(m=3, tau=1.0, T=0.5, N=4, dt=0.05)
    systems = [make_model(bc, 22.0) for bc in ("periodic", "odd")]
    for system in systems:
        compute_spectrum(system, cfg)
    assert built == [(system, 0.05) for system in systems]


def _wrapped_periodic_model():
    """The periodic L=22 model's rhs (its explicit part) as a wrapped
    function with its stiff part."""
    model = make_model("periodic", 22.0)
    return DynamicalSystem(dim=model.dim, rhs=model.rhs,
                           stiff_linear_part=model.stiff_linear_part)


@pytest.mark.parametrize("bc, per_step", [("periodic", 4), ("odd", 1), ("wrapped", 4)])
def test_steppers_evaluate_through_rhs_batch(monkeypatch, bc, per_step):
    # ETDRK4 evaluates its system 4 times a step and IMEX-CNAB2 once, each
    # time by DynamicalSystem.rhs_batch with the states as its third
    # positional argument; a tracer that wraps that method and reads
    # args[2] counts every evaluation of every step.  rhs_batch is rhs, and
    # a wrapped model's rhs has the bits of the model's own.
    seen = []
    rhs_batch = DynamicalSystem.rhs_batch

    def counting(*args, **kwargs):
        seen.append(args[2].shape)
        return rhs_batch(*args, **kwargs)

    monkeypatch.setattr(DynamicalSystem, "rhs_batch", counting)
    system = _wrapped_periodic_model() if bc == "wrapped" else make_model(bc, 22.0)
    block = 0.1 * np.random.default_rng(0).standard_normal((13, system.dim))
    integrate(system, block, 5 * 0.05, 0.05)
    integrate(system, block[0], 3 * 0.05, 0.05)
    assert seen == [block.shape] * 5 * per_step + [(1, system.dim)] * 3 * per_step
    got = system.rhs_batch(0.0, block)
    assert got.tobytes() == system.rhs(0.0, block).tobytes()
    if bc == "wrapped":
        assert got.tobytes() == make_model("periodic", 22.0).rhs(0.0, block).tobytes()


def _odd_system():
    return make_model("odd", 22.0)


def test_reused_stepper_restarts_its_history():
    # IMEX-CNAB2 keeps an Adams-Bashforth history; a walk on a system that
    # has stepped before equals one on a newly built system, bit for bit,
    # whatever batch shape and remainder step came before
    system = _odd_system()
    u = 0.1 * initial_state(system, 1)
    block = u + 1e-3 * np.random.default_rng(0).standard_normal((25, system.dim))
    for _ in range(2):
        for state, t1 in ((u, 1.0), (block, 1.0), (u, 1.03), (block, 1.03)):
            got = integrate(system, state, t1, DT)
            want = integrate(_odd_system(), state, t1, DT)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("L", [17.5, 41.0, 100.0])
def test_cnab2_step_matches_the_solve_banded_reference(L):
    # the diagonal step in sine coordinates, mapped to the grid, takes the
    # finite-difference step with a banded Crank-Nicolson solve: 40 steps
    # from the Euler step on, twice, with a restart in between
    model = make_model("odd", L)
    stepper = make_stepper(model, 0.05)
    reference = SolveBandedCNAB2(model, 0.05)
    assert type(stepper) is _IMEXCNAB2Stepper
    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 25):
        u = rng.standard_normal((rows, model.dim))
        a = to_grid(u)
        for _ in range(2):
            stepper.restart()
            reference.restart()
            for k in range(40):
                before = a.copy()
                got = stepper.step(0.05 * k, a)
                assert np.array_equal(a, before)
                a, u = got, reference.step(0.05 * k, u)
                assert np.max(np.abs(to_grid(a) - u)) <= 1e-12 * np.max(np.abs(u))
