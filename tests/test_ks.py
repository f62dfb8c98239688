import numpy as np
import pytest

from kslyap import (DomainSpec, OddPeriodicFDModel,
                    PeriodicSpectralModel, ResolutionTooCoarse,
                    diagonal_linear_system, initial_state, integrate, lorenz_system)
from kslyap.dynamics import _ETDRK4Stepper

DT = 0.05


def test_periodic_mode_count_l22():
    model = PeriodicSpectralModel(DomainSpec(L=22.0))
    assert model.n_modes >= 32
    assert 2 * np.pi * model.n_modes / 22.0 >= 9.0


def test_periodic_zero_is_fixed_point():
    model = PeriodicSpectralModel(DomainSpec(L=22.0))
    assert np.all(model.rhs(0.0, np.zeros(model.dim)) == 0.0)


def test_periodic_neutral_wavenumber():
    # on L = 2*pi the first mode has k=1, where k^2 - k^4 = 0
    model = PeriodicSpectralModel(DomainSpec(L=2 * np.pi))
    assert model.k[1] == pytest.approx(1.0)
    assert model.stiff_linear_part[1] == pytest.approx(0.0, abs=1e-14)


def test_periodic_too_coarse():
    with pytest.raises(ResolutionTooCoarse):
        PeriodicSpectralModel(DomainSpec(L=22.0), n_modes=3)


def test_odd_grid_count_l18():
    model = OddPeriodicFDModel(DomainSpec(L=18.0, bc="odd"))
    assert model.n >= 51
    assert model.h <= np.pi / 9.0


def test_odd_zero_is_fixed_point():
    model = OddPeriodicFDModel(DomainSpec(L=18.0, bc="odd"))
    assert np.all(model.rhs(0.0, np.zeros(model.dim)) == 0.0)


def test_odd_too_coarse():
    with pytest.raises(ResolutionTooCoarse):
        OddPeriodicFDModel(DomainSpec(L=18.0, bc="odd"), n_interior=20)


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec(L=-1.0)
    with pytest.raises(ValueError):
        DomainSpec(L=0.1, k_max_target=9.0)  # 2*pi/L > k_max
    with pytest.raises(ValueError):
        DomainSpec(L=22.0, bc="rigid")


def _sine_mode_rate(n_interior):
    """FD eigenvalue of the slowest sine mode on L = 2*pi."""
    model = OddPeriodicFDModel(DomainSpec(L=2 * np.pi, bc="odd"), n_interior=n_interior)
    amp = 1e-8
    u = amp * np.sin(np.pi * model.x / model.L)
    return np.mean(model.rhs(0.0, u) / u)


def test_odd_sine_eigenvalue_second_order():
    # continuous eigenvalue is (1/2)^2 - (1/2)^4 = 0.1875
    errs = [abs(_sine_mode_rate(n) - 0.1875) for n in (51, 103)]
    assert errs[0] < 0.01
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_starting_frames():
    # odd: the m lowest orthonormal sine vectors, eigenvectors of the linear
    # operator; periodic and oracle systems: the first m coordinate vectors
    model = OddPeriodicFDModel(DomainSpec(L=41.0, bc="odd"))
    Q = model.build_system().initial_frame(12)
    assert Q.shape == (model.n, 12)
    assert np.max(np.abs(Q.T @ Q - np.eye(12))) < 1e-13
    sines = np.sin(np.pi * np.outer(model.x, np.arange(1, 13)) / model.L)
    assert np.allclose(Q, sines / np.linalg.norm(sines, axis=0), rtol=0, atol=1e-14)
    AQ = model.linear_matrix @ Q
    assert np.allclose(AQ, Q * np.sum(Q * AQ, axis=0), rtol=0, atol=1e-9)
    with pytest.raises(ValueError):
        model.sine_frame(model.n + 1)
    for system in (PeriodicSpectralModel(DomainSpec(L=22.0)).build_system(),
                   lorenz_system(), diagonal_linear_system([0.3, -0.1, -2.0])):
        assert np.array_equal(system.initial_frame(2), np.eye(system.dim)[:, :2])


def test_initial_condition_determinism():
    dim = PeriodicSpectralModel(DomainSpec(L=36.0)).dim
    a = initial_state(dim, 0)
    b = initial_state(dim, 0)
    assert np.array_equal(a, b)
    c = initial_state(dim, 1)
    d = initial_state(dim, 2)
    assert np.max(np.abs(c - d)) > 0


def test_initial_condition_moments():
    dim = PeriodicSpectralModel(DomainSpec(L=100.0)).dim
    samples = np.concatenate([initial_state(dim, s) for s in range(35)])
    assert samples.size >= 10_000
    assert abs(samples.mean()) < 0.05
    assert abs(samples.var() - 1.0) < 0.1


def test_field_mean_constant_and_sine():
    model = PeriodicSpectralModel(DomainSpec(L=22.0))
    x = model.L * np.arange(model.grid_size) / model.grid_size
    assert model.field_mean(model.from_physical(np.full(model.grid_size, 2.5))) == pytest.approx(2.5)
    assert model.field_mean(model.from_physical(np.sin(2 * np.pi * x / model.L))) == pytest.approx(0.0, abs=1e-15)


def test_periodic_mean_conservation():
    spec = DomainSpec(L=36.0)
    model = PeriodicSpectralModel(spec)
    u0 = initial_state(model.dim, 3)
    u = integrate(model.build_system(), u0, 0.0, 100.0, DT)
    assert abs(model.field_mean(u) - model.field_mean(u0)) < 1e-6


def test_periodic_preserves_odd_symmetry():
    # odd initial data (purely imaginary spectrum, zero mean) stays odd
    spec = DomainSpec(L=22.0)
    model = PeriodicSpectralModel(spec)
    rng = np.random.default_rng(7)
    state = np.zeros(model.dim)
    state[model.n_modes + 1:] = 0.3 * rng.standard_normal(model.n_modes) * np.exp(
        -0.3 * np.arange(1, model.n_modes + 1))
    u = integrate(model.build_system(), state, 0.0, 10.0, DT)
    _, phys = model.to_physical(u)
    antisym = phys + np.roll(phys[::-1], 1)  # u(x) + u(L-x)
    assert np.max(np.abs(antisym)) < 1e-8


@pytest.mark.parametrize("j", [2, 3, 4])
def test_linear_dispersion_periodic(j):
    spec = DomainSpec(L=22.0)
    model = PeriodicSpectralModel(spec)
    state = np.zeros(model.dim)
    state[j] = 1e-6  # Re c_j
    u = integrate(model.build_system(), state, 0.0, 1.0, DT)
    rate = np.log(abs(u[j]) / 1e-6)
    expected = model.k[j] ** 2 - model.k[j] ** 4
    assert rate == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("j", [2, 3, 4])
def test_linear_dispersion_odd(j):
    spec = DomainSpec(L=18.0, bc="odd")
    model = OddPeriodicFDModel(spec)
    k = np.pi * j / model.L
    state = 1e-6 * np.sin(k * model.x)
    u = integrate(model.build_system(), state, 0.0, 1.0, DT)
    rate = np.log(np.linalg.norm(u) / np.linalg.norm(state))
    assert rate == pytest.approx(k**2 - k**4, rel=0.01, abs=1e-4)


def test_periodic_refinement_consistency():
    spec = DomainSpec(L=22.0)
    coarse = PeriodicSpectralModel(spec)
    fine = PeriodicSpectralModel(spec, n_modes=2 * coarse.n_modes)
    u0 = initial_state(coarse.dim, 5)
    fine_u0 = np.zeros(fine.dim)
    fine_u0[: coarse.n_modes + 1] = u0[: coarse.n_modes + 1]
    fine_u0[fine.n_modes + 1: fine.n_modes + 1 + coarse.n_modes] = u0[coarse.n_modes + 1:]
    a = integrate(coarse.build_system(), u0, 0.0, 10.0, DT)
    b = integrate(fine.build_system(), fine_u0, 0.0, 10.0, DT)
    n_pts = 4 * fine.n_modes
    _, pa = coarse.to_physical(a, n_pts)
    _, pb = fine.to_physical(b, n_pts)
    assert np.max(np.abs(pa - pb)) < 1e-4


def test_odd_boundary_invariants_hold():
    spec = DomainSpec(L=18.0, bc="odd")
    model = OddPeriodicFDModel(spec)
    u0 = initial_state(model.dim, 1)
    u = integrate(model.build_system(), u0, 0.0, 20.0, DT)
    x, full = model.to_physical(u)
    assert full[0] == 0.0 and full[-1] == 0.0
    # u_xx = 0 at the wall under the odd-reflection convention: the
    # reconstructed second difference at x=0 uses u(-h) = -u(h) exactly
    assert (-full[1] - 2 * full[0] + full[1]) == pytest.approx(0.0)


def _complex_rhs(model, state):
    """The periodic RHS by its complex formula: unpack -> irfft -> square ->
    rfft / M -> (k^2 - k^4) c - (ik/2) sq -> pack."""
    n, M, k = model.n_modes, model.grid_size, model.k
    coeffs = state[:, : n + 1].astype(complex)
    coeffs[:, 1:] += 1j * state[:, n + 1 :]
    full = np.zeros((state.shape[0], M // 2 + 1), dtype=complex)
    full[:, : n + 1] = coeffs * M
    u = np.fft.irfft(full, M, axis=-1)
    sq = np.fft.rfft(u * u, axis=-1)[:, : n + 1] / M
    dcoeffs = (k**2 - k**4) * coeffs - 0.5j * k * sq
    return np.concatenate([dcoeffs.real, dcoeffs[:, 1:].imag], axis=-1)


@pytest.mark.parametrize("L", [22.0, 36.0, 60.3, 100.0])
def test_periodic_rhs_matches_the_complex_formula(L):
    model = PeriodicSpectralModel(DomainSpec(L=L))
    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 13, 25):
        block = rng.standard_normal((rows, model.dim))
        got = model.rhs(0.0, block)
        assert np.array_equal(got, _complex_rhs(model, block))
        for row, state in zip(got, block):
            assert row.tobytes() == model.rhs(0.0, state).tobytes()


@pytest.mark.parametrize("L", [22.0, 100.0])
def test_etdrk4_step_matches_the_textbook_expression(L):
    system = PeriodicSpectralModel(DomainSpec(L=L)).build_system()
    stepper = _ETDRK4Stepper(system, DT)
    E, E2, Q = stepper.e_full, stepper.e_half, stepper.q
    f1, f2, f3, lam = stepper.f1, stepper.f2, stepper.f3, system.stiff_linear_part

    def N(t, v):
        return system.rhs(t, v) - lam * v

    t, h = 1.5, DT
    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 13, 25):
        u = 0.5 * rng.standard_normal((rows, system.dim))
        before = u.copy()
        Nu = N(t, u)
        a = E2 * u + Q * Nu
        Na = N(t + h / 2, a)
        b = E2 * u + Q * Na
        Nb = N(t + h / 2, b)
        c = E2 * a + Q * (2 * Nb - Nu)
        Nc = N(t + h, c)
        want = E * u + f1 * Nu + 2 * f2 * (Na + Nb) + f3 * Nc
        got = stepper.step(t, u)
        assert np.array_equal(got, want)
        assert np.array_equal(u, before)
        for row, state in zip(got, u):
            assert row.tobytes() == stepper.step(t, state[None, :])[0].tobytes()


def _stencil_rhs(model, state):
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


@pytest.mark.parametrize("L", [17.5, 41.0, 100.0])
def test_odd_rhs_matches_the_stencil_formula(L):
    model = OddPeriodicFDModel(DomainSpec(L=L, bc="odd"))
    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 13, 25):
        block = rng.standard_normal((rows, model.dim))
        before = block.copy()
        got = model.rhs(0.0, block)
        assert np.array_equal(got, _stencil_rhs(model, block))
        assert np.array_equal(block, before)
        for row, state in zip(got, block):
            assert row.tobytes() == model.rhs(0.0, state).tobytes()
