import numpy as np
import pytest

from kslyap import (LyapunovConfig, OddPeriodicFDModel,
                    PeriodicSpectralModel, ResolutionTooCoarse, compute_spectrum,
                    diagonal_linear_system, initial_state, integrate, lorenz_system,
                    make_model)
from kslyap import ks, lyapunov
from kslyap.dynamics import _ETDRK4Stepper, _IMEXCNAB2Stepper
from odd_fd_reference import linear_matrix, stencil_rhs, to_grid

DT = 0.05


def ks_rhs(model, state):
    """The KS right-hand side f = lam state + N(state) of a model, from its
    diagonal linear part and its explicit part ``rhs``."""
    return model.rhs(0.0, state) + model.stiff_linear_part * state


def test_periodic_mode_count_l22():
    model = PeriodicSpectralModel(22.0)
    assert model.n_modes >= 32
    assert 2 * np.pi * model.n_modes / 22.0 >= 9.0


def test_periodic_zero_is_fixed_point():
    model = PeriodicSpectralModel(22.0)
    assert np.all(ks_rhs(model, np.zeros(model.dim)) == 0.0)


def test_periodic_neutral_wavenumber():
    # on L = 2*pi the first mode has k=1, where k^2 - k^4 = 0
    model = PeriodicSpectralModel(2 * np.pi)
    assert model.k[1] == pytest.approx(1.0)
    assert model.stiff_linear_part[1] == pytest.approx(0.0, abs=1e-14)


def test_periodic_too_coarse():
    # ceil(0.8 * 22 / (2 pi)) = 3 modes
    with pytest.raises(ResolutionTooCoarse, match="n_modes=3 < 4"):
        PeriodicSpectralModel(22.0, k_max=0.8)


def test_odd_grid_count_l18():
    model = OddPeriodicFDModel(18.0)
    assert model.n >= 51
    assert model.h <= np.pi / 9.0


def test_odd_zero_is_fixed_point():
    model = OddPeriodicFDModel(18.0)
    assert np.all(ks_rhs(model, np.zeros(model.dim)) == 0.0)


def test_make_model_validation():
    with pytest.raises(ValueError, match="L must be positive"):
        make_model("periodic", -1.0)
    with pytest.raises(ValueError, match="L must be positive"):
        make_model("odd", [41.0, 0.0])
    # each model's floor, refused by its constructor
    with pytest.raises(ResolutionTooCoarse, match="n_modes=1 < 4"):
        make_model("periodic", 0.1, k_max=9.0)
    with pytest.raises(ResolutionTooCoarse, match="n_interior=0 < 2"):
        make_model("odd", 0.3, k_max=9.0)
    with pytest.raises(ResolutionTooCoarse, match="n_interior=1 < 2"):
        make_model("odd", 0.4, k_max=9.0)  # the flux stencil needs n >= 2
    for k_max in (0.0, -1.0):
        with pytest.raises(ResolutionTooCoarse, match=r"n_interior=-\d+ < 2"):
            make_model("odd", 22.0, k_max=k_max)
    assert make_model("odd", 0.7, k_max=9.0).n == 2
    with pytest.raises(ValueError, match="bc must be"):
        make_model("rigid", 22.0)


@pytest.mark.parametrize("bc, L, k_max, message", [
    ("periodic", np.inf, 9.0, "L must be positive and finite"),
    ("odd", [41.0, np.nan], 9.0, "L must be positive and finite"),
    ("periodic", 22.0, np.inf, "k_max=inf must be finite"),
    ("odd", 41.0, np.nan, "k_max=nan must be finite")])
def test_make_model_refuses_non_finite_values(bc, L, k_max, message):
    with pytest.raises(ValueError, match=message):
        make_model(bc, L, k_max)


def _sine_mode_rate(n):
    """FD eigenvalue of the slowest sine mode on L = 2*pi, n interior points."""
    model = OddPeriodicFDModel(2 * np.pi, k_max=(n + 0.5) / 2)
    assert model.n == n
    amp = 1e-8
    u = amp * np.sin(np.pi * model.x / model.L)
    return np.mean(to_grid(ks_rhs(model, to_grid(u))) / u)


def test_odd_sine_eigenvalue_second_order():
    # continuous eigenvalue is (1/2)^2 - (1/2)^4 = 0.1875
    errs = [abs(_sine_mode_rate(n) - 0.1875) for n in (51, 103)]
    assert errs[0] < 0.01
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_starting_frames(monkeypatch):
    # every system starts from its first m coordinate vectors; on the odd
    # model's grid these are the m lowest orthonormal sine vectors,
    # eigenvectors of the finite-difference linear operator
    frames = []

    def spy(system, u, Q, *args):
        frames.append(Q.copy())
        return propagate(system, u, Q, *args)

    propagate = lyapunov.propagate_frame
    monkeypatch.setattr(lyapunov, "propagate_frame", spy)
    model = OddPeriodicFDModel(41.0)
    systems = [(model, 12, 0.05),
               (PeriodicSpectralModel(22.0), 2, 0.05),
               (lorenz_system(), 2, 0.005),
               (diagonal_linear_system([0.3, -0.1, -2.0]), 2, 0.01)]
    for system, m, dt in systems:
        compute_spectrum(system, LyapunovConfig(m=m, tau=0.0, T=dt, N=1, dt=dt))
        assert np.array_equal(frames.pop(), np.eye(system.dim)[:, :m])
    Q = to_grid(np.eye(model.n)[:, :12], axis=0)
    assert np.max(np.abs(Q.T @ Q - np.eye(12))) < 1e-13
    sines = np.sin(np.pi * np.outer(model.x, np.arange(1, 13)) / model.L)
    assert np.allclose(Q, sines / np.linalg.norm(sines, axis=0), rtol=0, atol=1e-14)
    AQ = linear_matrix(model) @ Q
    assert np.allclose(AQ, Q * np.sum(Q * AQ, axis=0), rtol=0, atol=1e-9)


@pytest.mark.parametrize("bc, Ls", [("periodic", [21.7, 21.8, 22.0]),
                                     ("odd", [41.0, 41.05])])
def test_stacked_rhs_rows_equal_each_members_rhs(bc, Ls):
    models = [make_model(bc, L) for L in Ls]
    system = make_model(bc, Ls)
    assert system.stiff_linear_part.shape == (len(Ls), 1, system.dim)
    block = np.stack([[initial_state(system, 10 * g + r) for r in range(3)]
                      for g in range(len(Ls))])
    out = system.rhs(0.0, block)
    for g, model in enumerate(models):
        assert np.array_equal(out[g], model.rhs(0.0, block[g]))


@pytest.mark.parametrize("bc, Ls", [("periodic", [21.7, 21.8, 22.0]),
                                     ("odd", [41.0, 41.05])])
def test_a_lockstep_system_holds_every_members_domain(bc, Ls):
    system = make_model(bc, Ls)
    assert system.L.shape == (len(Ls), 1, 1)
    assert system.L.ravel().tolist() == Ls
    for g, L in enumerate(Ls):
        model = make_model(bc, L)
        assert np.array_equal(system.stiff_linear_part[g, 0], model.stiff_linear_part)
        if bc == "periodic":
            assert np.array_equal(system.k[g, 0], model.k)
        else:
            assert system.h[g, 0, 0] == model.h
            assert np.array_equal(system.x[g, 0], model.x)


@pytest.mark.parametrize("bc, Ls, name", [("periodic", [21.7, 23.0], "n_modes"),
                                          ("odd", [41.0, 41.5], "n_interior"),
                                          ("periodic", [30.0, 21.7, 23.0, 21.7], "n_modes")])
def test_make_model_refuses_lengths_of_another_resolution(bc, Ls, name):
    # the message lists each resolution the lengths need once, in order
    need = sorted({getattr(make_model(bc, L), "n_modes" if bc == "periodic" else "n")
                   for L in Ls})
    with pytest.raises(ValueError) as err:
        make_model(bc, Ls)
    assert str(err.value) == (f"one lockstep system needs one {name}; "
                              f"its lengths need {', '.join(map(str, need))}")


def test_initial_condition_determinism():
    model = PeriodicSpectralModel(36.0)
    a = initial_state(model, 0)
    b = initial_state(model, 0)
    assert np.array_equal(a, b)
    c = initial_state(model, 1)
    d = initial_state(model, 2)
    assert np.max(np.abs(c - d)) > 0


def test_initial_condition_moments():
    # both models start with unit variance at every point of their physical
    # grid: the periodic coordinates have variance 1/(1 + 4n), and the odd
    # start is the standard-normal draw itself (its DST-I is orthonormal)
    odd = OddPeriodicFDModel(100.0)
    for s in range(3):
        draw = np.random.Generator(np.random.PCG64(s)).standard_normal(odd.dim)
        assert initial_state(odd, s).tobytes() == draw.tobytes()
    for model in (PeriodicSpectralModel(100.0), odd):
        # (the odd field's boundary zeros left out)
        fields = np.stack([model.to_physical(initial_state(model, s))[1][1:-1]
                           for s in range(35)])
        assert fields.size >= 10_000
        assert abs(fields.mean()) < 0.05
        assert abs(fields.var() - 1.0) < 0.1


def test_field_mean_constant_and_sine():
    model = PeriodicSpectralModel(22.0)
    constant = np.zeros(model.dim)
    constant[0] = 2.5
    sine = np.zeros(model.dim)
    sine[model.n_modes + 1] = -0.5  # Im c_1: u = sin(2 pi x / L)
    _, u = model.to_physical(constant)
    assert model.field_mean(constant) == 2.5 and np.allclose(u, 2.5, rtol=0, atol=1e-14)
    x, u = model.to_physical(sine)
    assert np.allclose(u, np.sin(2 * np.pi * x / model.L), rtol=0, atol=1e-14)
    assert model.field_mean(sine) == 0.0 and abs(np.mean(u)) < 1e-15


def test_periodic_mean_conservation():
    model = PeriodicSpectralModel(36.0)
    u0 = initial_state(model, 3)
    u = integrate(model, u0, 100.0, DT)
    assert abs(model.field_mean(u) - model.field_mean(u0)) < 1e-6


def test_periodic_preserves_odd_symmetry():
    # odd initial data (purely imaginary spectrum, zero mean) stays odd
    model = PeriodicSpectralModel(22.0)
    rng = np.random.default_rng(7)
    state = np.zeros(model.dim)
    state[model.n_modes + 1:] = 0.3 * rng.standard_normal(model.n_modes) * np.exp(
        -0.3 * np.arange(1, model.n_modes + 1))
    u = integrate(model, state, 10.0, DT)
    _, phys = model.to_physical(u)
    antisym = phys + np.roll(phys[::-1], 1)  # u(x) + u(L-x)
    assert np.max(np.abs(antisym)) < 1e-8


@pytest.mark.parametrize("j", [2, 3, 4])
def test_linear_dispersion_periodic(j):
    model = PeriodicSpectralModel(22.0)
    state = np.zeros(model.dim)
    state[j] = 1e-6  # Re c_j
    u = integrate(model, state, 1.0, DT)
    rate = np.log(abs(u[j]) / 1e-6)
    expected = model.k[j] ** 2 - model.k[j] ** 4
    assert rate == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("j", [2, 3, 4])
def test_linear_dispersion_odd(j):
    model = OddPeriodicFDModel(18.0)
    k = np.pi * j / model.L
    state = 1e-6 * np.sin(k * model.x)
    a = integrate(model, to_grid(state), 1.0, DT)
    rate = np.log(np.linalg.norm(to_grid(a)) / np.linalg.norm(state))
    assert rate == pytest.approx(k**2 - k**4, rel=0.01, abs=1e-4)


def test_periodic_refinement_consistency():
    coarse = PeriodicSpectralModel(22.0)
    fine = PeriodicSpectralModel(22.0, k_max=18.0)
    assert fine.n_modes == 2 * coarse.n_modes
    assert fine.grid_size == 2 * coarse.grid_size
    u0 = initial_state(coarse, 5)
    fine_u0 = np.zeros(fine.dim)
    fine_u0[: coarse.n_modes + 1] = u0[: coarse.n_modes + 1]
    fine_u0[fine.n_modes + 1: fine.n_modes + 1 + coarse.n_modes] = u0[coarse.n_modes + 1:]
    a = integrate(coarse, u0, 10.0, DT)
    b = integrate(fine, fine_u0, 10.0, DT)
    # the coarse grid is every other point of the fine one
    _, pa = coarse.to_physical(a)
    _, pb = fine.to_physical(b)
    assert np.max(np.abs(pa - pb[::2])) < 1e-4


def test_odd_boundary_invariants_hold():
    model = OddPeriodicFDModel(18.0)
    u0 = initial_state(model, 1)
    u = integrate(model, u0, 20.0, DT)
    x, full = model.to_physical(u)
    assert full[0] == 0.0 and full[-1] == 0.0
    # u_xx = 0 at the wall under the odd-reflection convention: the
    # reconstructed second difference at x=0 uses u(-h) = -u(h) exactly
    assert (-full[1] - 2 * full[0] + full[1]) == pytest.approx(0.0)


def _complex_rhs(model, state):
    """The periodic RHS by its complex formula, the FFT pair forward-
    normalized: unpack -> irfft -> square -> rfft -> the quadratic term
    N = -(ik/2) sq and f = (k^2 - k^4) c + N -> pack.  Returns (f, N)."""
    n, M, k = model.n_modes, model.grid_size, model.k
    coeffs = state[:, : n + 1].astype(complex)
    coeffs[:, 1:] += 1j * state[:, n + 1 :]
    full = np.zeros((state.shape[0], M // 2 + 1), dtype=complex)
    full[:, : n + 1] = coeffs
    u = np.fft.irfft(full, M, axis=-1, norm="forward")
    sq = np.fft.rfft(u * u, axis=-1, norm="forward")[:, : n + 1]
    quadratic = -0.5j * k * sq
    dcoeffs = (k**2 - k**4) * coeffs + quadratic
    return tuple(np.concatenate([z.real, z[:, 1:].imag], axis=-1)
                 for z in (dcoeffs, quadratic))


def _public_fft_rhs(model, block):
    """The periodic quadratic term in the model's real arithmetic, through
    np.fft.irfft and np.fft.rfft with ``norm="forward"``: signed zeros
    included, the bits of its kernels.  (The complex formula rounds alike
    but can give -0 where the model gives +0.)"""
    n, M, half_k = model.n_modes, model.grid_size, 0.5 * model.k
    spectrum = np.zeros(block.shape[:-1] + (M // 2 + 1,), dtype=complex)
    spectrum.real[..., : n + 1] = block[..., : n + 1]
    spectrum.imag[..., 1 : n + 1] = block[..., n + 1 :]
    u = np.fft.irfft(spectrum, M, axis=-1, norm="forward")
    sq = np.fft.rfft(u * u, axis=-1, norm="forward")
    quadratic = np.concatenate([sq.imag[..., : n + 1] * half_k,
                                sq.real[..., 1 : n + 1] * -half_k[..., 1:]], axis=-1)
    return quadratic


LOCKSTEP = [21.7, 21.8, 21.9]


def _members(L):
    """The lockstep system of L (one length or a sequence), its block's
    leading member axis, and each member's own model."""
    members = [PeriodicSpectralModel(x) for x in np.ravel(L)]
    return make_model("periodic", L), (() if np.ndim(L) == 0 else (len(members),)), members


def _second_call_changes_nothing(call, block, results):
    """A second call of one block shape on other states leaves the first
    call's results and its input as they were: no returned array shares
    memory with the work arrays the model or stepper reuses."""
    kept = [r.copy() for r in results]
    before = block.copy()
    call(np.random.default_rng(1).standard_normal(block.shape))
    for r, k in zip(results, kept):
        assert r.tobytes() == k.tobytes()
    assert block.tobytes() == before.tobytes()


@pytest.mark.parametrize("L", [22.0, 36.0, 60.3, 100.0, LOCKSTEP])
def test_periodic_rhs_matches_the_complex_formula(L):
    # the model's N is the packed quadratic term of the complex formula, and
    # lam v + N is its f, for a (rows, dim) block, a lockstep (G, rows, dim)
    # block and a (dim,) state, each row with the bits of its own model
    model, lead, members = _members(L)
    rng = np.random.default_rng(int(10 * np.max(L)))
    for rows in (1, 13, 25):
        block = rng.standard_normal(lead + (rows, model.dim))
        before = block.copy()
        got = model.rhs(0.0, block)
        want = [np.reshape(w, block.shape) for w in zip(*(
            _complex_rhs(m, b) for m, b in zip(members, block.reshape(-1, rows, model.dim))))]
        assert np.array_equal(ks_rhs(model, block), want[0])
        assert np.array_equal(got, want[1])
        assert np.array_equal(block, before)
        _second_call_changes_nothing(lambda other: [model.rhs(0.0, other)], block, [got])
        for m, n, states in zip(members, got.reshape(-1, rows, model.dim),
                                block.reshape(-1, rows, model.dim)):
            for n_row, state in zip(n, states):
                assert n_row.tobytes() == m.rhs(0.0, state).tobytes()


def _truncated_convolution(model, state):
    """The periodic quadratic term by its O(n^2) definition, without a
    grid: -(ik/2) sum_{p+q=k} c_p c_q over the retained band |p|, |q| <= n,
    with c_{-p} = conj(c_p); packed like the state."""
    n = model.n_modes
    c = state[: n + 1].astype(complex)
    c[1:] += 1j * state[n + 1 :]
    full = np.concatenate([np.conj(c[:0:-1]), c])  # c_{-n} .. c_n
    conv = np.array([sum(full[p + n] * full[k - p + n]
                         for p in range(max(-n, k - n), min(n, k + n) + 1))
                     for k in range(n + 1)])
    quadratic = -0.5j * model.k * conv
    return np.concatenate([quadratic.real, quadratic[1:].imag])


@pytest.mark.parametrize("L, n, M", [(3.2, 5, 16), (30.5, 44, 135),
                                     (22.0, 32, 100), (100.0, 144, 450)])
def test_periodic_quadratic_term_is_the_alias_free_convolution(L, n, M):
    # the padded grid makes the product exact on the retained band: at
    # n = 5 the grid M = 16 is exactly 3n + 1, and M = 135 is odd
    model = make_model("periodic", L)
    assert (model.n_modes, model.grid_size) == (n, M)
    rng = np.random.default_rng(n)
    for state in rng.standard_normal((3, model.dim)):
        got = model.rhs(0.0, state)
        want = _truncated_convolution(model, state)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_the_fft_kernels_have_the_bits_of_the_public_functions():
    # the models call their FFT kernels directly; the public functions are
    # the reference: scipy.fft.dst at every DST-I length up to 300 (50, 117
    # and 286 are those of L = 17.5, 41 and 100), and np.fft.irfft/rfft on
    # grids of both parities, one block a lockstep (3, 13, dim) one
    from scipy.fft import dst
    assert [make_model("odd", L).n for L in (17.5, 41.0, 100.0)] == [50, 117, 286]
    rng = np.random.default_rng(25)
    for n in range(1, 301):
        x = rng.standard_normal((3, n))
        want = dst(x, type=1, norm="ortho").tobytes()
        assert ks._orthonormal_dst1(x).tobytes() == want
        assert ks._orthonormal_dst1(x[1]).tobytes() == want[8 * n : 16 * n]
        assert ks._orthonormal_dst1(x, out=x) is x and x.tobytes() == want
    sizes = []
    for L in (12.0, 22.0, 30.5, 23.5, [23.4, 23.5, 23.6]):
        model = make_model("periodic", L)
        sizes.append(model.grid_size)
        block = rng.standard_normal(np.shape(L) + (13, model.dim))
        assert model.rhs(0.0, block).tobytes() == _public_fft_rhs(model, block).tobytes()
    assert sizes == [60, 100, 135, 108, 108]  # rfft_n_odd runs at M = 135


@pytest.mark.parametrize("missing", ["kernel", "scipy"])
def test_a_missing_dst_kernel_is_an_import_error(monkeypatch, missing):
    # the kernel is looked up on the first DST; with no scipy, or no kernel
    # file in scipy/fft/_pocketfft/, that is an ImportError naming the floor
    monkeypatch.setattr(ks, "_pocketfft_dst", None)
    if missing == "kernel":
        find_spec = ks.importlib.machinery.PathFinder.find_spec
        monkeypatch.setattr(
            ks.importlib.machinery.PathFinder, "find_spec",
            lambda name, path=None, target=None:
                None if name == ks._POCKETFFT else find_spec(name, path, target))
        where = "_pocketfft"
    else:
        monkeypatch.setattr(ks.importlib.util, "find_spec", lambda name: None)
        where = "no scipy package"
    with pytest.raises(ImportError, match="scipy>=1.13") as error:
        ks._orthonormal_dst1(np.ones(5))
    assert where in str(error.value)
    assert ks._pocketfft_dst is None


@pytest.mark.parametrize("L", [22.0, 100.0, LOCKSTEP])
def test_etdrk4_step_matches_the_textbook_expression(L):
    system, lead, members = _members(L)
    stepper = _ETDRK4Stepper(system, DT)
    E, E2, Q = stepper.e_full, stepper.e_half, stepper.q
    f1, f2, f3 = stepper.f1, stepper.f2, stepper.f3

    def N(t, v):
        return system.rhs(t, v)

    t, h = 1.5, DT
    rng = np.random.default_rng(int(10 * np.max(L)))
    for rows in (1, 13, 25):
        u = 0.5 * rng.standard_normal(lead + (rows, system.dim))
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
        _second_call_changes_nothing(lambda other: stepper.step(t, other), u, [got])
        for m, rows_got, states in zip(members, got.reshape(-1, rows, system.dim),
                                       u.reshape(-1, rows, system.dim)):
            alone = _ETDRK4Stepper(m, DT)
            for row, state in zip(rows_got, states):
                assert row.tobytes() == alone.step(t, state[None, :])[0].tobytes()
                assert row.tobytes() == alone.step(t, state).tobytes()


@pytest.mark.parametrize("L", [17.5, 41.0, 100.0])
def test_odd_linear_part_is_the_fd_matrix_in_sine_coordinates(L):
    model = OddPeriodicFDModel(L)
    S = to_grid(np.eye(model.n), axis=0)
    SAS = S @ (linear_matrix(model) @ S)
    lam = model.stiff_linear_part
    assert np.max(np.abs(SAS - np.diag(lam))) <= 1e-11 * np.max(np.abs(lam))


@pytest.mark.parametrize("L", [17.5, 41.0, 100.0])
def test_odd_rhs_matches_the_stencil_formula(L):
    model = OddPeriodicFDModel(L)
    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 13, 25):
        u = rng.standard_normal((rows, model.dim))
        block = to_grid(u)
        before = block.copy()
        got = model.rhs(0.0, block)
        want = stencil_rhs(model, u)
        f = to_grid(ks_rhs(model, block))
        assert np.max(np.abs(f - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(block, before)
        _second_call_changes_nothing(lambda other: [model.rhs(0.0, other)], block, [got])
        for row, state in zip(got, block):
            assert row.tobytes() == model.rhs(0.0, state).tobytes()


@pytest.mark.parametrize("L", [17.5, 41.0, 100.0])
def test_odd_step_matches_the_textbook_expression(L):
    # bit for bit: the cached odd spectra depend on this order of operations
    model = OddPeriodicFDModel(L)
    stepper = _IMEXCNAB2Stepper(model, DT)
    lam, n, h = model.stiff_linear_part, model.n, model.h

    def f(a):
        sq = to_grid(a) ** 2
        zero = np.zeros((a.shape[0], 1))
        flux = (np.concatenate([sq[:, 1:], zero], axis=1)
                - np.concatenate([zero, sq[:, :-1]], axis=1)) / (4 * h)
        return lam * a - to_grid(flux)

    rng = np.random.default_rng(int(10 * L))
    for rows in (1, 25):
        a = rng.standard_normal((rows, n))
        assert np.array_equal(model.rhs(0.0, a), f(a) - lam * a)
        stepper.restart()
        n_prev = None
        for _ in range(3):
            N = f(a) - lam * a
            expl = N * DT if n_prev is None else (1.5 * N - 0.5 * n_prev) * DT
            want = ((1 + DT / 2 * lam) * a + expl) * (1 / (1 - DT / 2 * lam))
            got = stepper.step(0.0, a)
            assert np.array_equal(got, want)
            a, n_prev = got, N
