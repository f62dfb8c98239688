import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslyap import (DynamicalSystem, LyapunovConfig,
                    RankDeficient, burn_in, compute_spectrum, diagonal_linear_system,
                    lorenz_system, propagate_frame, reorthonormalize,
                    scan_reorthonormalization_interval)

DT = 0.01


def constant_system(dim):
    return DynamicalSystem(dim=dim, rhs=lambda t, u: np.zeros_like(u))


def test_burn_in_zero_tau():
    u0 = np.array([1.0, 2.0])
    assert np.array_equal(burn_in(constant_system(2), u0, 0.0, DT), u0)


def test_burn_in_exponential():
    u = burn_in(diagonal_linear_system([-1.0]), np.array([1.0]), 5.0, DT)
    assert abs(u[0] - np.exp(-5)) < 1e-7


def test_propagate_frame_identity_flow():
    Q = np.eye(3)[:, :2]
    u, V = propagate_frame(constant_system(3), np.ones(3), Q, 1.0, 1e-6, DT)
    assert np.array_equal(u, np.ones(3))
    assert np.allclose(V, Q, atol=1e-12)


def test_propagate_frame_linear_flow_map():
    system = diagonal_linear_system([1.0, -1.0])
    u, V = propagate_frame(system, np.array([0.1, 0.1]), np.eye(2), 1.0, 1e-6, DT)
    assert np.allclose(V[:, 0], [np.e, 0.0], rtol=1e-5, atol=1e-5)
    assert np.allclose(V[:, 1], [0.0, 1 / np.e], rtol=1e-5, atol=1e-5)


def test_propagate_frame_scalar():
    system = diagonal_linear_system([-1.0])
    _, V = propagate_frame(system, np.array([1.0]), np.eye(1), 2.0, 1e-6, DT)
    assert abs(V[0, 0] - np.exp(-2)) < 1e-5


def test_propagate_frame_rejects_nonorthonormal():
    Q = np.ones((3, 2))
    with pytest.raises(ValueError):
        propagate_frame(constant_system(3), np.zeros(3), Q, 1.0, 1e-6, DT)


def test_reorthonormalize_orthonormal_input():
    V = np.eye(4)[:, :2]
    Q, r = reorthonormalize(V)
    assert np.allclose(Q, V, atol=1e-14)
    assert np.allclose(r, 1.0, atol=1e-14)


def test_reorthonormalize_diagonal_case():
    V = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    Q, r = reorthonormalize(V)
    assert np.allclose(r, [2.0, 3.0])
    assert np.allclose(np.abs(Q), [[1, 0], [0, 0], [0, 1]], atol=1e-14)
    assert Q[0, 0] > 0 and Q[2, 1] > 0


def _gram_schmidt(V):
    """Classical Gram-Schmidt with a re-orthogonalization pass (oracle)."""
    V = V.astype(float).copy()
    n, m = V.shape
    Q = np.zeros((n, m))
    r = np.zeros(m)
    for i in range(m):
        v = V[:, i].copy()
        for _ in range(2):
            for k in range(i):
                v -= (Q[:, k] @ v) * Q[:, k]
        r[i] = np.linalg.norm(v)
        Q[:, i] = v / r[i]
    return Q, r


@pytest.mark.parametrize("seed", range(5))
def test_reorthonormalize_matches_gram_schmidt(seed):
    V = np.random.default_rng(seed).standard_normal((6, 4))
    Q, r = reorthonormalize(V)
    Qo, ro = _gram_schmidt(V)
    assert np.max(np.abs(r - ro)) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_reorthonormalize_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, n + 1))
    V = rng.standard_normal((n, m))
    Q, r = reorthonormalize(V)
    assert np.max(np.abs(Q.T @ Q - np.eye(m))) < 1e-12
    assert np.all(r > 0)
    # Q @ R reconstructs V
    R = Q.T @ V
    assert np.allclose(Q @ np.triu(R), V, rtol=1e-10, atol=1e-10)
    assert np.allclose(np.diagonal(R), r, rtol=1e-10, atol=1e-12)


def test_reorthonormalize_rank_deficient():
    V = np.zeros((3, 2))
    with pytest.raises(RankDeficient):
        reorthonormalize(V)


def test_spectrum_diagonal_linear():
    cfg = LyapunovConfig(m=3, tau=0.0, T=1.0, N=50, epsilon=1e-6, seed=0, dt=DT)
    res = compute_spectrum(diagonal_linear_system([0.3, -0.1, -2.0]), cfg)
    assert np.max(np.abs(res.exponents - [0.3, -0.1, -2.0])) < 1e-3


@pytest.mark.parametrize("n", [2, 4, 8])
def test_spectrum_matches_analytic_rates(n):
    rng = np.random.default_rng(n)
    rates = np.sort(rng.uniform(-1.5, 0.25, size=n))[::-1]
    cfg = LyapunovConfig(m=n, tau=0.0, T=1.0, N=40, epsilon=1e-6, seed=1, dt=DT)
    res = compute_spectrum(diagonal_linear_system(rates), cfg)
    assert np.max(np.abs(res.exponents - rates)) < 1e-3


def test_spectrum_sorted_and_reconstructible():
    cfg = LyapunovConfig(m=3, tau=5.0, T=0.5, N=100, epsilon=1e-6, seed=0,
                         dt=0.005)
    res = compute_spectrum(lorenz_system(), cfg)
    assert np.all(np.diff(res.exponents) <= 0)
    rebuilt = np.sort(res.logR_history.sum(axis=0) / (cfg.N * cfg.T))[::-1]
    assert np.max(np.abs(rebuilt - res.exponents)) < 1e-12
    assert np.all(np.isfinite(res.logR_history))


def test_scan_interval_linear_flow_is_constant():
    system = diagonal_linear_system([0.05, -0.1])
    cfg = LyapunovConfig(m=2, tau=0.0, T=1.0, N=20, epsilon=1e-6, seed=0, dt=DT)
    _, rows = scan_reorthonormalization_interval(system, cfg, [0.5, 1.0, 2.0, 4.0])
    assert np.max(rows.max(axis=0) - rows.min(axis=0)) < 1e-3


def test_scan_interval_records_failures_as_nan():
    # strongly contracting flow underflows the frame for large T; declared
    # as a stiff diagonal part so that ETDRK4 integrates it exactly
    rates = np.array([-400.0, -500.0])
    system = DynamicalSystem(dim=2, rhs=lambda t, u: rates * u, stiff_linear_part=rates)
    cfg = LyapunovConfig(m=2, tau=0.0, T=0.1, N=3, epsilon=1e-6, seed=0, dt=0.1)
    with pytest.warns(UserWarning):
        _, rows = scan_reorthonormalization_interval(system, cfg, [0.1, 10.0])
    assert np.all(np.isfinite(rows[0]))
    assert np.all(np.isnan(rows[1]))


def test_spectrum_m_exceeds_dimension():
    cfg = LyapunovConfig(m=5, tau=0.0, T=1.0, N=5, dt=DT)
    with pytest.raises(ValueError):
        compute_spectrum(diagonal_linear_system([0.1, -0.1]), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        LyapunovConfig(m=0)
    with pytest.raises(ValueError):
        LyapunovConfig(T=-1.0)
    with pytest.raises(ValueError):
        LyapunovConfig(dt=0.0)
    with pytest.warns(UserWarning):
        LyapunovConfig(epsilon=0.5)
