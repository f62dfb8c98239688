import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslyap import (DynamicalSystem, IntegrationBlowUp, KslyapError, LyapunovConfig,
                    RankDeficient, lyapunov, burn_in, compute_spectrum, diagonal_linear_system,
                    initial_state, lorenz_system, make_model, propagate_frame,
                    reorthonormalize, scan_reorthonormalization_interval)

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


@pytest.mark.parametrize("bc, L, bound", [("periodic", 22.0, 1e-4), ("odd", 17.5, 5e-3)],
                         ids=["periodic", "odd"])
def test_full_ks_spectrum_sums_to_the_trace_of_the_linear_part(bc, L, bound):
    # the Jacobian of either model's nonlinear term has zero trace (periodic:
    # dN_k/dc_k = -ik c_0 is imaginary; odd: the central flux difference at
    # a point does not depend on the point, and the DST is orthogonal), so
    # the full spectrum sums to the trace of lam, up to the discrete map's
    # error, which must fall under step halving
    system = make_model(bc, L, k_max=3.0)
    trace = system.stiff_linear_part.sum()
    u0 = 0.3 * initial_state(system, 0)
    errors = []
    for dt in (0.05, 0.025):
        cfg = LyapunovConfig(m=system.dim, tau=100.0, T=0.1, N=2000, dt=dt)
        exponents = compute_spectrum(system, cfg, u0).exponents
        errors.append(abs(exponents.sum() - trace) / abs(trace))
    assert errors[1] <= bound, errors
    assert errors[0] / errors[1] >= 3, errors


def test_scan_interval_linear_flow_is_constant():
    system = diagonal_linear_system([0.05, -0.1])
    cfg = LyapunovConfig(m=2, tau=0.0, T=1.0, N=20, epsilon=1e-6, seed=0, dt=DT)
    _, rows = scan_reorthonormalization_interval(system, cfg, [0.5, 1.0, 2.0, 4.0])
    assert np.max(rows.max(axis=0) - rows.min(axis=0)) < 1e-3


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_scan_interval_refuses_a_non_finite_T_before_computing(monkeypatch, bad):
    def compute(*args):
        raise AssertionError("a spectrum was computed")

    monkeypatch.setattr(lyapunov, "compute_spectrum", compute)
    cfg = LyapunovConfig(m=2, tau=0.0, T=1.0, N=2, dt=DT)
    with pytest.raises(ValueError, match="positive, finite and strictly ascending"):
        scan_reorthonormalization_interval(lorenz_system(), cfg, [0.5, bad])


def test_scan_interval_records_failures_as_nan():
    # strongly contracting flow underflows the frame for large T; its
    # diagonal linear part is integrated exactly by ETDRK4
    system = diagonal_linear_system([-400.0, -500.0])
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


@pytest.mark.parametrize("field", ["tau", "T", "epsilon", "dt"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_config_refuses_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite tau >= 0"):
        LyapunovConfig(**{field: value})


@pytest.mark.parametrize("bc, L", [("periodic", 22.0), ("odd", 41.0)])
def test_a_stack_of_starts_equals_the_single_runs(bc, L):
    # K seeds of one system in lockstep: one (K, 1, dim) burn-in, one
    # (K, m+1, dim) block and one stacked QR per interval
    system = make_model(bc, L)
    cfg = LyapunovConfig(m=4, tau=5.0, T=0.5, N=6, epsilon=1e-6, dt=0.05)
    u0 = np.stack([initial_state(system, seed) for seed in range(3)])
    together = compute_spectrum(system, cfg, u0)
    assert together.exponents.shape == (3, 4)
    for k in range(3):
        alone = compute_spectrum(system, cfg, u0[k])
        assert np.array_equal(together.exponents[k], alone.exponents)
        assert np.array_equal(together.logR_history[k], alone.logR_history)
        assert np.array_equal(together.final_state[k], alone.final_state)


def test_a_lockstep_system_needs_one_start_per_member():
    cfg = LyapunovConfig(m=2, tau=0.0, T=0.5, N=1, dt=0.05)
    with pytest.raises(ValueError, match="2 members"):
        compute_spectrum(make_model("periodic", [21.8, 22.0]), cfg)


# --- the row helper: a forked process steps the last half of each block ---

def _errors(cls=KslyapError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _errors(sub)


@pytest.mark.parametrize("cls", list(_errors()), ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    exc = cls(1.25) if cls is IntegrationBlowUp else cls("what went wrong")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)
    if cls is IntegrationBlowUp:
        assert back.time == 1.25
        exc.args = (f"interval 2/3: {exc}",)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.time, str(back)) == (1.25, "interval 2/3: integration blew up at t=1.25")


two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="a row helper starts only with two usable CPUs")


@pytest.fixture
def helpers(monkeypatch):
    """Split every spectrum with a row helper; yields the helpers started."""
    started = []

    class Counted(lyapunov._RowHelper):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", 0)
    monkeypatch.setattr(lyapunov, "_RowHelper", Counted)
    yield started
    assert multiprocessing.active_children() == []


def _assert_same(a, b):
    assert np.array_equal(a.exponents, b.exponents)
    assert np.array_equal(a.logR_history, b.logR_history)
    assert np.array_equal(a.final_state, b.final_state)


@two_cpus
@pytest.mark.parametrize("bc, L, starts", [
    ("periodic", 22.0, None), ("odd", 41.0, None), ("periodic", 22.0, 3), ("odd", 41.0, 3)])
def test_a_split_spectrum_is_bit_identical(monkeypatch, helpers, bc, L, starts):
    # a (dim,) start and a (K, dim) multi-start; m+1 = 6 rows split 3 + 3
    system = make_model(bc, L)
    cfg = LyapunovConfig(m=5, tau=1.0, T=0.5, N=4, epsilon=1e-6, dt=0.05)
    u0 = None if starts is None else np.stack(
        [initial_state(system, seed) for seed in range(starts)])
    split = compute_spectrum(system, cfg, u0)
    assert len(helpers) == 1
    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", np.inf)
    _assert_same(split, compute_spectrum(system, cfg, u0))
    assert len(helpers) == 1


@two_cpus
@pytest.mark.parametrize("bc, Ls", [("periodic", (21.8, 22.0, 22.2)), ("odd", (41.0, 41.05))])
def test_a_split_lockstep_group_is_bit_identical(monkeypatch, helpers, bc, Ls):
    # a (G, m+1, dim) block, m+1 = 5 rows split 3 + 2
    system = make_model(bc, Ls)
    cfg = LyapunovConfig(m=4, tau=1.0, T=0.5, N=3, epsilon=1e-6, dt=0.05)
    u0 = np.stack([initial_state(system, seed) for seed in range(len(Ls))])
    split = compute_spectrum(system, cfg, u0)
    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", np.inf)
    _assert_same(split, compute_spectrum(system, cfg, u0))
    assert len(helpers) == 1


def _exploding_system(rates):
    # du/dt = rates * u: from u0 = 0 only the rows perturbed along a
    # coordinate of positive rate grow, and they blow up at their own time
    rates = np.asarray(rates, dtype=float)
    return DynamicalSystem(dim=rates.size, rhs=lambda t, u: rates * u)


@two_cpus
@pytest.mark.parametrize("rates", [
    [0.0, 0.0, 0.0, 900.0],     # only the helper's last row
    [300.0, 0.0, 0.0, 900.0],   # both halves; the helper's row first
    [900.0, 0.0, 0.0, 300.0]])  # both halves; the parent's row first
def test_a_blow_up_in_the_split_raises_as_in_one_process(monkeypatch, helpers, rates):
    # rows: the base, then u0 + eps e_i; 5 rows, the helper steps the last 2
    system = _exploding_system(rates)
    cfg = LyapunovConfig(m=4, tau=0.0, T=1.0, N=2, epsilon=1e-6, dt=0.01)
    with pytest.raises(IntegrationBlowUp) as split:
        compute_spectrum(system, cfg, np.zeros(4))
    assert len(helpers) == 1
    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", np.inf)
    with pytest.raises(IntegrationBlowUp) as alone:
        compute_spectrum(system, cfg, np.zeros(4))
    assert str(split.value).startswith("interval 1/2: integration blew up at t=")
    assert (split.value.time, str(split.value)) == (alone.value.time, str(alone.value))


@two_cpus
def test_an_interrupt_mid_interval_stops_the_helper(helpers):
    # the helper's half, 15 rows of 600 numbers, is larger than a pipe's
    # buffer: it may still be in flight when the parent gives up
    parent = os.getpid()
    calls = []

    def rhs(t, u):
        if os.getpid() == parent:
            calls.append(t)
            if len(calls) == 3:
                raise KeyboardInterrupt
        return -u

    system = DynamicalSystem(dim=600, rhs=rhs)
    cfg = LyapunovConfig(m=29, tau=0.0, T=1.0, N=2, epsilon=1e-6, dt=0.01)
    with pytest.raises(KeyboardInterrupt):
        compute_spectrum(system, cfg)
    assert len(helpers) == 1 and multiprocessing.active_children() == []


@two_cpus
def test_the_helper_ignores_ctrl_c(monkeypatch, helpers):
    # Ctrl-C reaches the whole foreground process group; the parent alone
    # acts on it.  The SIGINT goes out in the second interval, after the
    # helper has answered once.
    base = make_model("periodic", 22.0)
    parent, calls = os.getpid(), []

    def rhs(t, u):
        if os.getpid() == parent:
            calls.append(t)
            if len(calls) == 41:  # 10 ETDRK4 steps of 4 calls per interval
                os.kill(helpers[0]._process.pid, signal.SIGINT)
        return base.rhs(t, u)

    system = DynamicalSystem(dim=base.dim, rhs=rhs, stiff_linear_part=base.stiff_linear_part)
    cfg = LyapunovConfig(m=5, tau=0.0, T=0.5, N=3, epsilon=1e-6, dt=0.05)
    split = compute_spectrum(system, cfg)
    assert len(calls) > 41
    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", np.inf)
    _assert_same(split, compute_spectrum(system, cfg))


@two_cpus
def test_the_helpers_warnings_are_issued_by_the_parent(monkeypatch, helpers):
    # the helper's last row overflows within its first step
    system = _exploding_system([0.0, 0.0, 0.0, 1e300])
    cfg = LyapunovConfig(m=4, tau=0.0, T=1.0, N=1, epsilon=1e-6, dt=0.01)
    shown = []
    for split in (0, np.inf):
        monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", split)
        with pytest.raises(IntegrationBlowUp), pytest.warns(RuntimeWarning) as caught:
            compute_spectrum(system, cfg, np.zeros(4))
        shown.append(sorted({str(w.message) for w in caught}))
    assert len(helpers) == 1 and shown[0] == shown[1]


@two_cpus
def test_a_helper_that_cannot_fork_leaves_the_run_in_one_process(monkeypatch):
    def no_fork(process):
        raise OSError("no process to spare")

    system = make_model("periodic", 22.0)
    cfg = LyapunovConfig(m=3, tau=1.0, T=0.5, N=2, epsilon=1e-6, dt=0.05)
    alone = compute_spectrum(system, cfg)
    monkeypatch.setattr(lyapunov, "SPLIT_NUMBERS", 0)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
    _assert_same(compute_spectrum(system, cfg), alone)
