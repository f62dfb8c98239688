"""End-to-end acceptance checks.

These are the long-running physics checks: spectrum spot checks at several
domain sizes for both boundary conditions, the reduced sweep plus power-law
fit, the D_KY-versus-L slope, step-halving stability, and the
reorthonormalization-interval scan.

A cold run takes a few hours on one core.  Every expensive spectrum and
sweep is cached under ``.acceptance_cache/`` at the repository root (sweeps
additionally resume point by point), so interrupted or repeated runs are
cheap.  Spectrum cache files are named by ``kslyap.sweep.fingerprint`` and
sweeps are checked against it on resume, so a change to the numerics that
adds a ``NUMERICS`` entry makes the old files miss instead of serving them.
Each top-level check prints a single PASS/FAIL line.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from kslyap import (LyapunovConfig, SweepPlan,
                    compute_spectrum, diagonal_linear_system, fit_dky_linear,
                    fit_power_law, kaplan_yorke, lorenz_system, make_model,
                    read_records, reorthonormalize, run_sweep,
                    scan_exponent_p, scan_reorthonormalization_interval,
                    windowed_median_mad)
from kslyap import sweep
from kslyap.sweep import NUMERICS, fingerprint, spectrum_settings

CACHE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     ".acceptance_cache")
os.makedirs(CACHE, exist_ok=True)


def _report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cache_path(stem, domain, cfg, **extra):
    """Cache file of a result on ``domain``, ``(bc, L, k_max)``: a readable stem
    plus the first 12 hex digits of the fingerprint of every setting its
    numbers depend on."""
    bc, L, k_max = domain
    settings = {**spectrum_settings(bc, k_max, cfg), "L": L, "seed": cfg.seed, **extra}
    return os.path.join(CACHE, f"{stem}_{fingerprint(settings)[:12]}.json")


def spectrum_job(bc, L, m, dt=0.05, seed=0, N=1000, T=2.0, tau=2000.0, k_max=9.0):
    """Domain ``(bc, L, k_max)``, configuration and cache file of a production
    KS spectrum."""
    domain = (bc, L, k_max)
    cfg = LyapunovConfig(m=m, tau=tau, T=T, N=N, epsilon=1e-6, seed=seed, dt=dt)
    return domain, cfg, cache_path(f"{bc}_L{L:g}_m{m}_dt{dt:g}", domain, cfg)


def ks_spectrum(bc, L, m, **kwargs):
    """Spectrum of the KS system at production parameters, disk-cached."""
    domain, cfg, path = spectrum_job(bc, L, m, **kwargs)
    if os.path.exists(path):
        with open(path) as fh:
            return np.array(json.load(fh)["exponents"])
    result = compute_spectrum(make_model(*domain), cfg)
    with open(path, "w") as fh:
        json.dump({"exponents": result.exponents.tolist(),
                   "wall_time": result.wall_time}, fh)
    return result.exponents


@pytest.mark.parametrize("bc", ["periodic", "odd"])
def test_numerics_entry_renames_only_its_caches(bc, monkeypatch):
    def paths():
        return {b: spectrum_job(b, 41.0, m=12)[2] for b in ("periodic", "odd")}

    before = paths()
    monkeypatch.setitem(NUMERICS, bc, {**NUMERICS[bc], "revision": "test"})
    after = paths()
    assert after[bc] != before[bc]
    assert all(after[b] == before[b] for b in before if b != bc)


# -- criterion: linear oracle ------------------------------------------------

def test_diagonal_linear_oracle():
    rates = np.array([0.3, -0.1, -2.0])
    cfg = LyapunovConfig(m=3, tau=0.0, T=1.0, N=50, epsilon=1e-6, seed=0, dt=0.01)
    t0 = time.time()
    result = compute_spectrum(diagonal_linear_system(rates), cfg)
    wall = time.time() - t0
    err = np.max(np.abs(result.exponents - rates))
    _report("linear oracle", err < 1e-3 and wall < 1.0,
            f"max error {err:.2e} (tol 1e-3), {wall:.2f} s (limit 1 s)")


# -- criterion: Lorenz oracle ------------------------------------------------

def test_lorenz_oracle():
    cfg = LyapunovConfig(m=3, tau=20.0, T=0.5, N=2000, epsilon=1e-6, seed=0, dt=0.005)
    t0 = time.time()
    result = compute_spectrum(lorenz_system(), cfg)
    wall = time.time() - t0
    lam = result.exponents
    ok = abs(lam[1]) <= 0.02 and abs(lam.sum() + 41.0 / 3.0) <= 0.15 and wall < 30
    _report("Lorenz oracle", ok,
            f"lambda_2 {lam[1]:+.4f} (|.|<=0.02), sum {lam.sum():.4f} "
            f"(-13.6667 +- 0.15), {wall:.1f} s (limit 30 s)")


# -- criterion: periodic spot checks -----------------------------------------

def test_periodic_L22():
    lam = ks_spectrum("periodic", 22.0, m=12)
    target = np.array([0.043, 0.003, 0.002, -0.004])
    err = np.max(np.abs(lam[:4] - target))
    dky = kaplan_yorke(lam).dimension
    ok = err <= 0.01 and abs(dky - 5.20) <= 0.3
    _report("periodic L=22", ok,
            f"top4 {np.round(lam[:4], 4)} vs {target} (max err {err:.4f}, "
            f"tol 0.01), D_KY {dky:.3f} (5.20 +- 0.3)")


def test_periodic_L36_zero_exponents():
    lam = ks_spectrum("periodic", 36.0, m=12)
    near_zero = int(np.sum(np.abs(lam[:6]) <= 0.01))
    _report("periodic L=36 zero structure", near_zero == 2,
            f"top6 {np.round(lam[:6], 4)}: {near_zero} exponents within "
            "+-0.01 of zero (need exactly 2)")


def test_periodic_L100_dimension():
    lam = ks_spectrum("periodic", 100.0, m=24)
    dky = kaplan_yorke(lam).dimension
    _report("periodic L=100", abs(dky - 22.4) <= 1.0,
            f"D_KY {dky:.3f} (22.4 +- 1.0)")


# -- criterion: odd-periodic spot checks --------------------------------------

def test_odd_L17_5_nonchaotic():
    # The attractor is a stable limit cycle, so lambda_1 = 0 exactly and the
    # sign of its estimate is noise: the check is j <= 1 (an equilibrium or a
    # limit cycle, not a chaotic or toroidal attractor), not D_KY == 0.
    lam = ks_spectrum("odd", 17.5, m=12)
    ky = kaplan_yorke(lam)
    ok = lam[0] <= 0.005 and ky.j <= 1
    _report("odd L=17.5", ok,
            f"lambda_1 {lam[0]:+.4f} (<= 0.005), j {ky.j} (<= 1), "
            f"D_KY {ky.dimension:g}")


def test_odd_L41_dimension():
    lam = ks_spectrum("odd", 41.0, m=12)
    dky = kaplan_yorke(lam).dimension
    _report("odd L=41", abs(dky - 7.06) <= 0.5, f"D_KY {dky:.3f} (7.06 +- 0.5)")


def test_odd_L100_dimension():
    lam = ks_spectrum("odd", 100.0, m=24)
    dky = kaplan_yorke(lam).dimension
    _report("odd L=100", abs(dky - 20.8) <= 1.0, f"D_KY {dky:.3f} (20.8 +- 1.0)")


# -- criterion: reduced sweep, windowed stats, power-law fit -------------------

SWEEP_CENTERS = (55.0, 65.0, 75.0, 85.0, 95.0)


def _sweep_records():
    records = []
    lyap = LyapunovConfig(m=12, tau=2000.0, T=2.0, N=1000, epsilon=1e-6, seed=0, dt=0.05)
    for c in SWEEP_CENTERS:
        out = os.path.join(CACHE, f"sweep_periodic_L{c:g}.csv")
        plan = SweepPlan(L_start=c - 1.0, L_end=c + 1.0, dL=0.1, bc="periodic",
                         lyap=lyap, output_path=out)
        records.extend(run_sweep(plan))
    return records


def test_committed_sweeps_resume_without_computing(monkeypatch):
    def no_group(*args):
        raise AssertionError("a committed sweep point was recomputed")

    paths = [Path(CACHE, f"sweep_periodic_L{c:g}.csv") for c in SWEEP_CENTERS]
    before = [path.read_bytes() for path in paths]
    monkeypatch.setattr(sweep, "compute_group", no_group)
    n_runs = len(_sweep_records())
    unchanged = [path.read_bytes() for path in paths] == before
    _report("committed sweeps resume", n_runs == 105 and unchanged,
            f"{n_runs} rows (need 105), files unchanged: {unchanged}")


def test_sweep_and_power_law_fit():
    records = _sweep_records()
    n_runs = len(records)
    stats = []
    for c in SWEEP_CENTERS:
        for i in range(1, 13):
            stats.append(windowed_median_mad(records, c, i, halfwidth=1.0))
    _, _, _, best_p = scan_exponent_p(stats)
    fit = fit_power_law(stats, 1.0)
    ok = n_runs == 105 and 0.7 <= best_p <= 1.2 and abs(fit.a - 0.093) <= 0.01
    _report("sweep + power-law fit", ok,
            f"{n_runs} runs (need 105), p* = {best_p:g} (in [0.7, 1.2]), "
            f"a = {fit.a:.4f} (0.093 +- 0.01)")


# -- criterion: D_KY slope -----------------------------------------------------

def test_dky_slope():
    class Rec:
        def __init__(self, L, dky):
            self.L, self.dky = L, dky

    recs = []
    for L in (80.0, 85.0, 90.0, 95.0, 100.0):
        lam = ks_spectrum("periodic", L, m=24)
        recs.append(Rec(L, kaplan_yorke(lam).dimension))
    slope, intercept, _ = fit_dky_linear(recs, L_min=80.0)
    _report("D_KY slope", abs(slope - 0.226) <= 0.03,
            f"slope {slope:.4f} (0.226 +- 0.03), intercept {intercept:+.3f}")


# -- criterion: invariants and step-halving ------------------------------------

def test_qr_orthonormality_invariant():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(2, n + 1))
        Q, r = reorthonormalize(rng.standard_normal((n, m)))
        worst = max(worst, float(np.max(np.abs(Q.T @ Q - np.eye(m)))))
        assert np.all(r > 0)
    _report("QR orthonormality", worst < 1e-12, f"worst |Q^T Q - I| = {worst:.2e}")


def test_dimension_recompute_invariant(tmp_path):
    # D_KY recomputed from stored exponents must match the stored value
    lyap = LyapunovConfig(m=4, tau=10.0, T=0.5, N=10, epsilon=1e-6, seed=0, dt=0.05)
    out = str(tmp_path / "recompute_check.csv")
    plan = SweepPlan(L_start=22.0, L_end=24.0, dL=1.0, bc="periodic",
                     lyap=lyap, output_path=out)
    run_sweep(plan)
    worst = 0.0
    for rec in read_records(out):
        worst = max(worst, abs(kaplan_yorke(rec.exponents).dimension - rec.dky))
    _report("dimension recompute", worst <= 1e-9, f"worst |delta D_KY| = {worst:.2e}")


def test_mean_conservation_invariant():
    from kslyap import PeriodicSpectralModel, initial_state, integrate
    model = PeriodicSpectralModel(36.0)
    u0 = initial_state(model, 3)
    u = integrate(model, u0, 100.0, 0.05)
    drift = abs(model.field_mean(u) - model.field_mean(u0))
    _report("mean conservation", drift < 1e-6, f"drift {drift:.2e} over 100 units")


def test_step_halving_stability():
    """All table spot checks must reach the same conclusions at dt = 0.025."""
    checks = []
    lam = ks_spectrum("periodic", 22.0, m=12, dt=0.025)
    err = np.max(np.abs(lam[:4] - [0.043, 0.003, 0.002, -0.004]))
    checks.append(("p22", err <= 0.01
                   and abs(kaplan_yorke(lam).dimension - 5.20) <= 0.3))
    lam = ks_spectrum("periodic", 36.0, m=12, dt=0.025)
    checks.append(("p36", int(np.sum(np.abs(lam[:6]) <= 0.01)) == 2))
    lam = ks_spectrum("periodic", 100.0, m=24, dt=0.025)
    checks.append(("p100", abs(kaplan_yorke(lam).dimension - 22.4) <= 1.0))
    lam = ks_spectrum("odd", 17.5, m=12, dt=0.025)
    checks.append(("o17.5", lam[0] <= 0.005 and kaplan_yorke(lam).j <= 1))
    lam = ks_spectrum("odd", 41.0, m=12, dt=0.025)
    checks.append(("o41", abs(kaplan_yorke(lam).dimension - 7.06) <= 0.5))
    lam = ks_spectrum("odd", 100.0, m=24, dt=0.025)
    checks.append(("o100", abs(kaplan_yorke(lam).dimension - 20.8) <= 1.0))
    bad = [name for name, ok in checks if not ok]
    _report("step-halving stability", not bad,
            f"spot checks at dt=0.025: {['%s:%s' % (n, 'ok' if ok else 'FAIL') for n, ok in checks]}")


# -- criterion: reorthonormalization-interval scan -----------------------------

def test_T_scan_odd_L100():
    T_values = [2.0, 5.0, 10.0]
    domain, cfg, _ = spectrum_job("odd", 100.0, m=24)
    path = cache_path("tscan_odd_L100", domain, cfg, T_scan=T_values)
    if os.path.exists(path):
        with open(path) as fh:
            rows = np.array(json.load(fh)["rows"])
    else:
        system = make_model(*domain)
        _, rows = scan_reorthonormalization_interval(system, cfg, T_values)
        with open(path, "w") as fh:
            json.dump({"rows": rows.tolist()}, fh)
    spread = float(np.max(rows.max(axis=0) - rows.min(axis=0)))
    _report("T-scan odd L=100", spread < 0.02,
            f"max per-exponent spread {spread:.4f} across T in (2, 5, 10) "
            "(limit 0.02)")
