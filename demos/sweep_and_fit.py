"""Sweep domain sizes, then fit the large-L scaling of the spectrum.

The interesting empirical facts about KS Lyapunov spectra are extensive:
exponents approach a 1/L family lambda_i(L) ~ a + (b + c i)/L and the
Kaplan-Yorke dimension grows linearly in L.  This demo runs a deliberately
small sweep (short averaging, coarse grid) and pushes it through the whole
analysis pipeline: windowed median/MAD statistics, the p-exponent scan, the
three-parameter power-law fit, and the linear D_KY fit.

Production-scale numbers (dL = 0.1 windows around L = 55..95, tau = 2000,
N = 1000, m = 24) give a ~ 0.093, c ~ -0.94, and D_KY ~ 0.226 L - 0.160;
with this demo's short averaging expect the same structure but looser
constants.
"""

import os
import tempfile

from kslyap import (LyapunovConfig, SweepPlan, fit_dky_linear, fit_power_law,
                    run_sweep, scan_exponent_p, windowed_median_mad)

lyap = LyapunovConfig(m=12, tau=200.0, T=2.0, N=100, epsilon=1e-6, seed=0, dt=0.05)

out = os.path.join(tempfile.mkdtemp(), "demo_sweep.jsonl")
plan = SweepPlan(L_start=34.0, L_end=46.0, dL=1.0, bc="periodic",
                 lyap=lyap, output_path=out)

print(f"sweeping L = {plan.L_start:g}..{plan.L_end:g} (step {plan.dL:g}) -> {out}")
records = run_sweep(plan, log=lambda r: print(
    f"  L={r.L:<5g} lambda_1={r.exponents[0]: .4f} D_KY={r.dky:6.3f} [{r.flag}]"))

# windowed statistics around a few centers, then the power-law machinery
centers = [36.0, 40.0, 44.0]
stats = []
for c in centers:
    for i in range(1, lyap.m + 1):
        stats.append(windowed_median_mad(records, c, i, halfwidth=2.0))

p_grid, rms, mad, best_p = scan_exponent_p(stats)
fit = fit_power_law(stats, 1.0)
print(f"\nresidual-minimizing decay exponent p* = {best_p:g}")
print(f"fit at p = 1: lambda_i(L) ~ {fit.a:.3f} + ({fit.b:.3f} {fit.c:+.3f} i)/L "
      f"(rms {fit.rms_residual:.4f}, {fit.n_points} points)")

slope, intercept, rms_d = fit_dky_linear(records, L_min=34.0)
print(f"D_KY ~ {slope:.3f} L {intercept:+.3f}  (rms {rms_d:.3f})")
