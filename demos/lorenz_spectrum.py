"""Lyapunov spectrum of the Lorenz system.

Demonstrates the Benettin/QR machinery on a small ODE where the answer is
well known: for the classic parameters (sigma=10, rho=28, beta=8/3) the
spectrum is approximately (0.906, 0, -14.57) and the sum of exponents must
equal the (constant) divergence -sigma - 1 - beta = -41/3.
"""

import numpy as np

from kslyap import (LyapunovConfig, compute_spectrum, jacobian_trace_average,
                    kaplan_yorke, lorenz_system)

system = lorenz_system()
cfg = LyapunovConfig(m=3, tau=20.0, T=0.5, N=2000, epsilon=1e-6, seed=0, dt=0.005)

result = compute_spectrum(system, cfg)
print("Lorenz Lyapunov spectrum (averaging time NT = %.0f):" % (cfg.N * cfg.T))
for i, lam in enumerate(result.exponents, 1):
    print(f"  lambda_{i} = {lam: .4f}")

total = result.exponents.sum()
trace = jacobian_trace_average(system, np.array([1.0, 1.0, 1.0]), 50.0, cfg.dt)
print(f"sum of exponents    = {total: .4f}")
print(f"mean Jacobian trace = {trace: .4f}   (should agree: phase-space "
      "contraction rate)")

ky = kaplan_yorke(result.exponents)
print(f"Kaplan-Yorke dimension = {ky.dimension:.3f}  (j = {ky.j})")
