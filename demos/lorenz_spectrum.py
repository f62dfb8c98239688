"""Lyapunov spectrum of the Lorenz system.

Demonstrates the Benettin/QR machinery on a small ODE where the answer is
well known: for the classic parameters (sigma=10, rho=28, beta=8/3) the
spectrum is approximately (0.906, 0, -14.57) and the sum of exponents must
equal the (constant) divergence -sigma - 1 - beta = -41/3.
"""

from kslyap import LyapunovConfig, compute_spectrum, kaplan_yorke, lorenz_system

sigma, beta = 10.0, 8.0 / 3.0
system = lorenz_system(sigma=sigma, beta=beta)
cfg = LyapunovConfig(m=3, tau=20.0, T=0.5, N=2000, epsilon=1e-6, seed=0, dt=0.005)

result = compute_spectrum(system, cfg)
print("Lorenz Lyapunov spectrum (averaging time NT = %.0f):" % (cfg.N * cfg.T))
for i, lam in enumerate(result.exponents, 1):
    print(f"  lambda_{i} = {lam: .4f}")

total = result.exponents.sum()
print(f"sum of exponents    = {total: .4f}")
print(f"-(sigma + 1 + beta) = {-(sigma + 1 + beta): .4f}   (should agree: the "
      "phase-space contraction rate)")

ky = kaplan_yorke(result.exponents)
print(f"Kaplan-Yorke dimension = {ky.dimension:.3f}  (j = {ky.j})")
