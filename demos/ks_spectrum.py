"""Lyapunov spectrum of the Kuramoto-Sivashinsky equation at L = 22.

L = 22 is the classic small chaotic domain: one positive exponent, two
near-zero exponents (translation and Galilean invariance), and a rapidly
decaying tail.  The burn-in and averaging times here are shortened so the
demo finishes in well under a minute; production values are tau = 2000 and
N = 1000.
"""

from kslyap import LyapunovConfig, compute_spectrum, kaplan_yorke, make_model

system = make_model("periodic", 22.0)
cfg = LyapunovConfig(m=10, tau=500.0, T=2.0, N=400, epsilon=1e-6, seed=0, dt=0.05)

result = compute_spectrum(system, cfg)
print(f"KS periodic, L = 22, averaging time NT = {cfg.N * cfg.T:g}")
print(f"(wall time {result.wall_time:.1f} s)\n")
for i, lam in enumerate(result.exponents, 1):
    bar = "#" * max(0, int(40 + 400 * lam)) if lam > -0.1 else ""
    print(f"  lambda_{i:<2d} = {lam: .4f}  {bar}")

ky = kaplan_yorke(result.exponents)
print(f"\nKaplan-Yorke dimension = {ky.dimension:.3f}  (j = {ky.j})")
print("expect roughly lambda = (0.043, 0.003, 0.002, -0.004, ...) and "
      "D_KY near 5.2 at full averaging time")
