"""Integrate the Kuramoto-Sivashinsky equation and look at the solution.

Runs the periodic pseudospectral model on a moderately large domain, prints
a coarse ASCII picture of u(x, t) so the cellular/chaotic structure is
visible without any plotting dependencies, and checks that the spatial mean
is conserved by the dynamics.
"""

import numpy as np

from kslyap import (DomainSpec, IntegratorConfig, initial_state, integrate,
                    make_model, scheme_for)

spec = DomainSpec(L=60.0, bc="periodic")
model = make_model(spec)
system = model.build_system()
cfg = IntegratorConfig(dt=0.05, scheme=scheme_for(spec.bc))

state = initial_state(model.dim, seed=3)
mean0 = model.field_mean(state)

# discard the transient, then sample every 2 time units
state = integrate(system, state, 0.0, 100.0, cfg)

shades = " .:-=+*#%@"
print(f"u(x, t) on L = {spec.L:g} (rows: t = 100..160, cols: x):")
for step in range(30):
    state = integrate(system, state, 0.0, 2.0, cfg)
    _, u = model.to_physical(state)
    u_coarse = u[:: len(u) // 72]
    lo, hi = -3.0, 3.0
    idx = np.clip(((u_coarse - lo) / (hi - lo) * (len(shades) - 1)).astype(int),
                  0, len(shades) - 1)
    print("".join(shades[i] for i in idx))

print(f"\nspatial mean drift over the run: {abs(model.field_mean(state) - mean0):.2e}")
print(f"rms amplitude: {np.std(model.to_physical(state)[1]):.3f}")
