"""Ergodic averages of zeta along Boole-map orbits.

The map T x = (x - 1/(4x))/2 preserves the Cauchy(0, 1/2) law; Birkhoff
time averages of zeta(1/2 + i T^n x) g(T^n x) converge to the coefficient
pairing predicted by the Fourier expansion.
"""

import numpy as np

from zetaline import PrecisionCtx, birkhoff_averages, coeffs_critical, invariance_check, stieltjes
from zetaline.ergodic import cauchy_half_sample, orbit_vs_cauchy_ks

ctx = PrecisionCtx(66)
coeffs = coeffs_critical(10, stieltjes(20, ctx), ctx)

ks = orbit_vs_cauchy_ks(0.37, 500_000)
print(f"orbit empirical law vs Cauchy(0,1/2): KS distance {ks:.4f} at 5e5 iterates")

inv = invariance_check([(1, 1.0)], samples=400_000)
print(f"pushforward mean of e_1: {inv['pushforward_mean']:.5f} "
      f"(direct {inv['direct_mean']:.5f}, 3SE band +-{3 * inv['standard_error']:.5f})")

print("\nBirkhoff averages over 8 seeds, 100k iterations each, one orbit per seed:")
ms = (0, 1, 5)
finals = {m: [] for m in ms}
for seed in range(8):
    x0 = float(cauchy_half_sample(np.random.default_rng(1000 + seed), 1)[0])
    runs = birkhoff_averages([[(-m, 1.0)] for m in ms], x0, 100_000, coeffs, seed=seed)
    for m, run in zip(ms, runs):
        finals[m].append(run.final_estimate.real)
for m, run in zip(ms, runs):
    med = float(np.median(finals[m]))
    print(f"  g = e_{-m:<3d}: median estimate {med:+.4f}   prediction ell_{m} = {run.prediction.real:+.4f}")
