"""A walk through the coefficient family of zeta on the critical line.

Builds the Stieltjes constants two independent ways, assembles the
coefficients, and confirms a formula value against direct quadrature of
the defining integral.
"""

from mpmath import mp, workdps

from zetaline import PrecisionCtx, coeffs_critical, moment_oracle, stieltjes, stieltjes_limit_oracle

ctx = PrecisionCtx(50)

print("Stieltjes constants by contour extraction on |s-1| = 3:")
table = stieltjes(12, ctx)
for k in (0, 1, 2, 5, 12):
    print(f"  gamma_{k:<2d} = {mp.nstr(table.gammas[k], 30)}   (doubling est {mp.nstr(table.est_errors[k], 3)})")

print("\nSame constants from the accelerated limit definition:")
oracle = stieltjes_limit_oracle(12, ctx)
with workdps(60):
    worst = max(abs(a - b) for a, b in zip(table.gammas, oracle))
print(f"  worst disagreement across k <= 12: {mp.nstr(worst, 3)}")

print("\nCoefficients (exact-binomial sums of gamma_k/k!):")
ctx66 = PrecisionCtx(66)
coeffs = coeffs_critical(30, stieltjes(40, ctx66), ctx66)
for n in (-1, 0, 1, 2, 5, 30):
    print(f"  ell_{n:<3d} = {mp.nstr(coeffs.value(n), 20)}")

print("\nQuadrature of the defining integral (deformed-tail line integral):")
vals = moment_oracle([-1, 0, 5])
with workdps(40):
    for n in (-1, 0, 5):
        print(f"  n={n:+d}: quadrature {vals[n]:.15g}   |diff| = {mp.nstr(abs(vals[n] - coeffs.value(n)), 3)}")
