"""Rebuild zetabench/refs.json from mpmath alone.

    python3 zetabench/refs.py          # from the repository root, ~15 s

Nothing here imports zetaline: every value the benchmark checks the program
against comes from mpmath's own Stieltjes constants, zero counter and
polynomial root finder, combined by the formulas written out below.  The
output is committed so that benchmark runs do not pay for it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
from mpmath import mp, mpf

DPS = 110           # working digits; every stored string keeps 100
N_MAX = 20          # the tables workload builds ell_{-1}..ell_{N_MAX}
ROOT_DEGREES = range(10, N_MAX + 1)   # ... and reports the roots of f_10..f_20
ZERO_HEIGHTS = (300, 2000)   # bsy cutoffs of the smoke and full identities runs
OUT = Path(__file__).resolve().parent / "refs.json"


def critical_coefficients(gammas: list) -> list:
    """ell_{-1}..ell_N of the critical line from gamma_0..gamma_N.

    ell_{-1} = -1, ell_0 = gamma_0 - 1 and, for n >= 1,
    ell_n = (-1)^n sum_{k=1}^{n} C(n-1, k-1) (-1)^k gamma_k / k!.
    """
    a = [(-1) ** k * g / mp.factorial(k) for k, g in enumerate(gammas)]
    ell = [mpf(-1), gammas[0] - 1]
    for n in range(1, len(gammas)):
        ell.append((-1) ** n * mp.fsum(math.comb(n - 1, k - 1) * a[k] for k in range(1, n + 1)))
    return ell


def fN_root_moduli(ell: list, N: int) -> list:
    """|z| for every root of f_N(z) = -1 + sum_{n=0}^{N} ell_n z^{n+1}.

    ``ell`` starts at ell_{-1}, so ell_n is ell[n + 1].
    """
    descending = [ell[n + 1] for n in range(N, -1, -1)] + [mpf(-1)]
    roots = mp.polyroots(descending, maxsteps=400, extraprec=400)
    return sorted(float(abs(z)) for z in roots)


def main() -> None:
    mp.dps = DPS
    gammas = [mp.stieltjes(k) for k in range(N_MAX + 1)]
    ell = critical_coefficients(gammas)
    g0 = gammas[0]
    coffey = mp.log(2 * mp.pi) - g0
    parseval = coffey - 1
    s = lambda x: mpmath.nstr(x, 100, min_fixed=1, max_fixed=0)
    payload = {
        "generator": "zetabench/refs.py",
        "mpmath_version": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "dps": DPS,
        "stieltjes": [s(g) for g in gammas],
        "ell_n_min": -1,
        "ell": [s(v) for v in ell],
        "log2pi_minus_gamma0": s(coffey),
        "parseval_sq": s(parseval),
        "log_1_minus_gamma0": s(mp.log(1 - g0)),
        "jensen_ceiling": s(mp.log(parseval) / 2),
        "zero_counts": {str(T): int(mp.nzeros(T)) for T in ZERO_HEIGHTS},
        "fN_root_moduli": {str(N): fN_root_moduli(ell, N) for N in ROOT_DEGREES},
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT.name}: gamma_0..gamma_{N_MAX}, ell_-1..ell_{N_MAX}, roots of "
          f"f_{ROOT_DEGREES[0]}..f_{N_MAX}, N(T) for T in {ZERO_HEIGHTS}, mpmath {mpmath.__version__} "
          f"({mpmath.libmp.BACKEND}) at {DPS} dps")


if __name__ == "__main__":
    main()
