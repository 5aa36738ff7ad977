"""Vectorized machine-precision zeta on and near the critical line.

Two regimes, dispatched on height:

* Euler-Maclaurin with cutoff N ~ 1.1 |t| and ten Bernoulli corrections,
  used below the fixed crossover height RS_CROSSOVER = 600.  Against
  mpmath.zeta on 0 <= t <= 600 the error is at most 7.8e-13 on the critical
  line (300 uniform heights; median 7e-14, below 5e-14 for t < 100) and at
  most 2e-13 at the cutoff-bucket edges for sigma in {1/2, 3/4, 3/2, 2}: the
  phase t ln n rounded in float64 sets it, and it grows with t;
* the Riemann-Siegel main sum plus the leading remainder term, absolute error
  ~ 1e-4 at the crossover falling like t^{-3/4}, used above it.

The Euler-Maclaurin main sum fills n^-s, n < N, by primes: one complex exp
per prime, exp(-s ln p), and one complex product per composite,
n^-s = p^-s (n/p)^-s with p its smallest prime factor (172 exps for the
1,023 terms at N = 1024).  Heights share a power-of-two N; each bucket is
found by np.searchsorted on the sorted cutoffs, filled _CHUNK // N points at
a time, and summed pairwise in an order that does not depend on the chunk.

These back the large-height quadrature of the identity integrals and the
ergodic orbit averages, where tolerances are 1e-2..1e-4 and millions of
evaluations are needed; everything precision-critical goes through
:mod:`zetaline.zeta` instead.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "RS_CROSSOVER",
    "zeta_em_line",
    "zeta_rs_line",
    "zeta_critical",
    "hardy_theta",
    "hardy_Z",
]

RS_CROSSOVER = 600.0

# B_{2k}/(2k)! for k = 1..10
_B2K = [1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510, 43867/798, -174611/330]
_B2K_OVER_FACT = [b / math.factorial(2 * (k + 1)) for k, b in enumerate(_B2K)]

_CHUNK = 4_000_000  # complex elements per matrix chunk
_GATHER = 4_096  # complex elements per gathered block of composite columns


@lru_cache(maxsize=32)
def _fill_plan(ng: int) -> tuple:
    """How to fill n^-s for 2 <= n < ng with one complex exp per prime.

    The fill matrix holds one column per n: the primes first, in a contiguous
    block, then the composites in increasing order.  Composite n = p (n/p),
    p its smallest prime factor, is the product of columns a = col(p) and
    b = col(n/p), both earlier.  The composites split into runs whose factors
    all lie before the run, so a run fills in one batched product.  Returns
    (ln p per prime, a, b, runs), a and b per composite and runs as (lo, hi)
    matrix columns.  Cached per power-of-two N.
    """
    spf = list(range(ng))  # smallest prime factor, sieved
    for p in range(2, math.isqrt(ng - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, ng, p):
                if spf[m] == m:
                    spf[m] = p
    primes = [n for n in range(2, ng) if spf[n] == n]
    col = {p: i for i, p in enumerate(primes)}
    a, b, starts = [], [], []
    for n in range(4, ng):
        if spf[n] != n:
            col[n] = len(primes) + len(a)
            a.append(col[spf[n]])
            b.append(col[n // spf[n]])
            if not starts or b[-1] >= starts[-1]:
                starts.append(col[n])
    runs = tuple(zip(starts, starts[1:] + [len(primes) + len(a)]))
    return np.log(np.array(primes, dtype=float)), np.array(a), np.array(b), runs


def _dirichlet_head(s: np.ndarray, ng: int) -> np.ndarray:
    """sum_{n<ng} n^-s for each s, filled by primes, _CHUNK // ng points at a time."""
    lnp, a, b, runs = _fill_plan(ng)
    P = len(lnp)
    out = np.empty(len(s), dtype=complex)
    rows = max(1, _CHUNK // ng)
    for i in range(0, len(s), rows):
        ms = -s[i:i + rows]
        M = np.empty((P + len(a), len(ms)), dtype=complex)
        blk = M[:P]
        np.multiply.outer(lnp, ms, out=blk)
        np.exp(blk, out=blk)  # in place: the matrix is the only chunk-sized array
        step = max(1, _GATHER // len(ms))  # columns per product, bounding the gathers
        for lo, hi in runs:
            for c in range(lo, hi, step):
                d = min(hi, c + step)
                k = c - P if d == c + 1 else slice(c - P, d - P)  # one column: views, no gather
                np.multiply(M[a[k]], M[b[k]], out=M[c:d])
        n = len(M)
        while n > 1:  # pairwise, in place, in an order that does not depend on the row count
            h = n // 2
            M[:h] += M[n - h:n]
            n -= h
        out[i:i + rows] = 1 + M[0]
    return out


def zeta_em_line(t, sigma: float = 0.5) -> np.ndarray:
    """zeta(sigma + i t) for an array of heights t >= 0, Euler-Maclaurin.

    Intended for |t| <= ~3000 (cost grows linearly with height).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.shape, dtype=complex)
    n_need = np.maximum(16, np.ceil(1.1 * np.abs(t) + 2 * sigma + 10)).astype(int)
    order = np.argsort(n_need)
    ts, ns = t[order], n_need[order]
    i = 0
    while i < len(ts):
        ng = 1 << int(ns[i] - 1).bit_length()
        j = int(np.searchsorted(ns, ng, side="right"))
        s = sigma + 1j * ts[i:j]
        S = _dirichlet_head(s, ng)
        lnN = math.log(ng)
        nms = np.exp(-s * lnN)
        S += nms * ng / (s - 1) + nms / 2
        pw = nms / ng
        poch = s.copy()
        for k in range(1, 11):
            if k > 1:
                poch = poch * (s + 2 * k - 3) * (s + 2 * k - 2)
                pw = pw / (ng * ng)
            S += _B2K_OVER_FACT[k - 1] * poch * pw
        out[order[i:j]] = S
        i = j
    return out


def hardy_theta(t) -> np.ndarray:
    """Riemann-Siegel theta, asymptotic series (good to ~1e-10 for t >= 10)."""
    t = np.asarray(t, dtype=float)
    return (
        (t / 2) * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8
        + 1 / (48 * t) + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5)
    )


@lru_cache(maxsize=2)
def _psi_taylor(p0: float) -> tuple:
    """Taylor rows of the Riemann-Siegel remainder factor at its removable
    points p = 1/4, 3/4.

    Direct numerical differentiation would step onto the 0/0 point, so the
    local polynomial comes from a high-precision interpolation through
    sample offsets on both sides (degree 10 over |d| <= 0.03).  The fallback
    in _rs_psi only fires for |cos 2 pi p| <= 0.03, i.e. |d| <= 0.005, well
    inside the fitted window.
    """
    import mpmath
    from mpmath import mpf

    deg = 10
    with mpmath.workdps(60):
        f = lambda x: mpmath.cos(2 * mpmath.pi * (x * x - x - mpf(1) / 16)) / mpmath.cos(
            2 * mpmath.pi * x
        )
        ds = []
        for j in range(deg + 1):
            mag = mpf("0.004") + mpf("0.026") * j / deg
            ds.append(mag if j % 2 == 0 else -mag)
        A = mpmath.matrix(deg + 1, deg + 1)
        rhs = mpmath.matrix(deg + 1, 1)
        for i, d in enumerate(ds):
            for j in range(deg + 1):
                A[i, j] = d ** j
            rhs[i] = f(mpf(repr(p0)) + d)
        coeffs = mpmath.lu_solve(A, rhs)
        return tuple(float(coeffs[j]) for j in range(deg + 1))


def _rs_psi(p: np.ndarray) -> np.ndarray:
    den = np.cos(2 * np.pi * p)
    out = np.empty_like(p)
    safe = np.abs(den) > 0.03
    ps = p[safe]
    out[safe] = np.cos(2 * np.pi * (ps * ps - ps - 1.0 / 16)) / den[safe]
    for p0 in (0.25, 0.75):
        m = ~safe & (np.abs(p - p0) < 0.03)
        if m.any():
            d = p[m] - p0
            acc = np.zeros_like(d)
            for c in reversed(_psi_taylor(p0)):
                acc = acc * d + c
            out[m] = acc
    return out


def hardy_Z(t) -> np.ndarray:
    """The real Hardy function Z(t) = e^{i theta} zeta(1/2 + it), t >= 10."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.shape)
    lo = t < RS_CROSSOVER
    if lo.any():
        th = hardy_theta(t[lo])
        out[lo] = (np.exp(1j * th) * zeta_em_line(t[lo])).real
    hi = ~lo
    if hi.any():
        out[hi] = _hardy_Z_rs(t[hi])
    return out


def _hardy_Z_rs(t: np.ndarray) -> np.ndarray:
    tau = np.sqrt(t / (2 * np.pi))
    m = np.floor(tau).astype(int)
    th = hardy_theta(t)
    order = np.argsort(m)
    ts, ms, ths = t[order], m[order], th[order]
    Z = np.empty(len(t))
    i = 0
    while i < len(ts):
        mv = ms[i]
        j = int(np.searchsorted(ms, mv, side="right"))
        n = np.arange(1, mv + 1)
        block = np.cos(ths[i:j, None] - np.multiply.outer(ts[i:j], np.log(n)))
        Z[i:j] = 2 * (block / np.sqrt(n)).sum(axis=1)
        i = j
    out = np.empty(len(t))
    out[order] = Z
    p = tau[order] - ms
    out[order] += (-1.0) ** (ms + 1) * tau[order] ** (-0.5) * _rs_psi(p)
    return out


def zeta_rs_line(t) -> np.ndarray:
    """zeta(1/2 + it) from the Riemann-Siegel Z via zeta = Z e^{-i theta}."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _hardy_Z_rs(t) * np.exp(-1j * hardy_theta(t))


def zeta_critical(t) -> np.ndarray:
    """zeta(1/2 + it) for t >= 0, dispatching E-M / Riemann-Siegel at 600."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.shape, dtype=complex)
    lo = t < RS_CROSSOVER
    if lo.any():
        out[lo] = zeta_em_line(t[lo])
    if (~lo).any():
        out[~lo] = zeta_rs_line(t[~lo])
    return out
