"""Vectorized machine-precision zeta on and near the critical line.

Two regimes, dispatched on height:

* Euler-Maclaurin with cutoff ~ 1.1 |t| and ten Bernoulli corrections, exact
  to ~1e-13, used below the fixed crossover height RS_CROSSOVER = 600;
* the Riemann-Siegel main sum plus the leading remainder term, absolute error
  ~ 1e-4 at the crossover falling like t^{-3/4}, used above it.

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
        j = i
        while j < len(ts) and ns[j] <= ng:
            j += 1
        s = sigma + 1j * ts[i:j]
        n = np.arange(1, ng)
        ln = np.log(n)
        S = np.zeros(j - i, dtype=complex)
        step = max(1, _CHUNK // max(j - i, 1))
        for a in range(0, len(n), step):
            w = np.multiply.outer(-s, ln[a:a + step])
            S += np.exp(w, out=w).sum(axis=1)  # in place: one chunk-sized array, not two
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
        j = i
        mv = ms[i]
        while j < len(ts) and ms[j] == mv:
            j += 1
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
