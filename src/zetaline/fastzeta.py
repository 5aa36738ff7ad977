"""Vectorized machine-precision zeta on and to the right of the critical line.

Two routes on the critical line, dispatched on |t| at RS_CROSSOVER = 200
(negative t by conjugate symmetry):

* below it, the pole 1/(s - 1) = (-1/2 - it)/(1/4 + t^2) plus a polynomial
  table of the entire g(s) = zeta(s) - 1/(s - 1); zeta itself, its pole at
  t = -i/2, would need over a hundred terms on [0, T_CHEB = 10].  Re g is
  even in t and Im g odd, so on (-T_CHEB, T_CHEB) one table holds
  Re g = P(y) and Im g = x Q(y), x = t / T_CHEB, y = x^2: 17 terms per row
  by Horner in y, where the series in x has 34.  Each unit segment above
  holds 17 terms in its local x in [-1, 1].  Both tables come from
  Euler-Maclaurin samples at Chebyshev nodes, once per process (the unit
  table's 6,080 take about 10 ms).  A point costs 2 numpy operations per
  term after the unit table's one gather of its row: 31M points/s on
  [0, 10] and 10M on [10, 200] (9M in an orbit chunk's 1.5e3), in batches
  of 3e4 on 2 vCPUs, against Euler-Maclaurin's 1.4M;
* the Riemann-Siegel main sum plus Gabcke's remainder terms C0..C5, above
  it, each a polynomial in (p - 1/2)^2 economized on |p - 1/2| <= 1/2 to
  13, 13, 13, 12, 11 and 11 terms (_rs_polys).  Against mpmath.siegelz,
  max over 80 random heights per band, the error in Z is 3.4e-10 on
  [200, 300] (the dropped C6 sets it), 6.8e-11 on [300, 600], 8.1e-12 on
  [600, 2000], 7.0e-11 on [2000, 2e4] and 3.3e-10 on [2e4, 6e4], and 2.8e-9
  on 20 heights near 1e6: above 2000 the float64 phase t ln p sets it
  again.  The leading term C0 alone left 1.8e-3 on [200, 600] and 9.7e-4
  on [600, 2000].

Euler-Maclaurin (zeta_em_line), with cutoff N ~ 1.1 |t| and ten Bernoulli
corrections, serves the tables' samples and every s off the critical line.
On the critical line its error is at most 3.2e-13 on 2,000 random heights
in [10, 200] (median 2.1e-14) and 9.3e-13 on 1,000 in [200, 600]; on 150
random heights in [-200, 600] plus both sides of each height where N
crosses a power of two it is at most 2.8e-13 for sigma in {1/2, 3/4, 3/2,
2}, relative where |zeta| > 1.  The phase t ln n rounded in float64 sets
it, and it grows with t.  The moment oracle's pass reaches Re s = 2.5e5,
where the cutoff's sigma term, capped at sigma = 2, keeps N at ~1.1 |t|;
it is within 3.4e-15 of mpmath.zeta on the rays up to Re s = 1.0e6, and
3.4e-15 on the circle s = 1/(1+z), |z| = 0.99, relative where |zeta| > 1.

Both main sums come from one prime fill (_prime_fill) of
sum_{n <= count} n^-s: one tan of the half phase per prime, one complex
product per composite, n^-s = p^-s (n/p)^-s with p its smallest prime
factor.  The points are sorted by count, descending, so that row n of the
fill covers the prefix of points with count >= n; each point adds its terms
in order of n, and a chunk holds at most _RS_FILL complex elements.
Euler-Maclaurin takes count = N - 1, Riemann-Siegel count = m.

These back the quadrature of the identity integrals, the moment oracle and
the ergodic orbit averages, where tolerances are 1e-2..1e-8 and up to
millions of evaluations are needed; everything precision-critical goes
through :mod:`zetaline.zeta` instead.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .precision import smallest_prime_factors

__all__ = [
    "T_CHEB",
    "RS_CROSSOVER",
    "zeta_em_line",
    "zeta_rs_line",
    "zeta_critical",
    "hardy_theta",
    "hardy_Z",
]

T_CHEB = 10.0
RS_CROSSOVER = 200.0

# B_{2k}/(2k)! for k = 1..10
_B2K = [1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510, 43867/798, -174611/330]
_B2K_OVER_FACT = [b / math.factorial(2 * (k + 1)) for k, b in enumerate(_B2K)]

_RS_FILL = 1 << 18  # complex elements per prime-fill chunk


def _prime_fill(t: np.ndarray, count: np.ndarray, sigma=0.5):
    """Yield (idx, S) chunk by chunk, S = sum_{n <= count} n^(-sigma - it) at t[idx].

    The terms fill by primes: p^-s = p^-sigma e^{-it ln p} per prime p, by
    one tan of the half phase (_cis), and the product p^-s (n/p)^-s per
    composite n, p its smallest prime factor.  sigma is a scalar or an array
    shaped like t; only an array pays a power per prime and point.  The
    points are taken in order of count, descending and stable, so row n of
    the fill covers the prefix of points with count >= n: one numpy call per
    row and chunk, whatever the spread of counts.  Only rows n <= c_max/2 can be factors, so only
    they are stored, each as long as its prefix; the rest go straight into
    the sum.  A chunk takes _RS_FILL // (c_max/2 + 2) points, so its stored
    rows, sum and scratch rows stay within _RS_FILL complex elements
    (4 MiB).  Each point adds its terms in order of n, so its value does not
    depend on the batch or the chunk.
    """
    vary = np.ndim(sigma) > 0
    key = -count
    if len(count) and count.max() < 1 << 15:
        key = key.astype(np.int16)  # numpy radix-sorts 16-bit keys
    order = np.argsort(key, kind="stable")
    i = 0
    while i < len(t):
        c0 = int(count[order[i]])
        h = c0 // 2  # the last row that is a factor of some later row
        idx = order[i:i + max(1, _RS_FILL // (h + 2))]
        tc, k = t[idx], len(idx)
        sc = sigma[idx] if vary else sigma
        rows = np.searchsorted(-count[idx], -np.arange(c0 + 1), side="right").tolist()
        spf = smallest_prime_factors(1 << c0.bit_length())
        start = np.cumsum([0] + rows[2:h + 1]).tolist()
        F = np.empty(start[-1], dtype=complex)  # row n = 2..h at F[start[n - 2]:], rows[n] long
        S = np.ones(k, dtype=complex)
        scratch = np.empty(k, dtype=complex)
        half, u2 = np.empty((2, k))
        for n in range(2, c0 + 1):
            c = rows[n]
            row = F[start[n - 2]:start[n - 2] + c] if n <= h else scratch[:c]
            p = spf[n]
            if p == n:
                w = p ** -(sc[:c] if vary else sc)
                _cis(np.multiply(tc[:c], -0.5 * math.log(p), out=half[:c]), w, row, u2[:c])
            else:
                a, b = start[p - 2], start[n // p - 2]
                np.multiply(F[a:a + c], F[b:b + c], out=row)
            S[:c] += row
        yield idx, S
        del F  # before the next chunk allocates its own
        i += k


def zeta_em_line(t, sigma=0.5) -> np.ndarray:
    """zeta(sigma + i t) for an array of real heights t, Euler-Maclaurin.

    sigma is a scalar or an array shaped like t, so s = sigma + it may be
    any complex point with Re s >= 1/2.  The cutoff is
    N = max(16, ceil(1.1 |t| + 2 min(sigma, 2) + 10)) per point: the sum
    over n < N from _prime_fill, plus N^-s / 2, N^(1-s) / (s - 1) and ten
    Bernoulli corrections.  The cap on sigma costs nothing far to the right,
    where N^-sigma makes the corrections vanish, and keeps N small there
    (Re s reaches 2.5e5 on the moment oracle's rays).  Negative t are allowed
    (zeta_critical sends them here).  Intended for |t| <= ~3000 (cost grows
    linearly with height).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.ndim(sigma):
        sigma = np.broadcast_to(np.asarray(sigma, dtype=float), t.shape)
    out = np.empty(t.shape, dtype=complex)
    N = np.maximum(16, np.ceil(1.1 * np.abs(t) + 2 * np.minimum(sigma, 2) + 10)).astype(int)
    for idx, S in _prime_fill(t, N - 1, sigma):
        s = (sigma[idx] if np.ndim(sigma) else sigma) + 1j * t[idx]
        n = N[idx].astype(float)
        nms = np.exp(-s * np.log(n))
        S += nms * n / (s - 1) + nms / 2
        pw = nms / n
        poch = s.copy()
        for k in range(1, 11):
            if k > 1:
                poch = poch * (s + 2 * k - 3) * (s + 2 * k - 2)
                pw = pw / (n * n)
            S += _B2K_OVER_FACT[k - 1] * poch * pw
        out[idx] = S
    return out


# (lo, width, segments, nodes, tail) of the unit table of g: its tail sits
# above the samples' noise, which grows with t to 6e-14.
_UNIT = (T_CHEB, 1.0, int(RS_CROSSOVER - T_CHEB), 32, 1e-13)
# Points per block of a large evaluation, so that its temporaries stay under
# 1 MB: a Horner pass of the even/odd table, a generation of the adaptive
# quadrature, the zero scan's grid and its coverage rescan.
_BLOCK = 16_384
_GATHER = 1 << 19  # bytes of unit-table rows gathered per Horner pass


@lru_cache(maxsize=None)
def _fit(lo: float, width: float, count: int, nodes: int, tail: float) -> np.ndarray:
    """Coefficients of g(1/2 + it) = zeta - 1/(s - 1) on `count` segments.

    Entry [i, k] holds (Re, Im) of the coefficient of x^k on segment i,
    t = lo + width (i + (1 + x)/2).  A DCT of zeta_em_line minus the pole at
    `nodes` Chebyshev points per segment gives the Chebyshev series, cut at
    the first degree where every segment's coefficient is below `tail`;
    T_{k+1} = 2x T_k - T_{k-1} turns it into powers of x.  The cache keeps
    every fit, so each table is fitted once per process.
    """
    j = np.arange(nodes) + 0.5
    t = lo + width * (np.arange(count) + (np.cos(np.pi * j / nodes)[:, None] + 1) / 2)
    g = zeta_em_line(t.ravel()).reshape(t.shape) - (-0.5 - 1j * t) / (0.25 + t * t)
    # a plain DCT, since numpy.fft would be one more module in every process
    c = np.cos(np.pi / nodes * np.outer(np.arange(nodes), j)) @ np.hstack([g.real, g.imag]) * (2 / nodes)
    c[0] /= 2
    small = np.append(np.abs(c).max(axis=1) < tail, True)  # all of c if no degree is
    c = c[: int(np.argmax(small)) + 1]
    return (_cheb_powers(len(c)).T @ c).reshape(len(c), 2, count).transpose(2, 0, 1).copy()


def _even_odd_series(nodes: int = 80, tail: float = 1e-15) -> np.ndarray:
    """Chebyshev series in x = t / T_CHEB of (Re g, Im g) on (-T_CHEB, T_CHEB), one per column.

    As in _fit, but each DCT phase k (2j + 1) is reduced mod 4 nodes before
    the cosine: unreduced, its rounding leaves 1e-15 of noise in every term.
    Cut at `tail`, 4.5 ulps of max |g| = 1.55, it has 34 terms.  Re g is even
    in t and Im g odd, by zeta(conj s) = conj zeta(s), so its odd Re and
    even Im terms are that noise, 2.2e-16 and 1.8e-16 at most.
    """
    j = 2 * np.arange(nodes) + 1
    t = T_CHEB * np.cos(np.pi / (2 * nodes) * j)
    g = zeta_em_line(t) - (-0.5 - 1j * t) / (0.25 + t * t)
    phase = np.outer(np.arange(nodes), j) % (4 * nodes)
    c = np.cos(np.pi / (2 * nodes) * phase) @ np.stack([g.real, g.imag], axis=1) * (2 / nodes)
    c[0] /= 2
    small = np.append(np.abs(c).max(axis=1) < tail, True)
    return c[: int(np.argmax(small)) + 1]


@lru_cache(maxsize=None)
def _even_odd() -> np.ndarray:
    """Rows (P, Q) of g(1/2 + it) = P(y) + i x Q(y), x = t / T_CHEB, y = x^2,
    low order first: 17 terms each, the even powers of _even_odd_series's Re
    and the odd ones of its Im."""
    c = _even_odd_series()
    p = _cheb_powers(len(c)).T @ c
    return np.stack([p[::2, 0], p[1::2, 1]])


def _cheb_powers(n: int) -> np.ndarray:
    """Row k < n: T_k in powers of x, by T_{k+1} = 2x T_k - T_{k-1}."""
    cheb = np.eye(n)
    for k in range(2, n):
        cheb[k] = np.roll(2 * cheb[k - 1], 1) - cheb[k - 2]
    return cheb


def _zeta_even_odd(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for |t| < T_CHEB from _even_odd: Re = P(y) - 1/2 / d and
    Im = x (Q(y) - T_CHEB / d), d = 1/4 + t^2, both rows by one Horner in y.
    Only x is odd in t, so -t gives the conjugate bit for bit, signed zeros too."""
    rows = _even_odd()[..., None]  # (2, term, 1)
    out = np.empty(len(t), dtype=complex)
    for i in range(0, len(t), _BLOCK):
        tb = t[i:i + _BLOCK]
        x = tb / T_CHEB
        y = x * x
        acc = np.broadcast_to(rows[:, -1], (2, len(tb))).copy()
        for k in range(rows.shape[1] - 2, -1, -1):
            acc *= y
            acc += rows[:, k]
        d = 0.25 + tb * tb
        np.subtract(acc[0], 0.5 / d, out=out.real[i:i + _BLOCK])
        acc[1] -= T_CHEB / d
        np.multiply(x, acc[1], out=out.imag[i:i + _BLOCK])
    return out


def _zeta_unit(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) for T_CHEB <= |t| < RS_CROSSOVER from the unit table: the
    pole (-1/2 - it)/(1/4 + t^2) plus g by Horner in the local x of each
    point's segment, real and imaginary parts as two rows; a pass gathers its
    points' rows in one take of at most _GATHER bytes.  A negative t negates
    |t|'s imaginary row."""
    lo, width = _UNIT[:2]
    c = _fit(*_UNIT)
    step = _GATHER // c[0].nbytes
    out = np.empty(len(t), dtype=complex)
    for i in range(0, len(t), step):
        tb = t[i:i + step]
        a = np.abs(tb)
        u = (a - lo) / width
        seg = u.astype(np.intp)
        x, rows = 2 * (u - seg) - 1, c.take(seg, axis=0).T  # (2, term, point)
        acc = rows[:, -1].copy()
        for k in range(rows.shape[1] - 2, -1, -1):
            acc *= x
            acc += rows[:, k]
        d = 0.25 + tb * tb
        im = out.imag[i:i + step]
        np.subtract(acc[0], 0.5 / d, out=out.real[i:i + step])
        np.subtract(acc[1], a / d, out=im)
        if np.signbit(tb).any():
            im *= np.copysign(1.0, tb)
    return out


def hardy_theta(t) -> np.ndarray:
    """Riemann-Siegel theta, asymptotic series (good to ~1e-10 for t >= 10)."""
    t = np.asarray(t, dtype=float)
    return (
        (t / 2) * np.log(t / (2 * np.pi)) - t / 2 - np.pi / 8
        + 1 / (48 * t) + 7 / (5760 * t ** 3) + 31 / (80640 * t ** 5)
    )


# Gabcke's remainder terms, C_k(p) = sum of c Psi^(j)(p) / pi^e over the
# rows (j, c, e) of k: Edwards, Riemann's Zeta Function, sec. 7.6, for C0..C4,
# and C5 from the d-recursion of Arias de Reyna (Math. Comp. 80, 2011; mpmath's
# rszeta) rewritten in Psi.
_RS_TERMS = (
    ((0, 1, 0),),
    ((3, -1 / 96, 2),),
    ((2, 1 / 64, 2), (6, 1 / 18432, 4)),
    ((1, -1 / 64, 2), (5, -1 / 3840, 4), (9, -1 / 5308416, 6)),
    ((0, 1 / 128, 2), (4, 19 / 24576, 4), (8, 11 / 5898240, 6), (12, 1 / 2038431744, 8)),
    ((3, -5 / 3072, 4), (7, -901 / 82575360, 6), (11, -7 / 849346560, 8),
     (15, -1 / 978447237120, 10)),
)
_RS_TAIL = 1e-17  # dropped polynomial tail, absolute on Z at RS_CROSSOVER, |x| <= 1/2


@lru_cache(maxsize=2)
def _rs_polys(economized: bool = True) -> tuple:
    """C_0..C_5 as polynomials in y = x^2, x = p - 1/2, low order first.

    In x, Psi = -cos(2 pi x^2 - 5 pi/8) / cos(2 pi x) is entire and even, so
    C_k is a polynomial in x^2, times x for odd k.  The Taylor coefficients
    of Psi come from a 128-node trapezoid rule on |x| = 1, which keeps the
    float64 error of every C_k below 2e-15 on |x| <= 1/2; each C_k has 32
    terms in y.  Economized, C_k sheds its top Chebyshev terms c_j T_j(8y - 1) on
    [0, 1/4] while the sum of the shed |c_j| stays below _RS_TAIL
    tau^(k + 1/2), tau = sqrt(RS_CROSSOVER / 2 pi): 13, 13, 13, 12, 11 and 11
    terms are left, where the same cut of the Taylor series left 116.
    """
    nodes, deg = 128, 64  # deg in x
    node = np.arange(nodes)
    x = np.exp(2j * np.pi * node / nodes)
    psi = -np.cos(2 * np.pi * x * x - 5 * np.pi / 8) / np.cos(2 * np.pi * x)
    # a plain DFT, since numpy.fft would be one more module in every process
    q = np.array([(psi * x[-n * node % nodes]).sum().real for n in range(deg + 16)]) / nodes
    ramp = np.arange(1, deg + 16, dtype=float)
    # row j: T_j(8y - 1) = T_2j(2x), its powers (2x)^2i = 4^i y^i
    cheb = _cheb_powers(deg)[::2, ::2] * 4.0 ** np.arange(deg // 2)
    tau_min = math.sqrt(RS_CROSSOVER / (2 * math.pi))
    out = []
    for k, terms in enumerate(_RS_TERMS):
        a = np.zeros(deg)
        for j, c, e in terms:
            d = q[j:j + deg].copy()
            for i in range(j):  # (m + j)! / m! = (m + 1)...(m + j)
                d *= ramp[i:i + deg]
            a += c / math.pi ** e * d
        a = a[k % 2::2]  # the parity of C_k, as a polynomial in x^2
        budget = _RS_TAIL * tau_min ** (k + 0.5) if economized else 0.0
        while abs(top := a[-1] / cheb[len(a) - 1, len(a) - 1]) < budget:
            budget -= abs(top)
            a = a[:-1] - top * cheb[len(a) - 1, :len(a) - 1]
        out.append(a)
    return tuple(out)


def _rs_term(k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C_k at x = p - 1/2, y = x^2, by one Horner loop in y."""
    poly = _rs_polys()[k]
    acc = np.full_like(y, poly[-1])
    for c in poly[-2::-1]:
        acc *= y
        acc += c
    return acc * x if k % 2 else acc


def hardy_Z(t) -> np.ndarray:
    """The real Hardy function Z(t) = e^{i theta} zeta(1/2 + it), t >= 10.

    Below RS_CROSSOVER it rotates zeta_critical's table value, within
    1.2e-13 of mpmath.siegelz on 400 random heights in [10, 200].
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.shape)
    lo = t < RS_CROSSOVER
    if lo.any():
        out[lo] = (np.exp(1j * hardy_theta(t[lo])) * zeta_critical(t[lo])).real
    hi = ~lo
    if hi.any():
        out[hi] = _hardy_Z_rs(t[hi])[0]
    return out


def _cis(half: np.ndarray, w: float, out: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """out = w e^{2i half}, from u = tan(half): w (1 - u^2 + 2iu) / (1 + u^2).

    numpy vectorizes tan but calls libm once per element for cos and sin, so
    this costs about a fifth of cos plus sin; it is within 4.0e-16 of
    w (cos + i sin)(2 half) on 6e6 random phases up to 1e9.  half is
    overwritten by u, and u2 is scratch.
    """
    np.tan(half, out=half)
    np.multiply(half, half, out=u2)
    u2 += 1
    np.divide(2 * w, u2, out=u2)  # 2w / (1 + u^2)
    np.subtract(u2, w, out=out.real)
    np.multiply(half, u2, out=out.imag)
    return out


def _rs_remainder(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(-1)^(m-1) tau^(-1/2) sum_{k <= 5} C_k(p) tau^(-k), tau = sqrt(t / 2 pi),
    p = tau - m, by Horner in 1/tau over the six Horner loops of _rs_term."""
    tau = np.sqrt(t / (2 * np.pi))
    x = (tau - m) - 0.5
    y = x * x
    inv = 1 / tau
    rem = _rs_term(len(_RS_TERMS) - 1, x, y)
    for k in range(len(_RS_TERMS) - 2, -1, -1):
        rem *= inv
        rem += _rs_term(k, x, y)
    rem *= np.where(m & 1, 1.0, -1.0)
    return rem * np.sqrt(inv)


def _hardy_Z_rs(t: np.ndarray) -> tuple:
    """(Z, e^{i theta}) at t, Z(t) = 2 Re(e^{i theta} sum_{n <= m} n^(-1/2 - it))
    plus the remainder (_rs_remainder), m = floor(sqrt(t / 2 pi)); Z is good
    to 1e-9 for t >= 200.  The sum is _prime_fill's, and e^{i theta} is one
    more _cis per point.
    """
    m = np.floor(np.sqrt(t / (2 * np.pi))).astype(int)
    out = np.empty(len(t))
    rot = np.empty(len(t), dtype=complex)
    for idx, S in _prime_fill(t, m):
        tc, k = t[idx], len(idx)
        rot[idx] = r = _cis(hardy_theta(tc) * 0.5, 1.0, np.empty(k, dtype=complex), np.empty(k))
        out[idx] = 2 * (r * S).real + _rs_remainder(tc, m[idx])
    return out, rot


def zeta_rs_line(t) -> np.ndarray:
    """zeta(1/2 + it) from the Riemann-Siegel Z via zeta = Z e^{-i theta}."""
    Z, rot = _hardy_Z_rs(np.atleast_1d(np.asarray(t, dtype=float)))
    np.conjugate(rot, out=rot)
    rot *= Z
    return rot


def zeta_critical(t) -> np.ndarray:
    """zeta(1/2 + it) for real t, by two routes (see the module notes).

    * |t| < RS_CROSSOVER: the pole plus a polynomial table of g.  Within
      2.5e-15 of mpmath.zeta on 400 random heights in [0, 10]; on 2,000 in
      [10, 200], within 1.0e-13 (median 1.3e-14), relative where |zeta| > 1,
      where Euler-Maclaurin, the table's samples, is within 1.6e-13.
    * |t| >= RS_CROSSOVER: Riemann-Siegel with C0..C5, within 3.4e-10 on
      [200, 300], 7e-11 on [300, 2e4] and 3.3e-10 on [2e4, 6e4]; the
      float64 phase loosens it further up (2.8e-9 near 1e6).

    Negative t and -0.0 take the conjugate of the value at |t|, bit for bit:
    below T_CHEB the imaginary part is x = t / T_CHEB times a factor even in
    t, a unit-table block that holds one multiplies its imaginary row by
    copysign(1, t), and Riemann-Siegel conjugates its gathered points.  Each
    height's value depends on that height alone, not on the batch.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.abs(t)
    out = np.empty(t.shape, dtype=complex)
    small = a < T_CHEB
    rs = ~(a < RS_CROSSOVER)
    for mask, table in ((small, _zeta_even_odd), (~(small | rs), _zeta_unit)):
        if mask.any():
            out[mask] = table(t[mask])
    if rs.any():
        z = zeta_rs_line(a[rs])
        out[rs] = np.conjugate(z, out=z, where=np.signbit(t[rs]))
    return out
