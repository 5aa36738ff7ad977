"""Zeros of the partial-sum polynomials f_N inside the unit disk.

f_N(z) = -1 + sum_{n=0}^{N} ell_n z^{n+1} truncates the full series
f(z) = z h(z) - 1 = z zeta(1/(1+z)), whose disk zeros correspond exactly to
zeta zeros in the half-plane Re s > 1/2.  The ell_n are real, so
f_N(conj z) = conj f_N(z) and the roots pair with their conjugates.
Hardware companion-matrix eigenvalues seed an Aberth-Ehrlich polish of one
root per pair in fixed-point Python integers, 20 guard bits beyond the
working precision.  Winding counts on upper half circles, certified arc by
arc, give an independent argument-principle count; the same bounds on
|f_N| against the Cauchy-Schwarz tail bound turn "f_N has no zeros inside
radius r" into a Rouche certificate that the full series has none either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import from_man_exp, to_fixed

from .coefficients import CoeffTable
from .precision import PrecisionCtx, hreal_to_str
from .series import cs_tail_bound

__all__ = [
    "RootReport",
    "CircleTooCloseError",
    "roots_fN",
    "winding_count",
    "tail_radius_certificate",
    "TailCertificate",
]


class CircleTooCloseError(ArithmeticError):
    """A probe circle passes too close to a root for a reliable count."""


@dataclass(frozen=True)
class RootReport:
    N: int
    roots_in_disk: tuple
    min_modulus: Optional[mpf]
    winding_counts: tuple          # ((radius, count), ...)
    residual_max: float
    all_roots: tuple = ()
    polished: bool = True

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "N": self.N,
            "polished": self.polished,
            "residual_max": f"{self.residual_max:.3e}",
            "min_modulus": None if self.min_modulus is None else hreal_to_str(self.min_modulus, 20),
            "winding_counts": [[float(r), c] for r, c in self.winding_counts],
            "roots_in_disk": [
                [hreal_to_str(z.real, 20), hreal_to_str(z.imag, 20)]
                for z in self.roots_in_disk
            ],
        }
        return json.dumps(payload, indent=1)


def _poly_coeffs_ascending(N: int, coeffs: CoeffTable):
    """[-1, ell_0, ..., ell_N]: f_N coefficients by ascending power."""
    return [mpf(-1)] + [coeffs.value(n) for n in range(N + 1)]


def _float_roots(c_asc) -> np.ndarray:
    c = np.array([float(x) for x in c_asc])
    return np.roots(c[::-1])


def _aberth_polish(c_asc, approx: np.ndarray, wp: int, iters: int = 12, tol_exp: int = 30):
    """Aberth-Ehrlich simultaneous refinement of all roots at wp digits.

    Returns roots, float residuals |f_N(z)| and |z| < 1 flags, all in seed
    order, and whether it converged.  The real coefficients and the roots are
    integers with mp.prec + 20 fractional bits: a complex product is four
    integer products and shifts, and each quotient one integer division.
    The step is Jacobi, so a pair reciprocal serves both of its roots.

    The roots pair with their conjugates, so only seeds with Im >= 0 move;
    the sums add the mirror terms: 1/(z_i - conj z_j) for z_i, its negated
    conjugate for z_j, -i/(2 Im z) for a root's own mirror, and for a real
    root the conjugate of its z_j term, so a real seed stays exactly real.
    Seeds must be paired as dgeev (numpy.roots) returns a real matrix's
    eigenvalues, each exact pair consecutive, Im > 0 first, or ValueError.
    """
    low = np.flatnonzero(approx.imag < 0)
    if np.count_nonzero(approx.imag > 0) != len(low) or (approx[low - 1] != approx[low].conj()).any():
        raise ValueError("seeds are not conjugate pairs, positive imaginary part first")
    with workdps(wp):
        prec = mp.prec
        F = prec + 20
        one = 1 << F

        def div(xr, xi, yr, yi):
            d = yr * yr + yi * yi
            s = d.bit_length()
            inv = (1 << (s + F)) // d
            return ((xr * yr + xi * yi) * inv) >> s, ((xi * yr - xr * yi) * inv) >> s

        def p_and_dp(zr, zi):
            pr = pi = dr = di = 0
            for a in coeff:
                dr, di = ((dr * zr - di * zi) >> F) + pr, ((dr * zi + di * zr) >> F) + pi
                pr, pi = ((pr * zr - pi * zi) >> F) + a, (pr * zi + pi * zr) >> F
            return pr, pi, dr, di

        def residual(zr, zi):
            pr = pi = 0
            for a in coeff:
                pr, pi = ((pr * zr - pi * zi) >> F) + a, (pr * zi + pi * zr) >> F
            return abs(complex(pr / one, pi / one))   # int / int: correctly rounded, no overflow

        def to_mpc(x, y):
            return mp.make_mpc((from_man_exp(x, -F, prec, "n"), from_man_exp(y, -F, prec, "n")))

        coeff = [to_fixed(mpf(a)._mpf_, F) for a in reversed(c_asc)]
        zr = [to_fixed(mpf(z.real)._mpf_, F) for z in approx if z.imag >= 0]
        zi = [to_fixed(mpf(z.imag)._mpf_, F) for z in approx if z.imag >= 0]
        n, tol2 = len(zr), one * one // 10 ** (2 * tol_exp)
        for _ in range(iters):
            cr, ci = [0] * n, [0] * n
            for i in range(n):
                ci[i] -= (one << (F - 1)) // zi[i] if zi[i] else 0   # own mirror: -i/(2 Im z)
                for j in range(i + 1, n):
                    wr, wi = zr[i] - zr[j], zi[i] - zi[j]
                    if wr or wi:
                        rr, ri = div(one, 0, wr, wi)
                        cr[i], ci[i], cr[j], ci[j] = cr[i] + rr, ci[i] + ri, cr[j] - rr, ci[j] - ri
                    if zi[i] and zi[j]:     # 1/(z_i - conj z_j)
                        rr, ri = div(one, 0, wr, zi[i] + zi[j])
                        cr[i], ci[i], cr[j], ci[j] = cr[i] + rr, ci[i] + ri, cr[j] - rr, ci[j] + ri
                    elif zi[j]:             # z_i real: conj of its z_j term
                        cr[i], ci[i] = cr[i] + rr, ci[i] - ri
                    elif zi[i]:             # z_j real: conj of its z_i term
                        cr[j], ci[j] = cr[j] - rr, ci[j] + ri
            moved = 0
            for i in range(n):
                pr, pi, dr, di = p_and_dp(zr[i], zi[i])
                if dr or di:
                    qr, qi = div(pr, pi, dr, di)
                    er, ei = div(qr, qi, one - ((qr * cr[i] - qi * ci[i]) >> F),
                                 -((qr * ci[i] + qi * cr[i]) >> F))
                    zr[i], zi[i] = zr[i] - er, zi[i] - ei
                    moved = max(moved, er * er + ei * ei)
            if moved < tol2:
                break
        up = [(to_mpc(x, y), residual(x, y), x * x + y * y < one * one) for x, y in zip(zr, zi)]
        rows = [up[i] if z.imag >= 0 else (to_mpc(zr[i], -zi[i]),) + up[i][1:]   # mirror of up[i]
                for z, i in zip(approx, np.cumsum(approx.imag >= 0) - 1)]
        return (*zip(*rows), moved < tol2)


def roots_fN(N: int, coeffs: CoeffTable, ctx: PrecisionCtx,
             probe_radii=(0.5, 0.8, 0.9)) -> RootReport:
    """All roots of f_N: companion-matrix seed, Aberth-Ehrlich polish.

    Roots with |z| < 1 are listed separately; winding counts at the probe
    radii come from :func:`winding_count` and must agree with the root tally.
    """
    if N > 400:
        raise ValueError("degree cap 400 (precision reserve dominates beyond)")
    if N > coeffs.n_max:
        raise ValueError(f"N={N} exceeds coefficient table n_max={coeffs.n_max}")
    c_asc = _poly_coeffs_ascending(N, coeffs)
    seeds = _float_roots(_fN_float(N, coeffs)[::-1])
    wp = max(ctx.digits, 40) + 15
    zs, residuals, inside, converged = _aberth_polish(c_asc, seeds, wp, tol_exp=ctx.digits // 2 + 10)
    with workdps(wp):
        disk = sorted((z for z, d in zip(zs, inside) if d), key=abs)
        min_mod = +abs(disk[0]) if disk else None
    counts = []
    for rho in probe_radii:
        try:   # 512 starting nodes: only the arcs that fail are bisected
            counts.append((rho, winding_count(N, rho, 512, coeffs)))
        except CircleTooCloseError:
            counts.append((rho, -1))
    return RootReport(
        N=N,
        roots_in_disk=tuple(disk),
        min_modulus=min_mod,
        winding_counts=tuple(counts),
        residual_max=max(residuals, default=0.0),
        all_roots=tuple(zs),
        polished=converged,
    )


_MAX_REFINE = 11         # levels of arcs: the finest is nodes * 2^10 on the full circle
_SCAN_NODES = 8192       # certificate circle nodes; its upper half (4097) is scanned
_EPS = 2.0 ** -53        # unit roundoff of float64
_UP = 1 + 2.0 ** -40     # covers the rounding of each float bound below (N <= 400)
_NODE_ERR = 2.0 ** -45   # bounds |float node - exact node| / radius; angle, exp and product err by < 15u


def _fN_float(N: int, coeffs: CoeffTable) -> np.ndarray:
    """f_N's coefficients as floats, highest power first, from the table's float array."""
    if not coeffs.n_min <= 0 <= N <= coeffs.n_max:
        raise IndexError(f"f_{N} needs entries 0..{N} of a table on [{coeffs.n_min}, {coeffs.n_max}]")
    return np.array(coeffs.float_values[N - coeffs.n_min::-1][:N + 1] + (-1.0,))


@lru_cache(maxsize=16)
def _unit_arc(m: int) -> np.ndarray:
    arc = np.exp(1j * np.linspace(0.0, 2 * np.pi, m, endpoint=False)[: m // 2 + 1])
    arc.flags.writeable = False
    return arc


def _circle_nodes(radius: float, m: int, j=None) -> np.ndarray:
    """Nodes z_j = radius e^{i theta_j} of the m-node circle (m even), theta_j
    as np.linspace(0, 2 pi, m, endpoint=False) places it: the upper half
    0 <= j <= m/2 from a cached read-only unit arc, or the given j."""
    if j is None:
        return radius * _unit_arc(m)
    return radius * np.exp(1j * (j * (2 * np.pi / m)))


def _horner(poly: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f_N at the points z by float Horner on poly from _fN_float."""
    acc = np.zeros(len(z), dtype=complex)
    for a in poly:
        acc *= z
        acc += a
    return acc


def _error_bounds(poly: np.ndarray, radius: float) -> tuple:
    """(M1, u), rounded up, on |z| <= radius (1 + _NODE_ERR): M1 = sum (n+1)
    |ell_n| |z|^n bounds |f_N'|, and u the error of the float Horner value
    f~ at a float z, gamma_{4d} sum |a_k| |z|^k for degree d (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.6 and 5.1:
    (1 + sqrt(2) gamma_2)(1 + u) <= (1 + u)^4 per step) plus u sum |ell_n|
    |z|^{n+1} for the float ell_n.  The sums' own rounding is inside _UP."""
    a = np.abs(poly[::-1])                       # 1, |ell_0|, ..., |ell_N| by ascending power
    d = len(a) - 1
    p = (radius * (1 + _NODE_ERR)) ** np.arange(d + 1)
    gamma = 4 * d * _EPS / (1 - 4 * d * _EPS)
    return float(np.arange(1, d + 1) * a[1:] @ p[:-1]) * _UP, (gamma + _EPS) * float(a @ p) * _UP


def _arc_length(radius: float, m: int) -> float:
    """2 pi radius / m, rounded up, plus a node's rounding error at each end."""
    return (2 * np.pi * radius / m + 2 * _NODE_ERR * radius) * _UP


def winding_count(N: int, radius: float, nodes: int, coeffs: CoeffTable) -> int:
    """Argument-principle count of f_N zeros inside |z| = radius, certified arc by arc.

    f_N(conj z) = conj f_N(z), so the count is round(phase / pi), the sum
    of the principal phase steps on the upper half of a ``nodes``-point
    circle (rounded up to even), whose ends are real.  An arc of length h
    is certified when |f~(z_k)| - 2u > M1 h at an end z_k (_error_bounds):
    f_N maps it into a disk about f~(z_k) that excludes 0, so its float
    step is the true one.  An arc at a real end must pass at that end, where
    f_N is real: the float value there is then within pi/6 of the real axis
    and the rounding is safe.  Failing arcs are bisected at midpoints
    that are bitwise the finer circle's nodes; CircleTooCloseError when one
    still fails at the spacing of nodes * 2^(_MAX_REFINE - 1) nodes.
    """
    if radius <= 0 or radius >= 1.0000001:
        raise ValueError("radius must lie in (0, 1]")
    poly = _fN_float(N, coeffs)
    M1, u = _error_bounds(poly, radius)
    m = max(nodes + nodes % 2, 64)
    v = _horner(poly, _circle_nodes(radius, m))
    j, left, right = np.arange(m // 2), v[:-1], v[1:]   # each arc: left node, values at its ends
    phase = 0.0
    for depth in range(_MAX_REFINE):
        full = m << depth
        if depth:                                           # bisect the arcs that failed
            mid = _horner(poly, _circle_nodes(radius, full, 2 * j + 1))
            j, left, right = np.r_[2 * j, 2 * j + 1], np.r_[left, mid], np.r_[mid, right]
        need = (M1 * _arc_length(radius, full) + 2 * u) * _UP
        at_l, at_r = np.abs(left) > need, np.abs(right) > need
        ok = np.where(j == 0, at_l, np.where(j == full // 2 - 1, at_r, at_l | at_r))
        phase += np.angle(right[ok] / left[ok]).sum()
        if ok.all():
            return int(round(phase / np.pi))
        j, left, right = j[~ok], left[~ok], right[~ok]
    raise CircleTooCloseError(f"{len(j)} arcs of |z|={radius} fail at {full} nodes, "
                              f"min |f_N| {np.abs(np.r_[left, right]).min():.3e}")


@dataclass(frozen=True)
class TailCertificate:
    N: int
    radius: float
    tail_bound: mpf
    min_fN_on_circle: mpf        # least float |f_N| over the scan's nodes
    lower_bound: mpf             # a lower bound on |f_N| over the whole circle
    conclusive: bool


def tail_radius_certificate(N: int, radius, coeffs: CoeffTable) -> TailCertificate:
    """Rouche certificate radius: if the series tail bound

        |f - f_N| = |z| |sum_{n>N} ell_n z^n| <= r cs_tail_bound(N, r)
                  = sqrt(sum_{n>N} ell_n^2) r^{N+2} / sqrt(1 - r^2)

    stays below min |f_N| on |z| = r = radius, the full series has exactly
    as many zeros inside as f_N does.  Every point of the circle lies within
    h/2 of a node of the scanned upper half, so with winding_count's bounds
    |f_N| >= min_j |f~(z_j)| - u - M1 h/2 there.  An inconclusive
    comparison is reported, never raised; a table of another family than
    the critical one raises ValueError.
    """
    with workdps(coeffs.digits):
        r = mpf(radius)
        if not 0 < r < 1:
            raise ValueError("radius must lie in (0, 1)")
        bound = r * cs_tail_bound(coeffs, N, r)
    poly, rf = _fN_float(N, coeffs), float(r)
    M1, u = _error_bounds(poly, rf)
    fmin = float(np.abs(_horner(poly, _circle_nodes(rf, _SCAN_NODES))).min())
    with workdps(coeffs.digits):   # the float |f~| and M1 h/2 may each be an ulp off
        lower = mpf(fmin) / _UP - mpf(u + M1 * _arc_length(rf, _SCAN_NODES) / 2) * _UP
        return TailCertificate(
            N=N,
            radius=rf,
            tail_bound=+bound,
            min_fN_on_circle=mpf(fmin),
            lower_bound=lower,
            conclusive=bool(lower > bound),
        )
