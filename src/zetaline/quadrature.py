"""Quadrature against the Cauchy measure and the closed-form integral suite.

The probability measure is dmu = dt / (2 pi (1/4 + t^2)).  Two kinds of
integral are computed here:

* the coefficient moments and the cross moment, by a deformed-tail line
  integrator on one grid of zeta-product values: the tail integrals over
  |t| > T are evaluated exactly as integrals along the rays t = +-T - iy
  (the integrand is analytic in the lower half t-plane away from the
  imaginary axis and decays there), so no oscillatory truncation error
  enters at all;
* the heavy identity integrals.  Each integrand is written once, as
  g(t, zeta(1/2+it), lib) against a numeric namespace, and one batched,
  adaptive float64 pass (lib = numpy, zeta from ``fastzeta``) integrates it
  over a list of t-segments from t = 0.  Its starting panels are capped at
  max(0.5, t/2), the scale on which the Cauchy density varies.  The tests
  feed the same integrands mpmath values as a reference.  The zero-sum
  integral's segments are the gaps between singular panels at critical-line
  zeros.  ``phi_l2_halfline`` is pi times ``identity_hnorm``, and
  ``log_integral_disk`` is Re log Q(1) of ``outer_function``, whose kernel
  is identically 1 at u = 1.

Truncation bounds for the mean-square identities use the classical growth
of the second moment of zeta (density log(t/2pi) + 2 gamma0); they are
reported separately in ``trunc_bound`` and never folded into ``est_error``.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul
from typing import Optional, Sequence

import numpy as np
from mpmath import mp, mpc, mpf, workdps

from . import fastzeta, zeros
from .coefficients import PARSEVAL_SQ_CEILING, CoeffTable
from .precision import PrecisionCtx
from .zeta import _g_taylor, _zeta_em_raw, stieltjes, zeta_em

__all__ = [
    "QuadratureResult",
    "ToleranceNotMetError",
    "moment_oracle",
    "cross_line_quadrature",
    "cross_moment_closed_form",
    "cross_moment_wow",
    "identity_coffey",
    "identity_hnorm",
    "log_integral_disk",
    "bsy_integral",
    "phi_l2_halfline",
    "outer_function",
    "GAMMA0_F",
]

TWO_PI = 2 * math.pi
GAMMA0_F = 0.5772156649015329


class ToleranceNotMetError(ArithmeticError):
    pass


@dataclass(frozen=True)
class QuadratureResult:
    """value +- est_error, with the analytic bound for any excluded tail."""

    value: object                 # mpf / mpc / float
    est_error: float
    trunc_bound: float
    nodes_used: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.est_error < 0 or self.trunc_bound < 0:
            raise ValueError("error fields must be nonnegative")


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gl_mp(npts: int, dps: int):
    """GL nodes/weights on [-1,1] at ``dps`` digits (Newton-polished)."""
    x0, _ = np.polynomial.legendre.leggauss(npts)
    with workdps(dps + 10):
        xs, ws = [], []
        for xv in x0:
            x = mpf(float(xv))
            for _ in range(1 + dps // 12):
                p0, p1 = mpf(1), x
                for k in range(2, npts + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = npts * (x * p1 - p0) / (x * x - 1)
                x = x - p1 / dp
            p0, p1 = mpf(1), x
            for k in range(2, npts + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = npts * (x * p1 - p0) / (x * x - 1)
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
        return tuple(xs), tuple(ws)


# ---------------------------------------------------------------------------
# Deformed-tail coefficient moments
# ---------------------------------------------------------------------------
#
# For the families f(t) = zeta(sigma0+it)^k the moment  integral against
# conj(e_n) d mu equals
#
#     int_{-T}^{T} F dt  +  2 Im int_0^inf F(T - i y) dy,
#
# F(t) = f(t) E_n(t) M(t), by closing the tail rectangles in the lower half
# t-plane (poles of zeta and of the measure sit on the imaginary axis; the
# integrand decays like 1/|t|^2).  Both pieces are plain nonsingular
# quadratures, and the zeta values on head and ray are shared by every n.

_HEAD_T = 48.0


def _head_edges(T: float, n_osc: int) -> list:
    edges = [0.0]
    while edges[-1] < T:
        t = edges[-1]
        rate = 4.0 * n_osc / (1.0 + 4 * t * t)
        rate += 0.5 * abs(math.log(max(t, 6.3) / TWO_PI))
        w = max(min(3.0 / max(rate, 0.2), T - t), 1e-3)
        edges.append(min(T, t + w))
    return edges


def _ray_edges(T: float, n_osc: int, y_max: float) -> list:
    edges = [0.0]
    while edges[-1] < y_max:
        y = edges[-1]
        rate = 2.0 * n_osc * T / (y * y + T * T) + 0.05
        # floor: the measure factor itself varies on the scale of T
        w = max(min(3.0 / rate, T / 3.0, y_max - y), 0.05)
        edges.append(min(y_max, y + w))
    return edges


_UMAP_PANELS = ((0.0, 0.1), (0.1, 0.22), (0.22, 0.36), (0.36, 0.5),
                (0.5, 0.64), (0.64, 0.78), (0.78, 0.9), (0.9, 1.0))


@lru_cache(maxsize=16)
def _moment_grid(sigmas: tuple, T: float, n_osc: int, wp: int):
    """Shared values of prod_j zeta(sigma_j + it) on the head segment and the +T ray.

    ``sigmas`` lists the abscissae (as strings) with multiplicity:
    (sigma0,) * power for a coefficient moment, (a, b) for the cross moment.
    Each distinct abscissa is evaluated once and raised to its multiplicity.
    """
    with workdps(wp):
        def zprod(shift):
            return reduce(mul, (_zeta_em_raw(mpf(sig) + shift, wp) ** k
                                for sig, k in Counter(sigmas).items()))

        xs, ws = _gl_mp(12, wp)
        head = []
        for a, b in zip(*(lambda e: (e[:-1], e[1:]))(_head_edges(T, n_osc))):
            a, b = mpf(a), mpf(b)
            mid, hw = (a + b) / 2, (b - a) / 2
            for x, w in zip(xs, ws):
                head.append((mid + hw * x, hw * w))
        zhead = tuple(zprod(mpc(0, t)) for t, _ in head)
        ray = []
        redges = _ray_edges(T, n_osc, 6 * T)
        for a, b in zip(redges[:-1], redges[1:]):
            a, b = mpf(a), mpf(b)
            mid, hw = (a + b) / 2, (b - a) / 2
            for x, w in zip(xs, ws):
                ray.append((mid + hw * x, hw * w))
        # remaining y in [6T, inf): map y = 6T/u, du-panels on (0, 1]
        for pa, pb in _UMAP_PANELS:
            pa, pb = mpf(pa), mpf(pb)
            mid, hw = (pa + pb) / 2, (pb - pa) / 2
            for x, w in zip(xs, ws):
                u = mid + hw * x
                ray.append((6 * T / u, hw * w * 6 * T / u ** 2))
        zray = tuple(zprod(y + 1j * mpf(T)) for y, _ in ray)
        return tuple(head), zhead, tuple(ray), zray


def _grid_moments(ns, sigmas: tuple, wp: int, T: float) -> tuple:
    """int prod_j zeta(sigma_j+it) conj(e_n) dmu for each n, on the shared grid.

    Returns ({n: value}, nodes).
    """
    n_osc = max(12, max(abs(int(n)) for n in ns))
    head, zhead, ray, zray = _moment_grid(sigmas, float(T), n_osc, wp)
    out = {}
    with workdps(wp):
        half = mpf("0.5")
        Tm = mpf(T)
        for n in ns:
            acc = mpf(0)
            for (t, w), zv in zip(head, zhead):
                en = ((half + 1j * t) / (half - 1j * t)) ** n
                acc += w * (zv * en).real / (mpf("0.25") + t * t)
            head_val = 2 * acc / (2 * mp.pi)
            accA = mpc(0)
            for (y, w), zv in zip(ray, zray):
                t = Tm - 1j * y
                en = ((half + 1j * t) / (half - 1j * t)) ** n
                accA += w * zv * en / (mpf("0.25") + t * t)
            out[n] = +(head_val + 2 * (accA / (2 * mp.pi)).imag)
    return out, len(head) + len(ray)


def moment_oracle(
    ns: Sequence[int],
    ctx: PrecisionCtx,
    sigma0="0.5",
    power: int = 1,
    T: float = _HEAD_T,
) -> dict:
    """Quadrature values of  int zeta(sigma0+it)^power conj(e_n) dmu  per n.

    Completely independent of the residue-derived coefficient formulas: the
    only inputs are pointwise zeta values on the line and on the two tail
    rays.  Accuracy is limited by panel resolution, a few digits below wp.
    """
    return _grid_moments(ns, (str(mpf(sigma0)),) * power, ctx.working(12), T)[0]


def cross_line_quadrature(a, b, ctx: PrecisionCtx | None = None,
                          T: float = _HEAD_T) -> QuadratureResult:
    """int zeta(a+it) zeta(b+it) dmu(t): the n = 0 moment of the product."""
    ctx = ctx or PrecisionCtx(25)
    vals, nodes = _grid_moments([0], (str(mpf(a)), str(mpf(b))), ctx.working(12), T)
    return QuadratureResult(
        value=vals[0],
        est_error=10.0 ** (-(ctx.digits - 6)),
        trunc_bound=0.0,
        nodes_used=nodes,
        notes={"route": "deformed-tail line integral"},
    )


# ---------------------------------------------------------------------------
# Closed-form cross moments
# ---------------------------------------------------------------------------

def cross_moment_closed_form(a, b, crit: CoeffTable, line_tables: dict, ctx: PrecisionCtx,
                             tol=None):
    """F(a,b) + F(b,a) + ell_0(a) ell_0(b) summed with a geometric tail bound.

    ``line_tables`` maps sigma0 values (as mpf-compatible strings/numbers) to
    their CoeffTable; the critical table covers sigma0 = 1/2.
    F(a,b) = -1/(a-1/2)^2 sum_{m>=1} ell_m(b) ((a-1/2)/(3/2-a))^{m+1}, with
    the a -> 1/2 limit -ell_1(b).  ``tol`` caps the geometric tail (default
    10**-(digits+5)); a table too short for it raises ToleranceNotMetError.
    """
    with workdps(ctx.working()):
        a, b = mpf(a), mpf(b)
        tol = mpf(tol) if tol is not None else mpf(10) ** (-(ctx.digits + 5))
        if not (mpf("0.5") <= a < 1 and mpf("0.5") <= b < 1):
            raise ValueError("cross moment requires a, b in [1/2, 1)")

        def table_for(sig):
            if sig == mpf("0.5"):
                return crit
            for key, tab in line_tables.items():
                if mpf(key) == sig:
                    return tab
            raise KeyError(f"no coefficient table for sigma0 = {sig}")

        def ell0(sig):
            return table_for(sig).value(0)

        def F(x, y):
            """F(x, y): geometric weights from x, coefficients from y."""
            tab_y = table_for(y)
            if x == mpf("0.5"):
                return -tab_y.value(1)
            ratio = (x - mpf("0.5")) / (mpf("1.5") - x)
            acc = mpf(0)
            pw = ratio ** 2
            m = 1
            while m <= tab_y.n_max:
                acc += tab_y.value(m) * pw
                pw *= ratio
                # geometric tail with coefficient square-sum bound
                tail = mp.sqrt(mpf(PARSEVAL_SQ_CEILING)) * abs(pw) / (1 - abs(ratio))
                if tail < tol:
                    break
                m += 1
            else:
                raise ToleranceNotMetError(
                    f"F({x},{y}) needs more than n_max={tab_y.n_max} terms"
                )
            return -acc / (x - mpf("0.5")) ** 2

        return +(F(a, b) + F(b, a) + ell0(a) * ell0(b))


def cross_moment_wow(sigma, ctx: PrecisionCtx):
    """Closed form of  int zeta(sigma+it) zeta(1/2+it) dmu  for sigma in [1/2, 1).

        (gamma0 - 1) zeta(sigma+1/2) + zeta'(sigma+1/2)
            - zeta(3/2-sigma) / ((sigma-1/2)(3/2-sigma))

    The derivative term is the n = +-1 basis pairing; deriving the value by
    residues (or expanding the coefficient bilinear form) shows it must be
    present, and the quadrature route confirms it numerically.  zeta and zeta'
    at sigma+1/2 are the first two Taylor coefficients of one contour.  At
    sigma = 1/2 the formula degenerates to (gamma0-1)^2 - 2 gamma1.
    """
    with workdps(ctx.working()):
        sigma = mpf(sigma)
        if not mpf("0.5") <= sigma < 1:
            raise ValueError("sigma in [1/2, 1) required")
        if sigma == mpf("0.5"):
            g1 = stieltjes(2, PrecisionCtx(max(30, ctx.digits))).gammas[1]
            return +((mp.euler - 1) ** 2 - 2 * g1)
        x = sigma - mpf("0.5")
        a = _g_taylor(sigma + mpf("0.5"), 1, ctx)
        zv = a[0] + 1 / x
        zp = a[1] - 1 / x ** 2
        zr = zeta_em(mpf("1.5") - sigma, ctx).real
        return +((mp.euler - 1) * zv + zp - zr / (x * (mpf("1.5") - sigma)))


# ---------------------------------------------------------------------------
# Identity integrals: each integrand once, one float64 pass
# ---------------------------------------------------------------------------
#
# An identity integrand is one function g(t, z, lib) of the height t and of
# z = zeta(1/2+it), written against a numeric namespace lib that supplies
# log, conj and pi: numpy in the float64 pass, mpmath's mp in the tests'
# multiprecision reference.  Every integrand is even in t (the log|h_b|
# kernel once averaged over z(t) and its conjugate), so the half line is
# integrated and doubled.

def _mu(t, lib):
    """The Cauchy density 1/(2 pi (1/4 + t^2)), mp or numpy."""
    return 1 / (2 * lib.pi * (0.25 + t * t))


def _h_b(t, z):
    """The boundary value zeta(s) - s/(s-1) at s = 1/2 + it, from z = zeta(s)."""
    return z + (0.5 + 1j * t) / (0.5 - 1j * t)


def _coffey(t, z, lib):
    """|zeta|^2 against mu: identity_coffey."""
    return abs(z) ** 2 * _mu(t, lib)


def _hnorm(t, z, lib):
    """|h_b|^2 against mu: identity_hnorm and phi_l2_halfline."""
    return abs(_h_b(t, z)) ** 2 * _mu(t, lib)


def _log_zeta(t, z, lib):
    """log|zeta| against mu: bsy_integral between the zeros."""
    return lib.log(abs(z)) * _mu(t, lib)


def _log_zeta_smooth(t, z, lib, gamma):
    """_log_zeta less its log|t - gamma| singularity at the zero gamma."""
    return (lib.log(abs(z)) - lib.log(abs(t - gamma))) * _mu(t, lib)


def _kernel(z, u):
    """Disk Herglotz kernel K(z, u) = ((z-1)u + 1)/((z+1)u - 1), mp or numpy."""
    return ((z - 1) * u + 1) / ((z + 1) * u - 1)


def _log_h_kernel(u):
    """The integrand of log Q(u): the mean of K(z(t), u) and K(conj z(t), u),
    z(t) = (1/2-it)/(1/2+it), times log|h_b| against mu."""
    u = complex(u)

    def g(t, z, lib):
        w = (0.5 - 1j * t) / (0.5 + 1j * t)
        k = (_kernel(w, u) + _kernel(lib.conj(w), u)) / 2
        return k * lib.log(abs(_h_b(t, z))) * _mu(t, lib)

    return g


def _panels(segs, width) -> list:
    """Consecutive (a, b) panels covering each segment, of width width(a)."""
    out = []
    for a, b in segs:
        while a < b:
            out.append((a, min(b, a + width(a))))
            a = out[-1][1]
    return out


def _native_adaptive(f_vec, segs, base_width, rel_tol: float, abs_floor: float = 1e-13):
    """Adaptive panel quadrature of a vectorized real or complex integrand
    over the segments (a, b).

    The segments start as panels of width base_width(t).  Each generation of
    panels, across all segments, is evaluated in one batched call (coarse
    12-node rule against its two 12-node halves); a panel is accepted when the
    correction drops below rel_tol * |panel| + abs_floor * width, otherwise it
    splits into the next generation, whose coarse rules are the halves already
    evaluated, so only the first generation evaluates 36 nodes per panel and
    every later one 24.  Returns (value, est, nodes).
    """
    xs, ws = np.polynomial.legendre.leggauss(12)
    los, his = np.array(_panels(segs, base_width), dtype=float).reshape(-1, 2).T
    total, est, nodes = 0.0, 0.0, 0  # total turns complex with the integrand
    coarse = None  # the coarse rule of each panel, once its parent has evaluated it
    depth = 0
    while len(los):
        hws = 0.5 * (his - los)
        m2 = 0.5 * hws  # half-panel halfwidth
        lm, rm = los + m2, his - m2  # half-panel midpoints
        pts = [(lm[:, None] + m2[:, None] * xs).ravel(), (rm[:, None] + m2[:, None] * xs).ravel()]
        if coarse is None:
            pts.insert(0, (0.5 * (los + his)[:, None] + hws[:, None] * xs).ravel())
        vals = f_vec(np.concatenate(pts))
        nodes += len(vals)
        k = len(los)
        rules = (vals.reshape(-1, k, 12) * ws).sum(axis=2)
        if coarse is None:
            coarse, rules = rules[0] * hws, rules[1:]
        fine_l, fine_r = rules[0] * m2, rules[1] * m2
        fine = fine_l + fine_r
        corr = np.abs(fine - coarse)
        ok = (corr <= rel_tol * np.abs(fine) + abs_floor * (his - los)) \
            | (depth >= 26) | (his - los < 1e-8)
        total += fine[ok].sum()
        est += float(corr[ok].sum())
        bad = ~ok
        mid_bad = 0.5 * (los[bad] + his[bad])
        los = np.concatenate([los[bad], mid_bad])
        his = np.concatenate([mid_bad, his[bad]])
        coarse = np.concatenate([fine_l[bad], fine_r[bad]])
        depth += 1
    return total, est, nodes


def _osc_width(t: float, periods: float = 2.5, cap: float = 4.0) -> float:
    """Panel width spanning ~periods oscillations of the zeta line integrands."""
    return max(0.4, min(cap, periods * TWO_PI / math.log(max(t, 20.0) / TWO_PI)))



def _line_integral(g, segs, far_width, rel_tol: float, abs_floor: float = 1e-13) -> tuple:
    """2 x the integral of g(t, zeta(1/2+it), np) dt over the segments (a, b).

    One adaptive float64 pass feeds g fastzeta values.  Its starting panels
    are far_width(t) wide, capped at max(0.5, t/2), the scale on which the
    Cauchy density 1/(1/4 + t^2) varies.  Without the cap the width-4 panels
    near t = 0 pass the split-doubling test at rel_tol: coffey over [0, 6]
    then lands 2e-11 off with est 3e-7, against 4e-16 and 2e-16 with it.
    Returns (value, est, nodes), the value complex.
    """
    value, est, nodes = _native_adaptive(
        lambda t: g(t, fastzeta.zeta_critical(t), np), segs,
        lambda t: min(far_width(t), max(0.5, t / 2)), rel_tol, abs_floor,
    )
    return 2 * complex(value), 2 * est, nodes


def _mean_square_tail(T: float, extra: float = 0.0) -> float:
    """(1/pi) (log(T/2pi) + 2 gamma0 + extra + 1)/T: classical second-moment
    density integrated against mu beyond T."""
    return (math.log(T / TWO_PI) + 2 * GAMMA0_F + extra + 1.0) / (math.pi * T)


def identity_coffey(T2: float = 6.0e4, *, T1=None) -> QuadratureResult:
    """int |zeta(1/2+it)|^2 dmu: closed form log(2 pi) - gamma0 ~ 1.2606614015.

    ``T1`` has no effect: the benchmark harness still passes it, and it is
    dropped when the harness stops.
    """
    value, est, nodes = _line_integral(_coffey, [(0.0, T2)], _osc_width, 3e-7)
    return QuadratureResult(value=value.real, est_error=est, trunc_bound=_mean_square_tail(T2),
                            nodes_used=nodes, notes={"T2": T2})


def identity_hnorm(T2: float = 6.0e4) -> QuadratureResult:
    """int |zeta(1/2+it) - s/(s-1)|^2 dmu: closed form log(2 pi) - gamma0 - 1."""
    value, est, nodes = _line_integral(_hnorm, [(0.0, T2)], _osc_width, 3e-7)
    return QuadratureResult(value=value.real, est_error=est,
                            trunc_bound=_mean_square_tail(T2, extra=1.0),
                            nodes_used=nodes, notes={"T2": T2})


def phi_l2_halfline(T2: float = 6.0e4) -> QuadratureResult:
    """int_0^inf |phi(1/2+it)|^2 dt = pi (log 2pi - gamma0 - 1) ~ 0.818896.

    Plain Lebesgue half-line integral (not against mu).  phi comes from the
    identity route phi(s) = (s/(s-1) - zeta(s))/s, so |phi(1/2+it)|^2 =
    |zeta - s/(s-1)|^2 / (1/4 + t^2) is 2 pi times the identity_hnorm
    integrand against mu; value, error and tail bound are pi times its own.
    """
    r = identity_hnorm(T2)
    h0 = _h_b(0.0, fastzeta.zeta_critical(0.0)[0])
    return QuadratureResult(
        value=math.pi * r.value,
        est_error=math.pi * r.est_error,
        trunc_bound=math.pi * r.trunc_bound,
        nodes_used=r.nodes_used,
        notes={"integrand_at_0": float(abs(h0) ** 2 / 0.25)},
    )


# ---------------------------------------------------------------------------
# Logarithmic integrals
# ---------------------------------------------------------------------------

def _log_h_kernel_integral(u, T2: float) -> tuple:
    """int_{|t|<=T2} K(z(t), u) log|h_b(t)| dmu(t), z(t) = (1/2-it)/(1/2+it).

    Returns (value, est, nodes).
    """
    return _line_integral(_log_h_kernel(u), [(0.0, T2)],
                          lambda t: _osc_width(t, periods=1.5, cap=2.0), 1e-6, abs_floor=1e-12)


def log_integral_disk(T2: float = 2.0e4, *, T1=None) -> QuadratureResult:
    """(1/2pi) int_{Re s=1/2} log|zeta(s) - s/(s-1)| |ds|/|s|^2.

    Equals log(1 - gamma0) plus the (nonnegative) sum of log(1/|w|) over the
    disk zeros w of the generating function; the returned notes report that
    excess rather than assuming it away.  This is Re log Q(1) of
    :func:`outer_function`, since K(z, 1) = 1.  ``T1`` has no effect: the
    benchmark harness still passes it, and it is dropped when the harness
    stops.
    """
    expo, est, nodes = _log_h_kernel_integral(1, T2)
    # tail: mu mass 1/(pi T2) times the slowly growing mean of |log|h||
    trunc = (0.5 * math.log(math.log(T2)) + 1.5) / (math.pi * T2)
    floor = math.log(1 - GAMMA0_F)
    return QuadratureResult(
        value=expo.real,
        est_error=est,
        trunc_bound=trunc,
        nodes_used=nodes,
        notes={
            "lower_bound_log1mgamma0": floor,
            "jensen_ceiling": 0.5 * math.log(float(PARSEVAL_SQ_CEILING)),
            "blaschke_excess": expo.real - floor,
        },
    )


_SINGULAR_HALFWIDTH = 0.08


def _bsy_pieces(ords: np.ndarray, T_cutoff: float) -> tuple:
    """Singular-panel halfwidths and the zero-free segments of [0, T_cutoff].

    Zero i gets the halfwidth h_i = min(0.08, gap_i / 3), gap_i the distance
    to its nearer neighbour, so adjacent panels never overlap and each panel's
    smooth part stays two halfwidths clear of the neighbour's singularity.
    The last zero's halfwidth is also capped at T_cutoff - gamma, so no panel
    runs past the cutoff.  Returns (h, segments), the segments the non-empty
    gaps between the panels.
    """
    nearer = np.minimum(np.diff(ords, append=np.inf), np.diff(ords, prepend=-np.inf))
    hs = np.minimum(_SINGULAR_HALFWIDTH, nearer / 3)
    if len(ords):
        hs[-1] = min(hs[-1], T_cutoff - ords[-1])
    edges = np.concatenate([[0.0], np.column_stack([ords - hs, ords + hs]).ravel(), [T_cutoff]])
    return hs, [(a, b) for a, b in zip(edges[::2], edges[1::2]) if a < b]


def _singular_panels(gammas: np.ndarray, hs: np.ndarray) -> tuple:
    """Sum over the zeros g in gammas of int_{g-h}^{g+h} log|zeta(1/2+it)| dmu,
    h the zero's entry in hs.

    On each panel log|zeta| = log|t-g| + smooth: the smooth part goes through
    one 12-node GL rule, all zeros' nodes in one fastzeta call, and the log
    part integrates in closed form against the density linearized at g.
    Returns (value, nodes).
    """
    xs, ws = np.polynomial.legendre.leggauss(12)
    t = (gammas[:, None] + hs[:, None] * xs).ravel()
    smooth = _log_zeta_smooth(t, fastzeta.zeta_critical(t), np, np.repeat(gammas, 12))
    log_part = _mu(gammas, np) * 2 * hs * (np.log(hs) - 1)
    value = (smooth.reshape(-1, 12) * (hs[:, None] * ws)).sum() + log_part.sum()
    return float(value), 12 * len(gammas)


def bsy_integral(
    T_cutoff: float,
    zero_ordinates: Optional[Sequence[float]] = None,
    *,
    T1=None,
) -> QuadratureResult:
    """int log|zeta(1/2+it)| dmu over |t| <= T_cutoff (expected near 0).

    Requires an ordinate list covering every critical-line zero below
    T_cutoff; the bundled table covers t <= 236.5 and the rest is scanned on
    demand.  Each zero gets a singular panel of halfwidth min(0.08, gap/3),
    gap the distance to its nearer zero, and the last one ends at T_cutoff
    at the latest (log piece integrated in closed form); the zero-free
    segments between them go through one adaptive float64 pass, its starting
    panels capped at max(0.5, t/2) like every identity's.  After the fact
    the gaps are re-scanned for sign changes: any uncovered zero is reported
    in ``notes['uncovered']``.  ``T1`` has no effect: the benchmark harness
    still passes it, and it is dropped when the harness stops.
    """
    ords = zeros.ordinates_below(T_cutoff, list(zero_ordinates) if zero_ordinates else None)
    hs, segs = _bsy_pieces(ords, T_cutoff)
    value, est, nodes = _line_integral(
        _log_zeta, segs, lambda t: _osc_width(t, periods=1.2, cap=1.5), 1e-5, abs_floor=1e-11,
    )
    panel = hs > 0  # a zero at T_cutoff itself gets no panel
    sing, n_sing = _singular_panels(ords[panel], hs[panel])

    report = zeros.coverage_gaps(ords, T_cutoff)
    trunc = (0.5 * math.log(math.log(max(T_cutoff, 20.0))) + 1.5) / (math.pi * T_cutoff)
    return QuadratureResult(
        value=value.real + 2 * sing,
        est_error=est,
        trunc_bound=trunc,
        nodes_used=nodes + n_sing,
        notes={
            "zeros_used": int(len(ords)),
            "uncovered": report.missing_intervals,
            "expected_zero_count": report.expected,
        },
    )


def outer_function(u, T2: float = 2.0e4) -> complex:
    """The outer factor Q(u), Re u > 1/2, of zeta(s) - s/(s-1).

    Q(u) = exp( int K(z(t), u) log|h_b(t)| dmu(t) ) with the disk Herglotz
    kernel K(z, u) = ((z-1)u + 1)/((z+1)u - 1) pulled back to the line by
    z(t) = (1/2-it)/(1/2+it).  |Q(u)| reproduces the Poisson form of the
    boundary modulus; Q(1) ties to log_integral_disk.
    """
    if complex(u).real <= 0.5:
        raise ValueError("outer function defined for Re u > 1/2")
    return cmath.exp(_log_h_kernel_integral(u, T2)[0])
