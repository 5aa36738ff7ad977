"""Quadrature against the Cauchy measure and the closed-form integral suite.

The probability measure is dmu = dt / (2 pi (1/4 + t^2)).  The substitution
t = tan(theta/2)/2 turns integrals against mu into (1/2pi) times ordinary
integrals over theta in [-pi, pi], which is how :func:`integrate_mu` sees
them: adaptive Gauss-Legendre panels in theta, a caller-supplied cutoff with
an explicit tail bound when the integrand misbehaves as theta approaches
+-pi (that is, as |t| grows).

Three engines share the work:

* ``integrate_mu``: multiprecision adaptive panels, for bounded or gently
  growing integrands and the orthonormality checks;
* a deformed-tail line integrator for the coefficient moments and the cross
  moment, all on one grid of zeta-product values: the tail integrals over
  |t| > T are evaluated exactly as integrals along the rays t = +-T - iy
  (the integrand is analytic in the lower half t-plane away from the
  imaginary axis and decays there), so no oscillatory truncation error
  enters at all;
* a 35-digit head on [0, T1] plus a vectorized machine-precision far region
  on [T1, T2] for the heavy identity integrals, with singularity subtraction
  at critical-line zeros.  The two mean squares share one assembly
  (``phi_l2_halfline`` is pi times ``identity_hnorm``), and the log|h_b|
  kernel integrals share another (``log_integral_disk`` is Re log Q(1) of
  ``outer_function``, whose kernel is identically 1 at u = 1).

Truncation bounds for the mean-square identities use the classical growth
of the second moment of zeta (density log(t/2pi) + 2 gamma0); they are
reported separately in ``trunc_bound`` and never folded into ``est_error``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np
from mpmath import mp, mpc, mpf, workdps

from . import fastzeta, zeros
from .coefficients import PARSEVAL_SQ_CEILING, CoeffTable
from .precision import PrecisionCtx
from .zeta import _g_taylor, _zeta_em_raw, stieltjes, zeta_em

__all__ = [
    "QuadratureResult",
    "ToleranceNotMetError",
    "integrate_mu",
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
    theta_panels: int
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
# integrate_mu: adaptive multiprecision theta panels
# ---------------------------------------------------------------------------

def integrate_mu(
    f: Callable,
    tol,
    ctx: PrecisionCtx,
    t_cutoff: Optional[float] = None,
    tail_bound: float = 0.0,
    initial_panels: int = 16,
    max_depth: int = 30,
) -> QuadratureResult:
    """integral of f against dmu by adaptive theta-space Gauss-Legendre.

    ``f`` maps a real mpf t to an mpf/mpc value.  With ``t_cutoff`` the
    domain is |t| <= t_cutoff and the caller supplies ``tail_bound`` for what
    was cut; without it the full line is integrated (the integrand must then
    extend continuously to t = +-inf, as e_n does).  est_error sums the last
    refinement corrections of the accepted panels.
    """
    wp = ctx.working()
    with workdps(wp):
        tol = mpf(tol)
        if t_cutoff is None:
            theta_max = +mp.pi
        else:
            theta_max = 2 * mp.atan(2 * mpf(t_cutoff))
        xs, ws = _gl_mp(12, wp)

        def panel(a, b):
            mid, hw = (a + b) / 2, (b - a) / 2
            acc = mpc(0)
            for x, w in zip(xs, ws):
                th = mid + hw * x
                t = mp.tan(th / 2) / 2
                acc += w * f(t)
            return acc * hw / (2 * mp.pi)

        edges = [theta_max * (2 * mpf(i) / initial_panels - 1) for i in range(initial_panels + 1)]
        stack = [(a, b, panel(a, b), 0) for a, b in zip(edges[:-1], edges[1:])]
        total = mpc(0)
        est = mpf(0)
        nodes = len(stack) * 12
        panels = 0
        # per-panel tolerance scaled by the panel's theta share
        while stack:
            a, b, coarse, depth = stack.pop()
            m = (a + b) / 2
            left, right = panel(a, m), panel(m, b)
            nodes += 24
            corr = abs(left + right - coarse)
            share = tol * (b - a) / (2 * theta_max)
            if corr <= share or depth >= max_depth:
                total += left + right
                est += corr
                panels += 2
            else:
                stack.append((a, m, left, depth + 1))
                stack.append((m, b, right, depth + 1))
        if est > tol:
            raise ToleranceNotMetError(f"estimated error {est} exceeds tol {tol}")
        value = total if abs(total.imag) > mpf(10) ** (-(wp - 5)) else total.real
        return QuadratureResult(
            value=+value,
            est_error=float(est),
            trunc_bound=float(tail_bound),
            nodes_used=nodes,
            theta_panels=panels,
        )


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
        theta_panels=nodes // 12,
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
# Native-precision far-region machinery
# ---------------------------------------------------------------------------

def _native_adaptive(f_vec, a: float, b: float, base_width, rel_tol: float,
                     abs_floor: float = 1e-13):
    """Adaptive panel quadrature of a vectorized real or complex integrand on [a, b].

    Each generation of panels is evaluated in one batched call (coarse 12-node
    rule against its two 12-node halves); a panel is accepted when the
    correction drops below rel_tol * |panel| + abs_floor * width, otherwise it
    splits into the next generation.  Returns (value, est, nodes).
    """
    xs, ws = np.polynomial.legendre.leggauss(12)
    edges = [a]
    while edges[-1] < b:
        t = edges[-1]
        edges.append(min(b, t + base_width(t)))
    los = np.array(edges[:-1])
    his = np.array(edges[1:])
    total, est, nodes = 0.0, 0.0, 0  # total turns complex with the integrand
    depth = 0
    while len(los):
        mids, hws = 0.5 * (los + his), 0.5 * (his - los)
        m2 = 0.5 * hws  # half-panel halfwidth
        lm, rm = los + m2, his - m2  # half-panel midpoints
        pts = np.concatenate([
            (mids[:, None] + hws[:, None] * xs).ravel(),
            (lm[:, None] + m2[:, None] * xs).ravel(),
            (rm[:, None] + m2[:, None] * xs).ravel(),
        ])
        vals = f_vec(pts)
        nodes += len(pts)
        k = len(los)
        coarse = (vals[: 12 * k].reshape(k, 12) * ws).sum(axis=1) * hws
        fine_l = (vals[12 * k: 24 * k].reshape(k, 12) * ws).sum(axis=1) * m2
        fine_r = (vals[24 * k:].reshape(k, 12) * ws).sum(axis=1) * m2
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
        depth += 1
    return total, est, nodes


def _osc_width(t: float, periods: float = 2.5, cap: float = 4.0) -> float:
    """Panel width spanning ~periods oscillations of the zeta line integrands."""
    return max(0.4, min(cap, periods * TWO_PI / math.log(max(t, 20.0) / TWO_PI)))


def _mu_density(t: np.ndarray) -> np.ndarray:
    return 1.0 / (TWO_PI * (0.25 + t * t))


def _zeta_line_native(t: np.ndarray) -> np.ndarray:
    return fastzeta.zeta_critical(t)


def _h_boundary_native(t: np.ndarray) -> np.ndarray:
    z = _zeta_line_native(t)
    s_over = -(0.5 + 1j * t) / (0.5 - 1j * t)
    return z - s_over


def _mean_square_tail(T: float, extra: float = 0.0) -> float:
    """(1/pi) (log(T/2pi) + 2 gamma0 + extra + 1)/T: classical second-moment
    density integrated against mu beyond T."""
    return (math.log(T / TWO_PI) + 2 * GAMMA0_F + extra + 1.0) / (math.pi * T)


def _mp_head_line(f, T1: float, wp: int, width: float = 1.0, lo: float = 0.0):
    """Multiprecision panels of f over t in [lo, T1], split-doubling estimate.

    Equal-width t-panels (theta-space panels would cluster nodes at large t,
    exactly where the line integrands oscillate fastest).  Returns
    (value, est, nodes); f maps mpf -> mpf/mpc and must include any measure
    density itself.
    """
    with workdps(wp):
        xs, ws = _gl_mp(12, wp)
        total = mpc(0)
        est = 0.0
        nodes = 0
        edges = [lo]
        while edges[-1] < T1:
            edges.append(min(T1, edges[-1] + width))
        for a, b in zip(edges[:-1], edges[1:]):
            a, b = mpf(a), mpf(b)
            mid, hw = (a + b) / 2, (b - a) / 2
            coarse = mp.fsum(w * f(mid + hw * x) for x, w in zip(xs, ws)) * hw
            fine = mpc(0)
            for aa, bb in ((a, mid), (mid, b)):
                m2, h2 = (aa + bb) / 2, (bb - aa) / 2
                fine += mp.fsum(w * f(m2 + h2 * x) for x, w in zip(xs, ws)) * h2
            total += fine
            est += float(abs(fine - coarse))
            nodes += 36
        return total, est, nodes


def _identity_mean_square(integrand_native, integrand_mp, ctx, T1, T2, extra_tail):
    """Shared assembly for coffey / hnorm: mp head + native far + tail bound.

    Both integrands are even in t, so each side is computed once and doubled.
    """
    wp = ctx.working()
    head, head_est, head_nodes = _mp_head_line(
        lambda t: integrand_mp(t) / (2 * mp.pi * (mpf("0.25") + t * t)), T1, wp
    )
    far, far_est, far_nodes = _native_adaptive(
        lambda t: integrand_native(t) * _mu_density(t),
        T1,
        T2,
        _osc_width,
        3e-7,
    )
    trunc = _mean_square_tail(T2, extra_tail)
    with workdps(wp):
        value = +(2 * (mpf(head.real) + mpf(far)))
    return QuadratureResult(
        value=value,
        est_error=float(2 * (head_est + far_est)),
        trunc_bound=float(trunc),
        nodes_used=head_nodes + far_nodes,
        theta_panels=0,
        notes={"T1": T1, "T2": T2},
    )


def identity_coffey(ctx: PrecisionCtx | None = None, T1=60.0, T2=6.0e4) -> QuadratureResult:
    """int |zeta(1/2+it)|^2 dmu: closed form log(2 pi) - gamma0 ~ 1.2606614015."""
    ctx = ctx or PrecisionCtx(25)

    def f_mp(t):
        z = _zeta_em_raw(mpc(mpf("0.5"), t), ctx.working())
        return (z * mp.conj(z)).real

    def f_nat(t):
        return np.abs(_zeta_line_native(t)) ** 2

    return _identity_mean_square(f_nat, f_mp, ctx, T1, T2, extra_tail=0.0)


def identity_hnorm(ctx: PrecisionCtx | None = None, T1=60.0, T2=6.0e4) -> QuadratureResult:
    """int |zeta(1/2+it) - s/(s-1)|^2 dmu: closed form log(2 pi) - gamma0 - 1."""
    ctx = ctx or PrecisionCtx(25)

    def f_mp(t):
        s = mpc(mpf("0.5"), t)
        z = _zeta_em_raw(s, ctx.working()) - s / (s - 1)
        return (z * mp.conj(z)).real

    def f_nat(t):
        return np.abs(_h_boundary_native(t)) ** 2

    return _identity_mean_square(f_nat, f_mp, ctx, T1, T2, extra_tail=1.0)


def phi_l2_halfline(T1: float = 60.0, T2: float = 6.0e4,
                    ctx: PrecisionCtx | None = None) -> QuadratureResult:
    """int_0^inf |phi(1/2+it)|^2 dt = pi (log 2pi - gamma0 - 1) ~ 0.818896.

    Plain Lebesgue half-line integral (not against mu).  phi comes from the
    identity route phi(s) = (s/(s-1) - zeta(s))/s, so |phi(1/2+it)|^2 =
    |zeta - s/(s-1)|^2 / (1/4 + t^2) is 2 pi times the identity_hnorm
    integrand against mu; value, error and tail bound are pi times its own.
    """
    ctx = ctx or PrecisionCtx(25)
    r = identity_hnorm(ctx, T1, T2)
    with workdps(ctx.working()):
        value = +(mp.pi * r.value)
    return QuadratureResult(
        value=value,
        est_error=math.pi * r.est_error,
        trunc_bound=math.pi * r.trunc_bound,
        nodes_used=r.nodes_used,
        theta_panels=0,
        notes={"integrand_at_0": float(np.abs(_h_boundary_native(np.array([0.0])))[0] ** 2 / 0.25)},
    )


# ---------------------------------------------------------------------------
# Logarithmic integrals
# ---------------------------------------------------------------------------

def _log_h_native(t: np.ndarray) -> np.ndarray:
    return np.log(np.abs(_h_boundary_native(t)))


def _kernel(z, u):
    """Disk Herglotz kernel K(z, u) = ((z-1)u + 1)/((z+1)u - 1), mp or numpy."""
    return ((z - 1) * u + 1) / ((z + 1) * u - 1)


def _log_h_kernel_integral(u, ctx: PrecisionCtx, T1: float, T2: float) -> tuple:
    """int_{|t|<=T2} K(z(t), u) log|h_b(t)| dmu(t), z(t) = (1/2-it)/(1/2+it).

    log|h_b| is even in t, so each t > 0 carries the mean of the kernel at
    z(t) and at its conjugate and the half-line integral is doubled: mp head
    on [0, T1], one native pass on [T1, T2].  Returns (value, est, nodes).
    """
    wp = ctx.working()
    with workdps(wp):
        u = mpc(u)

        def f_mp(t):
            s = mpc(mpf("0.5"), t)
            z = (mpf("0.5") - 1j * t) / (mpf("0.5") + 1j * t)
            k = (_kernel(z, u) + _kernel(mp.conj(z), u)) / 2
            lg = mp.log(abs(_zeta_em_raw(s, wp) - s / (s - 1)))
            return k * lg / (2 * mp.pi * (mpf("0.25") + t * t))

        head, head_est, head_nodes = _mp_head_line(f_mp, T1, wp, width=0.5)
    uc = complex(u)

    def f_nat(t):
        z = (0.5 - 1j * t) / (0.5 + 1j * t)
        k = (_kernel(z, uc) + _kernel(z.conj(), uc)) / 2
        return k * _log_h_native(t) * _mu_density(t)

    far, far_est, far_nodes = _native_adaptive(
        f_nat, T1, T2,
        lambda t: _osc_width(t, periods=1.5, cap=2.0),
        1e-6,
        abs_floor=1e-12,
    )
    with workdps(wp):
        value = +(2 * (head + mpc(far)))
    return value, float(2 * (head_est + far_est)), head_nodes + far_nodes


def log_integral_disk(ctx: PrecisionCtx | None = None, T1=60.0, T2=2.0e4) -> QuadratureResult:
    """(1/2pi) int_{Re s=1/2} log|zeta(s) - s/(s-1)| |ds|/|s|^2.

    Equals log(1 - gamma0) plus the (nonnegative) sum of log(1/|w|) over the
    disk zeros w of the generating function; the returned notes report that
    excess rather than assuming it away.  This is Re log Q(1) of
    :func:`outer_function`, since K(z, 1) = 1.
    """
    ctx = ctx or PrecisionCtx(25)
    expo, est, nodes = _log_h_kernel_integral(1, ctx, T1, T2)
    # tail: mu mass 1/(pi T2) times the slowly growing mean of |log|h||
    trunc = (0.5 * math.log(math.log(T2)) + 1.5) / (math.pi * T2)
    with workdps(ctx.working()):
        value = +expo.real
        floor = mp.log(1 - mp.euler)
        return QuadratureResult(
            value=value,
            est_error=est,
            trunc_bound=float(trunc),
            nodes_used=nodes,
            theta_panels=0,
            notes={
                "lower_bound_log1mgamma0": float(floor),
                "jensen_ceiling": float(mp.log(mpf(PARSEVAL_SQ_CEILING)) / 2),
                "blaschke_excess": float(value - floor),
            },
        )


def _log_zeta_singular_sum(ordinates: np.ndarray, lo: float, hi: float, h: float,
                           native: bool, wp: int = 35) -> tuple:
    """Singular panels around each zero in [lo, hi].

    On [g-h, g+h] the integrand log|zeta| splits as log|t-g| + smooth; the
    smooth part goes through 12-node GL, the log part integrates in closed
    form against the locally linearized measure density.
    """
    sel = ordinates[(ordinates > lo) & (ordinates <= hi)]
    if len(sel) == 0:
        return (0.0 if native else mpf(0)), 0
    xs64, ws64 = np.polynomial.legendre.leggauss(12)
    if native:
        total = 0.0
        for g in sel:
            tt = g + h * xs64
            vals = np.log(np.abs(_zeta_line_native(tt))) - np.log(np.abs(tt - g))
            total += float((vals * (h * ws64) * _mu_density(tt)).sum())
            total += _mu_density(np.array([g]))[0] * 2 * h * (math.log(h) - 1)
        return total, 12 * len(sel)
    with workdps(wp):
        total = mpf(0)
        xs, ws = _gl_mp(12, wp)
        hh = mpf(h)
        for g in sel:
            gm = mpf(float(g))
            for x, w in zip(xs, ws):
                t = gm + hh * x
                sm = mp.log(abs(_zeta_em_raw(mpc(mpf("0.5"), t), wp))) - mp.log(abs(t - gm))
                total += w * hh * sm / (2 * mp.pi * (mpf("0.25") + t * t))
            total += 2 * hh * (mp.log(hh) - 1) / (2 * mp.pi * (mpf("0.25") + gm * gm))
        return total, 12 * len(sel)


def bsy_integral(
    T_cutoff: float,
    zero_ordinates: Optional[Sequence[float]] = None,
    ctx: PrecisionCtx | None = None,
    T1: float = 30.0,
    singular_halfwidth: float = 0.08,
) -> QuadratureResult:
    """int log|zeta(1/2+it)| dmu over |t| <= T_cutoff (expected near 0).

    Requires an ordinate list covering every critical-line zero below
    T_cutoff; the bundled table covers t <= 236.5 and the rest is scanned on
    demand.  Each zero gets a singular panel (log piece integrated in closed
    form); the remaining panels are adaptive.  After the fact the gaps are
    re-scanned for sign changes: any uncovered zero is reported in
    ``notes['uncovered']``.
    """
    ctx = ctx or PrecisionCtx(25)
    ords = zeros.ordinates_below(T_cutoff, list(zero_ordinates) if zero_ordinates else None)
    h = singular_halfwidth

    def far_smooth(t):
        return np.log(np.abs(_zeta_line_native(t))) * _mu_density(t)

    # --- head: mp panels on the zero-free subintervals of [0, T1]
    head_ords = ords[ords <= T1]
    segs = []
    prev = 0.0
    for g in head_ords:
        segs.append((prev, float(g) - h))
        prev = float(g) + h
    segs.append((prev, T1))
    wp = ctx.working()

    def f_mp(t):
        return mp.log(abs(_zeta_em_raw(mpc(mpf("0.5"), t), wp))) / (
            2 * mp.pi * (mpf("0.25") + t * t)
        )

    head_val = mpf(0)
    head_est = 0.0
    head_nodes = 0
    for lo, hi in segs:
        v, e, nn = _mp_head_line(f_mp, hi, wp, width=0.5, lo=lo)
        with workdps(wp):
            head_val += v.real
        head_est += e
        head_nodes += nn
    sing_head, n1 = _log_zeta_singular_sum(ords, 0.0, T1, h, native=False, wp=wp)
    with workdps(wp):
        head_val += sing_head

    # --- far region, native, zeros excluded then singular-panel corrected
    far_ords = ords[(ords > T1) & (ords <= T_cutoff)]
    far_total = 0.0
    far_est = 0.0
    far_nodes = 0
    seg_edges = np.concatenate([[T1], np.repeat(far_ords, 2) + np.tile([-h, h], len(far_ords)), [T_cutoff]])
    for i in range(0, len(seg_edges), 2):
        lo, hi = seg_edges[i], seg_edges[i + 1]
        if hi - lo < 1e-12:
            continue
        v, e, nn = _native_adaptive(
            far_smooth, lo, hi,
            lambda t: _osc_width(t, periods=1.2, cap=1.5),
            1e-5,
            abs_floor=1e-11,
        )
        far_total += v
        far_est += e
        far_nodes += nn
    sing_far, n2 = _log_zeta_singular_sum(ords, T1, T_cutoff, h, native=True)
    far_total += sing_far

    report = zeros.coverage_gaps(ords, T_cutoff)
    trunc = (0.5 * math.log(math.log(max(T_cutoff, 20.0))) + 1.5) / (math.pi * T_cutoff)
    with workdps(wp):
        value = +(2 * (head_val + mpf(far_total)))
    return QuadratureResult(
        value=value,
        est_error=float(2 * (head_est + far_est)),
        trunc_bound=float(trunc),
        nodes_used=head_nodes + far_nodes + n1 + n2,
        theta_panels=0,
        notes={
            "zeros_used": int(len(ords)),
            "uncovered": report.missing_intervals,
            "expected_zero_count": report.expected,
        },
    )


def outer_function(u, ctx: PrecisionCtx | None = None,
                   T1: float = 60.0, T2: float = 2.0e4) -> mpc:
    """The outer factor Q(u), Re u > 1/2, of zeta(s) - s/(s-1).

    Q(u) = exp( int K(z(t), u) log|h_b(t)| dmu(t) ) with the disk Herglotz
    kernel K(z, u) = ((z-1)u + 1)/((z+1)u - 1) pulled back to the line by
    z(t) = (1/2-it)/(1/2+it).  |Q(u)| reproduces the Poisson form of the
    boundary modulus; Q(1) ties to log_integral_disk.
    """
    ctx = ctx or PrecisionCtx(25)
    with workdps(ctx.working()):
        if mpc(u).real <= mpf("0.5"):
            raise ValueError("outer function defined for Re u > 1/2")
        return +mp.exp(_log_h_kernel_integral(u, ctx, T1, T2)[0])
