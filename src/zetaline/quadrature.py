"""Quadrature against the Cauchy measure and the closed-form integral suite.

The probability measure is dmu = dt / (2 pi (1/4 + t^2)).  Two kinds of
integral are computed here:

* the coefficient moments and the cross moment, as line integrals from 0
  to T and on down the ray t = T - iy: the tail integrals over |t| > T are
  evaluated exactly as integrals along the rays t = +-T - iy (the integrand
  is analytic in the lower half t-plane away from the imaginary axis and
  decays there), so no oscillatory truncation error enters at all.  Their
  zeta values come from ``fastzeta.zeta_em_line`` at complex s;
* the heavy identity integrals.  Each integrand is written once, as
  g(t, zeta(1/2+it), lib) against a numeric namespace, integrated over a
  list of t-segments from t = 0 with zeta from ``fastzeta``.  Its starting
  panels are capped at max(0.5, t/2), the scale on which the Cauchy density
  varies.  The tests feed the same integrands mpmath values as a reference.
  The zero-sum integral's segments are the gaps between singular panels at
  critical-line zeros.  ``phi_l2_halfline`` is pi times ``identity_hnorm``,
  and ``log_integral_disk`` is Re log Q(1) of ``outer_function``, whose
  kernel is identically 1 at u = 1.

Both kinds go through one batched, adaptive float64 pass (bsy's singular
panels aside, one fixed 12-node rule each), which evaluates each panel at
the 25 Gauss-Kronrod nodes that extend the 12-node Gauss-Legendre rule and
tests the 12-node rule against the 25-node one; the sum of |K25 - G12| over
the accepted panels is the identities' and the cross moment's
``est_error``.  A generation of panels is evaluated in blocks of at most
``fastzeta._BLOCK`` (16,384) nodes, each reduced to its panels' sums before
the next, so no temporary grows with the generation; the integrands are
pointwise, so every value is as from one call over the generation.

Truncation bounds for the mean-square identities use the classical growth
of the second moment of zeta (density log(t/2pi) + 2 gamma0); they are
reported separately in ``trunc_bound`` and never folded into ``est_error``.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from mpmath import mp, mpf, workdps

from . import fastzeta, zeros
from .coefficients import PARSEVAL_SQ_CEILING, CoeffTable
from .precision import PrecisionCtx
from .zeta import taylor_minus_pole, zeta_em

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

    value: float
    est_error: float
    trunc_bound: float
    nodes_used: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.est_error < 0 or self.trunc_bound < 0:
            raise ValueError("error fields must be nonnegative")


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
# integrand decays like 1/|t|^2).  For real t, F(-t) = conj F(t), so the
# moment is Re 2 int F dt along the path from 0 to T and down the ray
# t = T - iy: one nonsingular line integral, whose zeta values every n shares.

_HEAD_T = 48.0


def _line_moments(ns, sigmas: tuple, T: float) -> tuple:
    """int prod_j zeta(sigma_j+it) conj(e_n) dmu for each n, in one adaptive pass.

    The pass runs over x in [0, T + 1): t = x on the head [0, T], and
    t = T - iy, y = T v/(1-v), at x = T + v on the ray, where dt/dx =
    -i T/(1-v)^2.  Its integrand has one row per n, and a panel is accepted
    when every row passes; panels start 2 wide on the head and 1/8 on the
    ray.  ``sigmas`` lists the abscissae with multiplicity:
    (sigma0,) * power for a coefficient moment, (a, b) for the cross moment;
    each distinct abscissa costs one zeta_em_line call per generation of
    panels.  Returns ({n: value}, {n: est}, nodes).
    """
    powers = np.asarray(ns)[:, None]
    multiplicity = Counter(sigmas).items()

    def integrand(x):
        v = np.maximum(x - T, 0.0)
        t = np.minimum(x, T) - 1j * T * v / (1 - v)
        dt = np.where(x > T, -1j * T / (1 - v) ** 2, 1.0)
        z = dt / (math.pi * (0.25 + t * t))
        for sig, k in multiplicity:
            z = z * fastzeta.zeta_em_line(t.real, sig - t.imag) ** k
        return (z * ((0.5 + 1j * t) / (0.5 - 1j * t)) ** powers).real

    x = np.concatenate([np.arange(0.0, T, 2.0), np.arange(T, T + 1.0, 0.125), [T + 1.0]])
    vals, ests, nodes = _native_adaptive(integrand, np.column_stack([x[:-1], x[1:]]), 1e-12, 1e-15)
    return dict(zip(ns, vals.tolist())), dict(zip(ns, ests.tolist())), nodes


def moment_oracle(ns: Sequence[int], sigma0=0.5, power: int = 1, T: float = _HEAD_T) -> dict:
    """Quadrature values of  int zeta(sigma0+it)^power conj(e_n) dmu  per n.

    Completely independent of the residue-derived coefficient formulas: the
    only inputs are pointwise zeta values on the line and on the two tail
    rays, from float64 Euler-Maclaurin.  The values, Python floats, agree
    with the 66-digit coefficient tables to about 1e-15.
    """
    return _line_moments(ns, (float(sigma0),) * power, T)[0]


def cross_line_quadrature(a, b, T: float = _HEAD_T) -> QuadratureResult:
    """int zeta(a+it) zeta(b+it) dmu(t): the n = 0 moment of the product.

    ``est_error`` is the adaptive pass's: each panel's 12-node Gauss rule
    against its 25-node Kronrod extension.
    """
    vals, ests, nodes = _line_moments([0], (float(a), float(b)), T)
    return QuadratureResult(
        value=vals[0],
        est_error=ests[0],
        trunc_bound=0.0,
        nodes_used=nodes,
        notes={"route": "deformed-tail line integral"},
    )


# ---------------------------------------------------------------------------
# Closed-form cross moments
# ---------------------------------------------------------------------------

def cross_moment_closed_form(tab_a: CoeffTable, tab_b: CoeffTable, ctx: PrecisionCtx,
                             tol=None):
    """F(a,b) + F(b,a) + ell_0(a) ell_0(b) summed with a geometric tail bound.

    a and b are the tables' ``sigma0``, None (the critical family) meaning
    1/2.  F(a,b) = -1/(a-1/2)^2 sum_{m>=1} ell_m(b) ((a-1/2)/(3/2-a))^{m+1},
    with the a -> 1/2 limit -ell_1(b).  ``tol`` caps the geometric tail
    (default 10**-(digits+5)); a table too short for it raises
    ToleranceNotMetError.  The tail is bounded with the critical family's
    Parseval ceiling, so at a != 1/2 the table of b must be critical; two
    line tables raise ValueError.
    """
    with workdps(ctx.working()):
        half = mpf("0.5")
        a, b = (half if tab.sigma0 is None else mpf(tab.sigma0) for tab in (tab_a, tab_b))
        tol = mpf(tol) if tol is not None else mpf(10) ** (-(ctx.digits + 5))
        if not (half <= a < 1 and half <= b < 1):
            raise ValueError("cross moment requires a, b in [1/2, 1)")

        def F(x, tab_y):
            """F(x, y): geometric weights from x, coefficients from y's table."""
            if x == half:
                return -tab_y.value(1)
            if tab_y.family != "critical":
                raise ValueError(f"F({x}, .) bounds its tail by the critical family's "
                                 f"Parseval ceiling, not valid for a {tab_y.family!r} table")
            ratio = (x - half) / (mpf("1.5") - x)
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
                    f"F({x}, .) needs more than the {tab_y.family} table's n_max={tab_y.n_max}"
                )
            return -acc / (x - half) ** 2

        return +(F(a, tab_b) + F(b, tab_a) + tab_a.value(0) * tab_b.value(0))


def cross_moment_wow(sigma, ctx: PrecisionCtx):
    """Closed form of  int zeta(sigma+it) zeta(1/2+it) dmu  for sigma in [1/2, 1).

        (gamma0 - 1) zeta(sigma+1/2) + zeta'(sigma+1/2)
            - zeta(3/2-sigma) / ((sigma-1/2)(3/2-sigma))

    The derivative term is the n = +-1 basis pairing; deriving the value by
    residues (or expanding the coefficient bilinear form) shows it must be
    present, and the quadrature route confirms it numerically.  zeta and zeta'
    at sigma+1/2 are the first two Taylor coefficients from
    ``zeta.taylor_minus_pole``, the pole's own terms added back.  At
    sigma = 1/2 the formula degenerates to (gamma0-1)^2 - 2 gamma1, with
    gamma1 = -a_1 from the same pass at s = 1.
    """
    with workdps(ctx.working()):
        sigma = mpf(sigma)
        if not mpf("0.5") <= sigma < 1:
            raise ValueError("sigma in [1/2, 1) required")
        a = taylor_minus_pole(sigma + mpf("0.5"), 1, ctx)[0]
        if sigma == mpf("0.5"):
            return +((mp.euler - 1) ** 2 + 2 * a[1])
        x = sigma - mpf("0.5")
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


def _panels(segs, periods: float = 2.5, cap: float = 4.0) -> np.ndarray:
    """Consecutive (a, b) panels covering each segment, as an (n, 2) array.

    A panel spans ~periods oscillations of the zeta line integrands at its
    left end a, 2 pi periods / log(max(a, 20) / 2 pi) within [0.4, cap], and
    at most max(0.5, a/2), the scale on which the Cauchy density varies.
    Without that cap the two panels of [0, 6] pass the Kronrod test at
    once: coffey over [0, 6] then lands 1.4e-13 off with est 3e-7, against
    7e-16 and 2e-16 with it.  Coffey to 2e4 starts from 9,022 panels.
    """
    scale, log, los, his = periods * TWO_PI, math.log, [], []
    for a, b in np.asarray(segs, dtype=float).reshape(-1, 2).tolist():
        while a < b:  # min and max written out, as this loop is most of the cost
            los.append(a)
            w = scale / log((a if a > 20.0 else 20.0) / TWO_PI)
            w = w if w < cap else cap
            w = w if w > 0.4 else 0.4
            h = a / 2 if a / 2 > 0.5 else 0.5
            a = a + (h if h < w else w)
            a = a if a < b else b
            his.append(a)
    return np.column_stack([los, his])


# The 25-node Gauss-Kronrod rule on [-1, 1] that extends the 12-node
# Gauss-Legendre rule (Laurie, Math. Comp. 66, 1997): the Gauss nodes are
# the odd-indexed Kronrod nodes, and _GAUSS_W are their Gauss weights.  The
# Kronrod rule is exact to degree 37; the tests derive all three at 50 digits.
_KRONROD_X = np.array([
    -0.9969339225295955, -0.9815606342467192, -0.9505377959431213, -0.9041172563704749,
    -0.8435581241611533, -0.7699026741943047, -0.6840598954700559, -0.5873179542866175,
    -0.48133945047815707, -0.3678314989981802, -0.2485057483204693, -0.1252334085114689, 0.0,
    0.1252334085114689, 0.2485057483204693, 0.3678314989981802, 0.48133945047815707,
    0.5873179542866175, 0.6840598954700559, 0.7699026741943047, 0.8435581241611533,
    0.9041172563704749, 0.9505377959431213, 0.9815606342467192, 0.9969339225295955,
])
_KRONROD_W = np.array([
    0.008257711433168396, 0.023036084038982232, 0.038915230469299476, 0.05369701760775625,
    0.06725090705083993, 0.0799202753336017, 0.09154946829504922, 0.10164973227906028,
    0.11002260497764407, 0.11671205350175683, 0.12162630352394839, 0.12458416453615608,
    0.12555689390547434, 0.12458416453615608, 0.12162630352394839, 0.11671205350175683,
    0.11002260497764407, 0.10164973227906028, 0.09154946829504922, 0.0799202753336017,
    0.06725090705083993, 0.05369701760775625, 0.038915230469299476, 0.023036084038982232,
    0.008257711433168396,
])
_GAUSS_X = _KRONROD_X[1::2]
_GAUSS_W = np.array([
    0.04717533638651183, 0.10693932599531843, 0.16007832854334622, 0.20316742672306592,
    0.2334925365383548, 0.24914704581340277, 0.24914704581340277, 0.2334925365383548,
    0.20316742672306592, 0.16007832854334622, 0.10693932599531843, 0.04717533638651183,
])


def _native_adaptive(f_vec, panels, rel_tol: float, abs_floor: float = 1e-13):
    """Adaptive panel quadrature of a vectorized real or complex integrand
    over the starting panels (a, b).

    f_vec maps an array of nodes to values with the nodes on the last axis;
    leading axes, if any, are separate integrands (rows) on shared panels.
    Each generation of panels is evaluated at its 25 Gauss-Kronrod nodes in
    blocks of at most fastzeta._BLOCK nodes (655 panels), one f_vec call per
    block; each block is reduced to its panels' K25 and G12 sums before the
    next is evaluated, and as f_vec is pointwise every sum is the one a
    single call over the generation would give.  A panel is accepted when in
    every row |K25 - G12|, the 12-node Gauss rule's departure from the
    25-node Kronrod rule on the same nodes, is at most
    rel_tol * |K25| + abs_floor * width, otherwise both its halves go to the
    next generation and are evaluated afresh.  The value sums K25 and the
    estimate |K25 - G12| over the accepted panels.  Returns (value, est,
    nodes), value and est shaped like the leading axes.
    """
    los, his = np.asarray(panels, dtype=float).reshape(-1, 2).T
    total, est, nodes = 0.0, 0.0, 0  # total turns complex with the integrand
    depth = 0
    while len(los):
        k = len(los)
        hws = 0.5 * (his - los)
        mids = 0.5 * (los + his)
        step = fastzeta._BLOCK // 25
        ks, gs = [], []
        for i in range(0, k, step):
            b = slice(i, i + step)
            vals = f_vec((mids[b, None] + hws[b, None] * _KRONROD_X).ravel())
            vals = vals.reshape(vals.shape[:-1] + (-1, 25))
            ks.append((vals * _KRONROD_W).sum(axis=-1) * hws[b])
            gs.append((vals[..., 1::2] * _GAUSS_W).sum(axis=-1) * hws[b])
        kronrod, gauss = np.concatenate(ks, axis=-1), np.concatenate(gs, axis=-1)
        nodes += 25 * k
        corr = np.abs(kronrod - gauss)
        passes = corr <= rel_tol * np.abs(kronrod) + abs_floor * (his - los)
        ok = passes.reshape(-1, k).all(axis=0) | (depth >= 26) | (his - los < 1e-8)
        total += kronrod[..., ok].sum(axis=-1)
        est += corr[..., ok].sum(axis=-1)
        bad = ~ok
        mid_bad = 0.5 * (los[bad] + his[bad])
        los = np.concatenate([los[bad], mid_bad])
        his = np.concatenate([mid_bad, his[bad]])
        depth += 1
    return total, est, nodes


def _line_integral(g, panels, rel_tol: float, abs_floor: float = 1e-13) -> tuple:
    """2 x the integral of g(t, zeta(1/2+it), np) dt over the starting panels
    (a, b) of _panels: one adaptive float64 pass that feeds g fastzeta values.
    Returns (value, est, nodes), the value complex.
    """
    value, est, nodes = _native_adaptive(
        lambda t: g(t, fastzeta.zeta_critical(t), np), panels, rel_tol, abs_floor)
    return 2 * complex(value), 2 * float(est), nodes


def _mean_square_tail(T: float, extra: float = 0.0) -> float:
    """(1/pi) (log(T/2pi) + 2 gamma0 + extra + 1)/T: classical second-moment
    density integrated against mu beyond T."""
    return (math.log(T / TWO_PI) + 2 * GAMMA0_F + extra + 1.0) / (math.pi * T)


def identity_coffey(T2: float = 6.0e4, *, T1=None) -> QuadratureResult:
    """int |zeta(1/2+it)|^2 dmu: closed form log(2 pi) - gamma0 ~ 1.2606614015.

    ``T1`` has no effect: the benchmark harness still passes it, and it is
    dropped when the harness stops.
    """
    value, est, nodes = _line_integral(_coffey, _panels([(0.0, T2)]), 3e-7)
    return QuadratureResult(value=value.real, est_error=est, trunc_bound=_mean_square_tail(T2),
                            nodes_used=nodes, notes={"T2": T2})


def identity_hnorm(T2: float = 6.0e4) -> QuadratureResult:
    """int |zeta(1/2+it) - s/(s-1)|^2 dmu: closed form log(2 pi) - gamma0 - 1."""
    value, est, nodes = _line_integral(_hnorm, _panels([(0.0, T2)]), 3e-7)
    return QuadratureResult(value=value.real, est_error=est,
                            trunc_bound=_mean_square_tail(T2, extra=-1.0),
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
    return _line_integral(_log_h_kernel(u), _panels([(0.0, T2)], periods=1.5, cap=2.0), 1e-6,
                          abs_floor=1e-12)


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
    one 12-node GL rule, all zeros' nodes in fastzeta calls of at most
    fastzeta._BLOCK nodes, and the log part integrates in closed form against
    the density linearized at g.  Returns (value, nodes).
    """
    t = (gammas[:, None] + hs[:, None] * _GAUSS_X).ravel()
    g = np.repeat(gammas, 12)
    smooth = np.empty(len(t))
    block = fastzeta._BLOCK
    for i in range(0, len(t), block):
        b = slice(i, i + block)
        smooth[b] = _log_zeta_smooth(t[b], fastzeta.zeta_critical(t[b]), np, g[b])
    log_part = _mu(gammas, np) * 2 * hs * (np.log(hs) - 1)
    value = (smooth.reshape(-1, 12) * (hs[:, None] * _GAUSS_W)).sum() + log_part.sum()
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
    ords = zeros.ordinates_below(T_cutoff, None if zero_ordinates is None else list(zero_ordinates))
    hs, segs = _bsy_pieces(ords, T_cutoff)
    value, est, nodes = _line_integral(
        _log_zeta, _panels(segs, periods=1.2, cap=1.5), 1e-5, abs_floor=1e-11)
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
