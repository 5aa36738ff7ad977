"""Riemann zeta on vertical lines, its derivatives, and the Laurent data at s=1.

Everything here reduces to two workhorses:

* an Euler-Maclaurin evaluator for zeta(s), with the trapezoid cutoff chosen
  from the working precision and |Im s|, and Bernoulli corrections to matching
  order.  Its main sum sum_{n<N} n^-s and its Bernoulli corrections run in
  fixed-point Python integers with 20 + bitlen(N) guard bits (one exp and
  one cos/sin per prime, an integer complex product per composite); ln p
  and the coefficients B_2k/(2k)! are cached per precision; and
* one trapezoid engine for the Taylor coefficients a_k of the entire function
  g(s) = zeta(s) - 1/(s-1) at a real centre c, read off the circle |s - c| = r
  (``_taylor_on_circle``).  It doubles its node count until the coarse and
  fine coefficients agree to 10^-wp on the circle's scale, evaluating zeta
  only at the new nodes, and conjugate symmetry halves each evaluation pass.

``stieltjes`` is its c = 1, r = 3 case, gamma_k = (-1)^k k! a_k.
``zeta_derivative``, ``coefficients.line_coeff_via_derivatives`` and
``quadrature.cross_moment_wow`` read it at c = s0 off the pole, adding back
the pole's own Taylor terms (-1)^k / (s0-1)^(k+1) where zeta's are wanted.

Every other table is derived from the Stieltjes one: ``StieltjesTable.taylor``
holds the a_k at s = 1, and ``LaurentTable.taylor`` holds
[u^m] (1 + u sum_j a_j u^j)^k, computed by exact series multiplication;
lambda_{m,k} is m! times that.

The radius-3 circle reaches Re s = -2, left of the public evaluation region,
so the engine uses the raw Euler-Maclaurin path while the public ``zeta_em``
keeps the advertised Re s > -1 gate.  The raw path is checked against
mpmath.zeta for Re s >= -2, the circle's leftmost point, and no further:
it loses digits as Re s falls (at 35 digits, 6e-14 relative at s = -10 + i
and none left at s = -29 + 0.5i).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from mpmath import mp, mpc, mpf, workdps
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_cos_sin,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    to_fixed,
)

from .precision import (
    PrecisionCtx,
    PrecisionUnachievableError,
    bernoulli_fraction,
    hreal_to_str,
)

__all__ = [
    "ZetaPoleError",
    "RegionError",
    "ContourError",
    "StieltjesTable",
    "LaurentTable",
    "zeta_em",
    "zeta_minus_pole",
    "zeta_derivative",
    "stieltjes",
    "stieltjes_limit_oracle",
    "laurent_power_coeffs",
    "berndt_bound_holds",
]


class ZetaPoleError(ZeroDivisionError):
    """Evaluation requested at the pole s = 1."""


class RegionError(ValueError):
    """Evaluation requested outside the implemented region Re s > -1."""


class ContourError(ArithmeticError):
    """A differentiation contour hits the pole, leaves the region or fails to converge."""


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spf_table(n: int) -> tuple:
    """Smallest prime factor for 0..n (0 for indices 0, 1)."""
    spf = list(range(n + 1))
    for p in range(2, int(n ** 0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    spf[0] = spf[1] = 0
    return tuple(spf)


def _em_orders(dps: int, sigma: float, t: float):
    """Correction order K and cutoff N for the target working digits.

    With N ~ 1.6 (|s| + 2K) the Bernoulli-term ratio is ~ 1/10 per order, so
    K ~ dps/2 orders reach 10**-dps.  Far right of the strip the N**(1-sigma)
    factor does the converging, so sigma is capped at 2K when sizing N.
    """
    K = max(10, int(0.58 * dps) + 2)
    sigma_eff = min(max(sigma, 0.0), 2.0 * K)
    abs_eff = math.hypot(sigma_eff, t)
    N = max(10, int(1.6 * (abs_eff + 2 * K)) + 1)
    return K, N


@lru_cache(maxsize=1 << 16)
def _ln_prime(p: int, prec: int) -> tuple:
    """ln p as a raw mpf at prec bits."""
    return mpf_log(from_int(p), prec)


@lru_cache(maxsize=32)
def _bernoulli_fixed(K: int, wp: int) -> tuple:
    """B_2k / (2k)! in fixed point with wp fractional bits, for k = 1..K."""
    out = []
    for k in range(1, K + 1):
        b = bernoulli_fraction(2 * k)
        out.append((b.numerator << wp) // (b.denominator * math.factorial(2 * k)))
    return tuple(out)


def _zeta_em_raw(s: mpc, dps: int, n_scale: int = 1) -> mpc:
    """Euler-Maclaurin zeta, checked against mpmath.zeta for Re s >= -2.

    Re s = -2 is the leftmost point of the r = 3 Stieltjes contour.  Further
    left the error grows although the remainder term formally allows
    Re s > 1 - 2K: relative to mpmath.zeta, 6e-14 at s = -10 + i at 35
    digits, 1e18 at s = -29 + 0.5i (1e-18 at 80 digits), and 1.0 at
    s = -79 + 0.5i at 80 digits.  Callers stay at Re s >= -2.

    Must be called inside an mp context of at least ``dps`` digits.
    ``n_scale`` multiplies the trapezoid cutoff (self-consistency testing).

    The sums run in fixed-point integers with mp.prec + 20 + bitlen(N)
    fractional bits.  The main sum sum_{n<N} n^-s takes one exp and one
    cos/sin of ln p per prime p (ln p cached per prime and precision) and one
    integer complex product per composite; N^-s comes from the same fill.
    The Bernoulli coefficients B_2k/(2k)! are cached per precision, and
    N = 2^m makes each division by N^2 in the correction terms a shift.
    """
    s = mpc(s)
    K, N = _em_orders(dps, float(s.real), float(s.imag))
    N *= n_scale
    # bucket N upward so the factor sieve is shared across nearby calls
    N = 1 << (N - 1).bit_length()
    spf = _spf_table(N)
    prec = mp.prec
    wp = prec + 20 + N.bit_length()
    sre, sim = s._mpc_
    # multiplicative fill of n^{-s} for n <= N: one exp and one cos/sin per
    # prime, one complex product per composite
    re = [0] * (N + 1)
    im = [0] * (N + 1)
    re[1] = 1 << wp
    for n in range(2, N + 1):
        p = spf[n]
        if p == n:
            ln = _ln_prime(n, wp)
            mag = mpf_exp(mpf_neg(mpf_mul(sre, ln, wp)), wp)
            cs, sn = mpf_cos_sin(mpf_mul(sim, ln, wp), wp)
            re[n] = to_fixed(mpf_mul(mag, cs, wp), wp)
            im[n] = -to_fixed(mpf_mul(mag, sn, wp), wp)
        else:
            q = n // p
            re[n] = (re[p] * re[q] - im[p] * im[q]) >> wp
            im[n] = (re[p] * im[q] + im[p] * re[q]) >> wp
    # Bernoulli corrections sum_k B_2k/(2k)! v_k with
    # v_k = s (s+1) ... (s+2k-2) N^{-s-2k+1}
    m = N.bit_length() - 1
    sr, si = to_fixed(sre, wp), to_fixed(sim, wp)
    vr = (sr * re[N] - si * im[N]) >> (wp + m)
    vi = (sr * im[N] + si * re[N]) >> (wp + m)
    tr = ti = 0
    for k, b in enumerate(_bernoulli_fixed(K, wp), 1):
        if k > 1:
            for a in (sr + ((2 * k - 3) << wp), sr + ((2 * k - 2) << wp)):
                vr, vi = (vr * a - vi * si) >> wp, (vr * si + vi * a) >> wp
            vr >>= 2 * m
            vi >>= 2 * m
        tr += b * vr
        ti += b * vi

    def fixed_to_mpc(x, y):
        return mp.make_mpc((from_man_exp(x, -wp, prec, "n"), from_man_exp(y, -wp, prec, "n")))

    # sum_{n<N} n^-s + N^-s / 2 + corrections + N^{1-s} / (s-1)
    total = fixed_to_mpc(sum(re[:N]) + (re[N] >> 1) + (tr >> wp),
                         sum(im[:N]) + (im[N] >> 1) + (ti >> wp))
    return +(total + fixed_to_mpc(re[N], im[N]) * N / (s - 1))


def zeta_em(s, ctx: PrecisionCtx) -> mpc:
    """zeta(s) by Euler-Maclaurin summation, for Re s > -1, s != 1.

    Accurate to ctx.digits - 3 significant digits for |Im s| up to 1e4.
    Raises ZetaPoleError at s = 1 and RegionError for Re s <= -1.
    """
    with workdps(ctx.working()):
        s = mpc(s)
        if s == 1:
            raise ZetaPoleError("zeta has a simple pole at s = 1")
        if s.real <= -1:
            raise RegionError(f"zeta_em implements Re s > -1 only, got {s}")
        return _zeta_em_raw(s, ctx.working())


def zeta_minus_pole(s, ctx: PrecisionCtx) -> mpc:
    """The entire function zeta(s) - 1/(s-1), finite at s = 1.

    Near s = 1 the value comes from the Taylor series with Stieltjes
    coefficients; elsewhere it is direct evaluation.
    """
    with workdps(ctx.working()):
        s = mpc(s)
        if abs(s - 1) < mpf("0.05"):
            k_top = max(24, ctx.digits // 2 + 6)  # terms gain ~1.8 digits each
            taylor = stieltjes(k_top, PrecisionCtx(max(ctx.digits, 30))).taylor
            u = s - 1
            acc = mpc(0)
            for k in range(k_top, -1, -1):
                acc = acc * u + taylor[k]
            return +acc
        if s.real <= -1:
            raise RegionError(f"zeta_minus_pole implements Re s > -1 only, got {s}")
        return +(_zeta_em_raw(s, ctx.working()) - 1 / (s - 1))


# ---------------------------------------------------------------------------
# Contour Taylor extraction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _unit_roots(m: int, wp: int) -> tuple:
    with workdps(wp):
        return tuple(mp.expjpi(mpf(2 * j) / m) for j in range(m))


@lru_cache(maxsize=8)
def _circle_grid(c, r, m: int, wp: int) -> tuple:
    """zeta evaluated at s_j = c + r w_j, w_j = exp(2 pi i j / m), j = 0..m-1.

    The centre c is real, so conjugate symmetry halves the work, and a doubled
    grid (m >= 128, 4 | m) takes its even nodes from the m/2-node grid: only
    the odd ones are new.
    """
    roots = _unit_roots(m, wp)
    with workdps(wp):
        half = m // 2
        evals = [None] * m
        if m % 4 == 0 and m >= 128:
            evals[::2] = _circle_grid(c, r, half, wp)
            new = range(1, half, 2)
        else:
            new = range(half + 1)
        for j in new:
            evals[j] = _zeta_em_raw(c + r * roots[j], wp)
        for j in range(half + 1, m):
            evals[j] = mp.conj(evals[m - j])
        return tuple(evals)


def _contour_taylor(c, r, m: int, k_max: int, wp: int) -> list:
    """a_k = (1/(m r^k)) sum_j g(s_j) w_j^-k for g = zeta - 1/(s-1), k <= k_max.

    The m-node (m even) trapezoid rule on the circle of _circle_grid.
    Conjugate-pair folding keeps the result exactly real-symmetric.
    """
    roots = _unit_roots(m, wp)
    with workdps(wp):
        g = [z - 1 / ((c - 1) + r * w) for z, w in zip(_circle_grid(c, r, m, wp), roots)]
        out = []
        for k in range(k_max + 1):
            acc = (g[0] + g[m // 2] if k % 2 == 0 else g[0] - g[m // 2]).real
            for j in range(1, m // 2):
                acc += 2 * (g[j] * roots[(-j * k) % m]).real
            out.append(acc / (m * mpf(r) ** k))
        return out


def _taylor_on_circle(c, r, k_max: int, wp: int, m_cap: int):
    """Taylor coefficients a_0..a_{k_max} of g = zeta - 1/(s-1) at the real c.

    The one trapezoid engine: M coarse and 2M fine nodes of one nested grid
    on |s - c| = r, at working precision wp + 10.  M starts at
    max(64, 4 k_max) and doubles, evaluating zeta only at the new nodes, until
    max_k r^k |a_k(M) - a_k(2M)| <= 10^-wp or the fine grid reaches m_cap
    nodes.  Returns (fine, coarse, met), where met says the first stop held.
    """
    M = max(64, 4 * k_max)
    coarse = _contour_taylor(c, r, M, k_max, wp + 10)
    while True:
        fine = _contour_taylor(c, r, 2 * M, k_max, wp + 10)
        with workdps(wp + 10):
            gap = max(abs(f - a) * r ** k for k, (f, a) in enumerate(zip(fine, coarse)))
            met = gap <= mpf(10) ** -wp
        if met or 2 * M >= m_cap:
            return fine, coarse, met
        M, coarse = 2 * M, fine


@dataclass(frozen=True)
class StieltjesTable:
    """gamma_0 .. gamma_{k_max} from the contour, with accuracy metadata."""

    k_max: int
    gammas: tuple
    digits: int
    est_errors: tuple = ()

    def __post_init__(self):
        g0 = self.gammas[0]
        if not (mpf("0.57") < g0 < mpf("0.58")):
            raise ValueError(f"gamma_0 = {g0} outside (0.57, 0.58)")
        for k in range(1, self.k_max + 1):
            if not berndt_bound_holds(self.gammas[k], k):
                raise ValueError(f"Berndt bound violated at k = {k}")

    @cached_property
    def taylor(self) -> tuple:
        """a_k = (-1)^k gamma_k / k!: Taylor coefficients of zeta(s) - 1/(s-1) at 1.

        Rounded at digits + 15, the precision the coefficient sums run at.
        """
        with workdps(PrecisionCtx(self.digits).working(15)):
            return tuple(g * (-1) ** k / mp.factorial(k) for k, g in enumerate(self.gammas))

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "digits": self.digits,
            "method": "contour",
            "values": [
                {"k": k, "gamma": hreal_to_str(g, self.digits)}
                for k, g in enumerate(self.gammas)
            ],
        }
        return json.dumps(payload, indent=1)


def berndt_bound_holds(gamma_k, k: int) -> bool:
    """|gamma_k| / k! <= 4 / (k pi^k), for k >= 1."""
    with workdps(30):
        return abs(gamma_k) / mp.factorial(k) <= 4 / (k * mp.pi ** k)


@lru_cache(maxsize=32)
def _stieltjes_cached(k_max: int, digits: int) -> StieltjesTable:
    from . import cache as _cache

    wp = digits + max(10, int(math.ceil(0.05 * k_max)) + 10)
    if wp > 50_000:
        raise PrecisionUnachievableError(f"stieltjes working precision {wp} too large")
    key = f"stieltjes_k{k_max}_d{digits}"
    gammas = _cache.load_values(key, digits)
    errs = _cache.load_values(key + "_err", digits) if gammas else None
    if gammas and errs and len(gammas) == len(errs) == k_max + 1:
        return StieltjesTable(k_max, tuple(gammas), digits, tuple(errs))
    # Berndt, |a_n| <= 4 / (n pi^n), puts the aliasing of n_berndt nodes below
    # 10^-(wp+5) a priori: once the fine grid has that many, stop doubling.
    n_berndt = int((wp + 5) * math.log(10) / math.log(math.pi / 3.0)) + 1
    fine, coarse, _ = _taylor_on_circle(1, 3, k_max, wp, n_berndt)
    with workdps(wp + 10):
        scale = [(-1) ** k * mp.factorial(k) for k in range(k_max + 1)]  # gamma_k / a_k
        gammas = tuple(+(f * x) for f, x in zip(fine, scale))
        errs = tuple(+abs(f * x - c * x) for f, c, x in zip(fine, coarse, scale))
    table = StieltjesTable(k_max, gammas, digits, errs)
    _cache.store_values(key, digits, gammas)
    _cache.store_values(key + "_err", digits, errs)
    return table


def stieltjes(k_max: int, ctx: PrecisionCtx) -> StieltjesTable:
    """Stieltjes constants gamma_0..gamma_{k_max} by contour extraction.

    gamma_k = (-1)^k k! a_k, with the a_k from the trapezoid engine on
    |s - 1| = 3: M coarse and 2M fine nodes, M doubling from max(64, 4 k_max)
    until max_k 3^k |a_k(M) - a_k(2M)| <= 10^-wp, or until the 2M nodes meet
    the a-priori Berndt aliasing bound (3/pi)^(2M) < 10^-(wp+5).  The values
    are the fine ones, and ``est_errors`` holds |gamma_k(2M) - gamma_k(M)|.
    The working precision wp is digits + max(10, ceil(0.05 k_max) + 10), to
    absorb the (pi/3)^k extraction loss.
    """
    if k_max > 400:
        raise PrecisionUnachievableError("stieltjes supports k_max <= 400")
    return _stieltjes_cached(k_max, ctx.digits)


def stieltjes_limit_oracle(k_max: int, ctx: PrecisionCtx, n_terms: int = 10_000):
    """Independent gamma_k oracle from the limit definition.

    gamma_k = lim ( sum_{m<=N} log^k m / m - log^{k+1} N / (k+1) ), summed to
    N = n_terms and corrected by the Euler-Maclaurin expansion of the tail:
    subtract log^k N / (2N) and the B_{2j} terms built from derivatives of
    log^k x / x (computed symbolically by the recurrence
    P_{r+1} = P_r' - (r+1) P_r on polynomials in log x).

    Suitable for k_max up to ~30; the asymptotic correction series degrades
    beyond that.  Fully independent of the contour route.
    """
    if k_max > 40:
        raise PrecisionUnachievableError("limit-definition oracle supports k_max <= 40")
    N = n_terms
    wp = ctx.digits + 15 + int(k_max * math.log10(math.log(N))) + 5
    J = 14
    with workdps(wp):
        lnN = mp.log(N)
        sums = [mpf(0)] * (k_max + 1)
        for m in range(1, N + 1):
            lg = mp.log(m)
            p = mpf(1) / m
            for k in range(k_max + 1):
                sums[k] += p
                p *= lg
        out = []
        for k in range(k_max + 1):
            v = sums[k] - lnN ** (k + 1) / (k + 1) - lnN ** k / (2 * N)
            P = [mpf(0)] * k + [mpf(1)]  # L^k, coefficients in L = log x
            r = 0
            for j in range(1, J + 1):
                while r < 2 * j - 1:
                    dP = [P[i + 1] * (i + 1) for i in range(len(P) - 1)] + [mpf(0)]
                    P = [dP[i] - (r + 1) * P[i] for i in range(len(P))]
                    r += 1
                val = mp.fsum(c * lnN ** i for i, c in enumerate(P) if c) / mpf(N) ** (r + 1)
                b = bernoulli_fraction(2 * j)
                v -= (mpf(b.numerator) / b.denominator) / mp.factorial(2 * j) * val
            out.append(+v)
    return out


# ---------------------------------------------------------------------------
# Derivatives and the lambda_{m,k} family
# ---------------------------------------------------------------------------

def _g_taylor(s0, k_max: int, ctx: PrecisionCtx, radius=None) -> list:
    """a_0..a_{k_max} of g = zeta - 1/(s-1) at the real s0 (see zeta_derivative).

    The working precision widens by k_max log10(1/radius) to absorb the
    radius**-k amplification.
    """
    with workdps(ctx.working()):
        s0 = mpf(s0)
        headroom = min(abs(s0 - 1), s0 + 1)
        if radius is None:
            radius = min(headroom / 2, mpf(2))
        radius = mpf(radius)
        if radius <= 0 or radius >= headroom:
            raise ContourError(
                f"contour of radius {radius} around {s0} hits the pole or leaves Re s > -1"
            )
    amp = int(k_max * math.log10(1.0 / float(radius))) + 1 if radius < 1 else 0
    fine, _, met = _taylor_on_circle(s0, radius, k_max, ctx.working() + amp, 2048)
    if not met:
        raise ContourError(f"contour around {s0} not converged at 2048 nodes")
    return fine


def zeta_derivative(s0, k: int, ctx: PrecisionCtx, radius=None) -> mpc:
    """k-th derivative of zeta at the real point s0 by contour differentiation.

    zeta^(k)(s0) = k! (a_k + (-1)^k / (s0-1)^(k+1)), with a_k the Taylor
    coefficient of zeta - 1/(s-1) from the trapezoid engine on |s - s0| =
    radius.  The circle must exclude s = 1 and stay in Re s > -1; the default
    radius is half the headroom to both constraints, at most 2.  Relative
    error <= 10**(5 - digits); ContourError when 2,048 nodes do not converge.
    It never reads the Stieltjes table, so it is an independent cross-check.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    if mpc(s0).imag:
        raise ValueError(f"zeta_derivative needs a real s0, got {s0}")
    if k == 0:
        return zeta_em(s0, ctx)
    a = _g_taylor(s0, k, ctx, radius)
    with workdps(ctx.working()):
        return mpc(mp.factorial(k) * (a[k] + (-1) ** k / (mpf(s0) - 1) ** (k + 1)))


@dataclass(frozen=True)
class LaurentTable:
    """Taylor coefficients c_0 .. c_{m_max} of (s-1)^k zeta(s)^k at s = 1.

    lambda_{m,k} = m! c_m.  Entries satisfy c_0 = 1 and, for k = 1,
    c_m = (-1)**(m-1) gamma_{m-1}/(m-1)!.
    """

    k: int
    m_max: int
    taylor: tuple
    digits: int

    def __post_init__(self):
        with workdps(30):
            if abs(self.taylor[0] - 1) > mpf(10) ** (-(self.digits - 10)):
                raise ValueError(f"lambda_(0,{self.k}) = {self.taylor[0]} != 1")

    @cached_property
    def lambdas(self) -> tuple:
        """lambda_{m,k} = m! c_m, rounded at digits + 15."""
        with workdps(PrecisionCtx(self.digits).working(15)):
            return tuple(+(c * mp.factorial(m)) for m, c in enumerate(self.taylor))

    def coeff(self, m: int):
        """lambda_{m,k} / m! (the raw Taylor coefficient)."""
        return self.taylor[m]


def laurent_power_coeffs(k: int, m_max: int, ctx: PrecisionCtx) -> LaurentTable:
    """Taylor data of (s-1)^k zeta(s)^k at s = 1, from the Stieltjes table.

    (s-1) zeta(s) = 1 + u sum_j a_j u^j with u = s - 1, so c_m is the u^m
    coefficient of that series raised to the k-th power.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    taylor = stieltjes(m_max, ctx).taylor
    with workdps(ctx.working(15)):
        base = (mpf(1),) + taylor[:m_max]
        power = base
        for _ in range(k - 1):
            power = tuple(
                mp.fsum(power[j] * base[m - j] for j in range(m + 1)) for m in range(m_max + 1)
            )
    return LaurentTable(k=k, m_max=m_max, taylor=power, digits=ctx.digits)
