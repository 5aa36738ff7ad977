"""Riemann zeta on vertical lines, its derivatives, and the Taylor data at s=1.

Everything here reduces to one Euler-Maclaurin formula, with the cutoff N
chosen from the working precision and |s|, and Bernoulli corrections to
matching order.  It runs in fixed-point Python integers (per prime one exp,
and one cos/sin for complex s; per composite an integer product; ln p and
B_2k/(2k)! cached per precision) in two forms:

* ``_zeta_em_raw``, zeta at one complex point, with 20 + bitlen(N) guard
  bits; and
* ``_taylor_series``, the Taylor coefficients a_k of the entire function
  g(s) = zeta(s) - 1/(s-1) at a real centre c, from one pass with
  s = c + r v as a power series in v.  The scale r sets the accuracy
  contract, r^k |error of a_k| <= 10^-wp.

``taylor_minus_pole`` is its one entry point: every reader of Taylor data
gets the pass on the scale r = 3, at the working precision ``_taylor_wp``
sets from k_max and the digits.  g is entire, so the centre may sit
anywhere on the real axis, s = 1 included.  ``stieltjes`` reads it at
c = 1, gamma_k = (-1)^k k! a_k, and ``coefficients.coeffs_line`` at
c = sigma0 + 1/2.  ``zeta_derivative`` and ``quadrature.cross_moment_wow``
read it at c = s0 and add back the pole's own Taylor terms
(-1)^k / (s0-1)^(k+1) where zeta's are wanted.

The public ``zeta_em`` keeps the advertised Re s > -1 gate.  The raw
point evaluator is checked against mpmath.zeta for Re s >= -2 and no
further: it loses digits as Re s falls (at 35 digits, 6e-14 relative at
s = -10 + i and none left at s = -29 + 0.5i).
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
    smallest_prime_factors,
)

__all__ = [
    "ZetaPoleError",
    "RegionError",
    "StieltjesTable",
    "zeta_em",
    "zeta_minus_pole",
    "taylor_minus_pole",
    "zeta_derivative",
    "stieltjes",
    "stieltjes_limit_oracle",
    "berndt_bound_holds",
]


class ZetaPoleError(ZeroDivisionError):
    """Evaluation requested at the pole s = 1."""


class RegionError(ValueError):
    """Evaluation requested outside the implemented region Re s > -1."""


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation
# ---------------------------------------------------------------------------

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


def _zeta_em_raw(s: mpc, dps: int) -> mpc:
    """Euler-Maclaurin zeta, checked against mpmath.zeta for Re s >= -2.

    Left of Re s = -2 the error grows although the remainder term formally
    allows Re s > 1 - 2K: relative to mpmath.zeta, 6e-14 at s = -10 + i at 35
    digits, 1e18 at s = -29 + 0.5i (1e-18 at 80 digits), and 1.0 at
    s = -79 + 0.5i at 80 digits.  Callers stay at Re s >= -2.

    Must be called inside an mp context of at least ``dps`` digits.

    The sums run in fixed-point integers with mp.prec + 20 + bitlen(N)
    fractional bits.  The main sum sum_{n<N} n^-s takes one exp and one
    cos/sin of ln p per prime p (ln p cached per prime and precision) and one
    integer complex product per composite; N^-s comes from the same fill.
    The Bernoulli coefficients B_2k/(2k)! are cached per precision, and
    N = 2^m makes each division by N^2 in the correction terms a shift.
    """
    s = mpc(s)
    K, N = _em_orders(dps, float(s.real), float(s.imag))
    # bucket N upward so the factor sieve is shared across nearby calls
    N = 1 << (N - 1).bit_length()
    spf = smallest_prime_factors(N)
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

    At s = 1 it is Euler's constant gamma_0.  Elsewhere it is Euler-Maclaurin
    zeta less the pole term, in a working precision widened by
    log10(1/|s-1|) + 2 digits, the digits the two terms cancel near s = 1.
    """
    with workdps(ctx.working()):
        s = mpc(s)
        if s == 1:
            return mpc(mp.euler)
        if s.real <= -1:
            raise RegionError(f"zeta_minus_pole implements Re s > -1 only, got {s}")
        wp = ctx.working() + max(0, int(mp.ceil(-mp.log10(abs(s - 1))))) + 2
        with workdps(wp):
            g = _zeta_em_raw(s, wp) - 1 / (s - 1)
        return +g


# ---------------------------------------------------------------------------
# Taylor data of g = zeta - 1/(s-1)
# ---------------------------------------------------------------------------

def _taylor_series(c, r, k_max: int, wp: int):
    """Taylor coefficients a_0..a_{k_max} of g = zeta - 1/(s-1) at the real c.

    One Euler-Maclaurin pass in power-series arithmetic (Johansson, Numer.
    Algorithms 69, 2015).  With s = c + r v, L_n = ln n and L = ln N,

      g(s) = sum_{n<N} n^-c e^{-r L_n v} + N^-s / 2 - L phi(L (s - 1))
             + sum_{j<=K} B_2j/(2j)! s (s+1) ... (s+2j-2) N^{-s-2j+1},

    every term a series in v cut after v^k_max, whose v^k coefficient is
    r^k a_k.  phi(y) = (1 - e^-y)/y is entire, and its v^k coefficient is
    (-rL)^k / k! int_0^1 t^k e^{-y0 t} dt with y0 = L (c - 1), so the pole
    needs no special case.  N (a power of two) and K are sized at wp + 10
    digits for the circle's farthest point, so by Cauchy's estimate
    r^k |error of a_k| is at most the largest Euler-Maclaurin remainder on
    |s - c| = r.

    The pass runs in fixed-point integers with 20 + bitlen(N)
    + (|c - 1| + r) log2 N guard bits, since its terms reach N^(|c-1| + r)
    before they cancel: one exp and one log per prime p <= N, sums of prime
    logs for composites.  Returns (a, err) with err_k = (|v^k coefficient
    of the first omitted Bernoulli term| + a bound on the rounding) / r^k.
    """
    with workdps(wp + 10):
        c, r = mpf(c), mpf(r)
        K, N = _em_orders(wp + 10, float(c + r), float(r))
        N = 1 << (N - 1).bit_length()
        m = N.bit_length() - 1
        reach = float(abs(c - 1)) * m  # log2 N^|c-1|
        bits = mp.prec + 20 + N.bit_length() + math.ceil(reach + float(r) * m)
        one = 1 << bits
        cf, rf = to_fixed(c._mpf_, bits), to_fixed(r._mpf_, bits)
        # n^-c and ln n for n <= N
        spf = smallest_prime_factors(N)
        x, ln = [0, one] + [0] * (N - 1), [0] * (N + 1)
        for n in range(2, N + 1):
            p = spf[n]
            if p == n:
                lp = _ln_prime(p, bits)
                ln[n] = to_fixed(lp, bits)
                x[n] = to_fixed(mpf_exp(mpf_neg(mpf_mul(c._mpf_, lp, bits)), bits), bits)
            else:
                ln[n] = ln[p] + ln[n // p]
                x[n] = (x[p] * x[n // p]) >> bits

        def exp_row(t, h, acc):
            """acc[k] += t h^k / k! until the term underflows."""
            for k in range(k_max + 1):
                if not t:
                    break
                acc[k] += t
                t = (t * h >> bits) // (k + 1)
            return acc

        # sum_{n<N} n^-c (r L_n)^k / k!; the sign (-1)^k comes last
        total = [0] * (k_max + 1)
        for n in range(1, N):
            exp_row(x[n], rf * ln[n] >> bits, total)
        u = exp_row(one, rf * ln[N] >> bits, [0] * (k_max + 1))  # (rL)^k / k!
        # int_0^1 t^k e^{-y0 t} dt = sum_i w_i / (i + k + 1), w_i = (-y0)^i / i!
        y0 = ln[N] * (cf - one) >> bits
        w, t = [], one
        while t:
            w.append(-t if y0 > 0 and len(w) % 2 else t)
            t = (t * abs(y0) >> bits) // len(w)
        for k in range(k_max + 1):
            moment = sum(wi // (i + k + 1) for i, wi in enumerate(w))
            total[k] += (x[N] * u[k] >> (bits + 1)) - (ln[N] * u[k] >> bits) * moment // one
            if k % 2:
                total[k] = -total[k]

        def times(V, a):
            """(a + r v) V, cut after v^k_max."""
            return [a * V[0] >> bits] + [
                (a * V[k] + rf * V[k - 1]) >> bits for k in range(1, k_max + 1)
            ]

        # Bernoulli terms B_2j/(2j)! V_j, V_j = s (s+1) ... (s+2j-2) N^{-s-2j+1}
        V = times([(-1) ** k * (x[N] * u[k] >> bits) >> m for k in range(k_max + 1)], cf)
        for j, b in enumerate(_bernoulli_fixed(K + 1, bits), 1):
            if j > 1:
                V = times(times(V, cf + ((2 * j - 3) << bits)), cf + ((2 * j - 2) << bits))
                V = [v >> 2 * m for v in V]
            if j <= K:
                total = [t + (b * v >> bits) for t, v in zip(total, V)]
        # fixed-point rounding, in units of 2^-bits: each of the N + len(w) + K
        # rows errs by O(bitlen(N) + k) units of its largest term, at most
        # N^|c-1| (rL)^k / k!; then 8 units in the last place of a_k, for its
        # rounding to wp + 10 digits and one rescaling by the caller
        slack = 8 * (N + len(w) + K) * mpf(2) ** reach
        ulp = mpf(2) ** (3 - mp.prec)
        a, err = [], []
        for k in range(k_max + 1):
            scale = r ** k
            a.append(mp.make_mpf(from_man_exp(total[k], -bits)) / scale)
            bound = abs(b * V[k] >> bits) + slack * (N.bit_length() + k + 1) * max(1, u[k] / one)
            err.append(bound / one / scale + ulp * abs(a[k]))
        return a, err


@dataclass(frozen=True)
class StieltjesTable:
    """gamma_0 .. gamma_{k_max} with a bound on the error of each."""

    k_max: int
    gammas: tuple
    digits: int
    est_errors: tuple

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
            "method": "euler-maclaurin series",
            "values": [
                {"k": k, "gamma": hreal_to_str(g, self.digits),
                 "est_error": mp.nstr(e, 3, min_fixed=1, max_fixed=0)}
                for k, (g, e) in enumerate(zip(self.gammas, self.est_errors))
            ],
        }
        return json.dumps(payload, indent=1)


def berndt_bound_holds(gamma_k, k: int) -> bool:
    """|gamma_k| / k! <= 4 / (k pi^k), for k >= 1."""
    with workdps(30):
        return abs(gamma_k) / mp.factorial(k) <= 4 / (k * mp.pi ** k)


def _taylor_wp(k_max: int, digits: int) -> int:
    """Working digits for Taylor data through k_max on the scale r = 3.

    digits + max(10, ceil(0.05 k_max) + 10): the guard absorbs the (pi/3)^k
    loss of a_k ~ pi^-k measured to 10^-wp / 3^k.
    """
    wp = digits + max(10, int(math.ceil(0.05 * k_max)) + 10)
    if wp > 50_000:
        raise PrecisionUnachievableError(f"Taylor working precision {wp} too large")
    return wp


def taylor_minus_pole(c, k_max: int, ctx: PrecisionCtx):
    """(a, err): a_0..a_{k_max} of g = zeta - 1/(s-1) at the real c, with error bounds.

    One ``_taylor_series`` pass on the scale r = 3 at ``_taylor_wp(k_max,
    ctx.digits)`` working digits, so 3^k |error of a_k| <= 10^-wp.  g is
    entire: any real c will do, the pole s = 1 included.
    """
    return _taylor_series(c, 3, k_max, _taylor_wp(k_max, ctx.digits))


@lru_cache(maxsize=32)
def _stieltjes_cached(k_max: int, digits: int) -> StieltjesTable:
    from . import cache as _cache

    wp = _taylor_wp(k_max, digits)
    key = f"stieltjes_k{k_max}_d{digits}"
    gammas = _cache.load_values(key, digits)
    errs = _cache.load_values(key + "_err", digits) if gammas is not None else None
    if errs is not None:
        try:
            if len(gammas) == len(errs) == k_max + 1:
                return StieltjesTable(k_max, tuple(gammas), digits, tuple(errs))
        except ValueError:
            pass
        _cache.report_stale(key)
    a, err = taylor_minus_pole(1, k_max, PrecisionCtx(digits))
    with workdps(wp + 10):
        scale = [(-1) ** k * math.factorial(k) for k in range(k_max + 1)]  # gamma_k / a_k
        gammas = tuple(+(ak * x) for ak, x in zip(a, scale))
        errs = tuple(+abs(e * x) for e, x in zip(err, scale))
    table = StieltjesTable(k_max, gammas, digits, errs)
    _cache.store_values(key, digits, gammas)
    _cache.store_values(key + "_err", digits, errs)
    return table


def stieltjes(k_max: int, ctx: PrecisionCtx) -> StieltjesTable:
    """Stieltjes constants gamma_0..gamma_{k_max} from one series pass.

    gamma_k = (-1)^k k! a_k, with the a_k of g = zeta - 1/(s-1) at s = 1
    from ``taylor_minus_pole``, on the scale r = 3, so
    max_k 3^k |error of a_k| <= 10^-wp; ``est_errors`` holds k! times its
    per-order bound.  The working precision wp is
    digits + max(10, ceil(0.05 k_max) + 10), to absorb the (pi/3)^k loss.
    A cached entry holds the cold table exactly; one that is malformed or
    fails ``StieltjesTable``'s checks counts as stale and is recomputed.
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
    beyond that.  Fully independent of the Euler-Maclaurin series route.
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
# Derivatives
# ---------------------------------------------------------------------------

def zeta_derivative(s0, k: int, ctx: PrecisionCtx) -> mpc:
    """k-th derivative of zeta at the real point s0 > -1, s0 != 1.

    zeta^(k)(s0) = k! (a_k + (-1)^k / (s0-1)^(k+1)), with a_k the Taylor
    coefficient of zeta - 1/(s-1) at s0 from ``taylor_minus_pole``.  Like
    ``zeta_em``, it raises ZetaPoleError at s0 = 1 and RegionError for
    s0 <= -1.  Relative error <= 10**(5 - digits).  It never reads the
    Stieltjes table.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    with workdps(ctx.working()):
        s = mpc(s0)
        if s.imag:
            raise ValueError(f"zeta_derivative needs a real s0, got {s0}")
        if s == 1:
            raise ZetaPoleError("zeta has a simple pole at s = 1")
        if s.real <= -1:
            raise RegionError(f"zeta_derivative implements s0 > -1 only, got {s0}")
    if k == 0:
        return zeta_em(s0, ctx)
    a = taylor_minus_pole(s.real, k, ctx)[0]
    with workdps(ctx.working()):
        return mpc(mp.factorial(k) * (a[k] + (-1) ** k / (s.real - 1) ** (k + 1)))
