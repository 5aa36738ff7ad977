"""Coefficient families of zeta against the Cauchy-measure Fourier basis.

For n >= 1 every family is the binomial transform

      (-1)**n sum_{k=1}^{n} C(n-1, k-1) b_k

of its own Taylor data b_k:

* ``critical``: the boundary family for the line Re s = 1/2, with b_k = a_k,
  the Taylor coefficients (-1)**k gamma_k / k! of zeta(s) - 1/(s-1) at s = 1
  read from ``StieltjesTable.taylor``.  Entry -1 is exactly -1 and entry 0
  is a_0 - 1 = gamma_0 - 1.

* ``line(sigma0)``: the family for Re s = sigma0 > 1/2, sigma0 != 1.  b_k is
  the k-th Taylor coefficient of the entire zeta(s) - 1/(s-1) at
  sigma0 + 1/2, from one Euler-Maclaurin series pass of
  :mod:`zetaline.zeta`; no Stieltjes table enters.  For sigma0 > 1 the pole
  1/(s-1) is added back in closed form: 1/x to b_0, x = sigma0 - 1/2, and
  its row sums -(1 - 1/x)**(n-1) / x**2 to the rows n >= 1, so its terms
  (-1)**k / x**(k+1) never pass through the cancelling sums.  For 1/2 < sigma0 < 1
  the negative indices follow the closed geometric form from the pole at
  3/2 - sigma0, and entry 0 is
  zeta(sigma0+1/2) - 1/(sigma0-1/2) - 1/(3/2-sigma0).  For sigma0 > 1 the
  negative indices vanish.

* ``power(k)``: the family for zeta**k on the critical line, with
  b_j = c_{j+k}, the Taylor coefficients c_m of (s-1)^k zeta(s)^k at s = 1:
  the k-th series power of 1 + u sum_j a_j u^j, u = s - 1, with the a_j of
  the Stieltjes table through n_max + k.  Zero for n < -k.

The binomial sums cancel: terms reach 1e14 |ell_n| for the critical family
at n = 400.  Each entry carries a bound, sum_k C(n-1, k-1) err_k for the
Taylor data's errors plus the sums' rounding, and a table is built only when
every entry is within half a unit in its ``digits``-th significant digit.
Else every family builds once more at the digits the bound asks for (the
critical family raises only the sums' digits: its Stieltjes table is the
caller's), and refuses if that misses too.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import dps_to_prec

from .precision import PrecisionCtx, PrecisionUnachievableError, binom_exact, hreal_to_str
from . import zeta as zeta_mod
from .zeta import StieltjesTable, taylor_minus_pole

__all__ = [
    "CoeffTable",
    "InsufficientTableError",
    "coeffs_critical",
    "coeffs_line",
    "coeffs_power",
    "decay_diagnostics",
    "DecayDiagnostics",
    "PARSEVAL_SQ_CEILING",
]

#: Decimal value of log(2 pi) - gamma_0 - 1, the Parseval ceiling for
#: sum_{n>=0} ell_n^2 (used as an upper-bound invariant, 40 digits).
PARSEVAL_SQ_CEILING = "0.2606614015078126229541473827288328486806"

_LOG10_2 = math.log10(2)
_MARGIN = 3    # digits beyond a shortfall when a family builds once more


class InsufficientTableError(ValueError):
    """The supplied Stieltjes table is too short for the request."""


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients indexed n_min..n_max for one family.

    Every entry is within half a unit in its ``digits``-th significant
    digit: construction proves it from an error bound, or refuses.
    """

    family: str                      # "critical" | "line" | "power"
    n_min: int
    n_max: int
    values: tuple
    digits: int
    provenance: str = "formula"      # "formula" | "quadrature"
    sigma0: Optional[mpf] = None     # family == "line"
    k: Optional[int] = None          # family == "power"

    def __post_init__(self):
        if self.family not in ("critical", "line", "power"):
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.values) != self.n_max - self.n_min + 1:
            raise ValueError("values length does not match index range")

    def value(self, n: int):
        if not (self.n_min <= n <= self.n_max):
            if self.family == "power" and n < -self.k:
                return mpf(0)
            raise IndexError(f"coefficient index {n} outside [{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]

    @cached_property
    def float_values(self) -> tuple:
        """The entries n_min..n_max as floats, converted once per table."""
        return tuple(float(v) for v in self.values)

    def positive_slice(self) -> tuple:
        """Entries for n = 0..n_max (the power-series coefficients)."""
        return self.values[-self.n_min:] if self.n_min < 0 else self.values

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "family": self.family,
            "digits": self.digits,
            "provenance": self.provenance,
            "values": [
                {"n": n, "value": hreal_to_str(self.value(n), self.digits)}
                for n in range(self.n_min, self.n_max + 1)
            ],
        }
        if self.sigma0 is not None:
            payload["sigma0"] = hreal_to_str(self.sigma0, self.digits)
        if self.k is not None:
            payload["k"] = self.k
        return json.dumps(payload, indent=1)

    def to_csv(self) -> str:
        lines = ["n,value"]
        for n in range(self.n_min, self.n_max + 1):
            lines.append(f"{n},{hreal_to_str(self.value(n), self.digits)}")
        return "\n".join(lines) + "\n"


def _unit(dps: int, w: int) -> float:
    """The unit roundoff 2^-prec of dps digits, in units of 10^-w."""
    return 10 ** (w - dps_to_prec(dps) * _LOG10_2)


def _log10(x) -> float:
    """log10 |x| of a finite mpf; -inf at 0."""
    _, man, exp, _ = x._mpf_
    return math.log10(man) + exp * _LOG10_2 if man else -math.inf


def _scaled(errors, w: int) -> list:
    """Absolute error bounds as floats in units of 10^-w."""
    with workdps(15):
        scale = mpf(10) ** w
        return [float(e * scale) for e in errors]


def _sums(rows, b, err, w: int):
    """sign sum_k C b_k for each row (sign, [(C, k), ...]) at w digits, and
    log10 of a bound on its error, given err[k] >= |b_k - exact| in units of
    10^-w.  Each product and partial sum S_j rounds by at most u = 2^-prec of
    itself, so the error is at most sum_k |C| err_k + u (R_n + sum_j |S_j|)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2),
    with R_j = sum_{i<=j} |C b_i| and |S_j| <= min(R_j, |S_n| + R_n - R_j).
    The float sums err by less than the 1.001 they are inflated by."""
    vals, bounds, u = [], [], _unit(w, w)
    fb = [float(abs(x)) for x in b]
    with workdps(w):
        for sign, row in rows:
            acc, r, e, rs = mpf(0), 0.0, 0.0, []
            for c, k in row:
                acc += c * b[k]
                r += abs(c * fb[k])
                rs.append(r)
                e += abs(c * err[k])
            vals.append(+(acc * sign))
            top = float(abs(acc)) + r           # R_j rises, so min(R_j, top - R_j) = R_j up to top/2
            j = bisect_right(rs, top / 2)
            t = 1.001 * (e + u * (r + sum(rs[:j]) + top * (len(rs) - j) - sum(rs[j:])))
            bounds.append((math.log10(t) if t > 0 else -math.inf if t == 0 else math.inf) - w)
    return vals, bounds


def _binomial_rows(n_lo: int, n_max: int, shift: int = 0) -> list:
    """The rows of (-1)^n sum_{k=1}^{n} C(n-1, k-1) b_{k+shift}, n = n_lo..n_max."""
    return [((-1) ** n, [(binom_exact(n - 1, k - 1), k + shift) for k in range(1, n + 1)])
            for n in range(n_lo, n_max + 1)]


def _proved(build, ctx: PrecisionCtx):
    """(values, extra) from build(ctx) -> (values, log10 error bounds, extra),
    once every bound is within half a unit in its value's ctx.digits-th
    significant digit (-inf marks an exact entry; within 1e-9 of a power of
    ten the value's exponent is taken low).  A miss builds once more at the
    digits raised by the shortfall and _MARGIN.  A second miss, or an entry
    that is 0 within its bound, raises PrecisionUnachievableError."""
    def shortfall(vals, bounds):        # max log10(bound / half a unit); inf at a 0 entry
        return max((b + ctx.digits + _LOG10_2 - 1 - math.floor(_log10(v) - 1e-9) if v else math.inf
                    for v, b in zip(vals, bounds) if b > -math.inf), default=-math.inf)

    vals, bounds, extra = build(ctx)
    short, built = shortfall(vals, bounds), ctx
    if 0 < short < math.inf:
        built = PrecisionCtx(ctx.digits + math.ceil(short) + _MARGIN)
        vals, bounds, extra = build(built)
        short = shortfall(vals, bounds)
    if short == math.inf:
        raise PrecisionUnachievableError(
            f"an entry is 0 within its error bound: its {ctx.digits} digits are not proved")
    if short > 0:
        raise PrecisionUnachievableError(
            f"an error bound misses half a unit in the {ctx.digits}-th digit by 10^{short:.1f} "
            f"at {built.digits} digits; about {built.digits + short + _MARGIN:.0f} would be needed")
    return vals, extra


def coeffs_critical(n_max: int, gammas: StieltjesTable, ctx: PrecisionCtx) -> CoeffTable:
    """The critical-line family for n = -1..n_max.

    b_k are the table's a_k, with errors est_errors[k] / k! and two
    roundings.  The table is the caller's, so a second build raises only
    the digits of the sums.
    """
    if gammas.k_max < n_max:
        raise InsufficientTableError(f"need gamma_k through k={n_max}, table has {gammas.k_max}")
    a = gammas.taylor[:n_max + 1]
    rows = [(1, [(1, 0)])] + _binomial_rows(1, n_max)

    def build(ctx):
        w = ctx.working(15)
        with workdps(w):
            b = [a[0] - 1] + list(a[1:])     # entry 0 is a_0 - 1
        ut = 2 * _unit(gammas.digits + 15, w)    # a_k = gamma_k / k! at digits + 15
        err = _scaled([e / math.factorial(k) for k, e in enumerate(gammas.est_errors[:n_max + 1])], w)
        err = [e + ut * float(abs(x)) for e, x in zip(err, a)]
        err[0] += _unit(w, w)
        return (*_sums(rows, b, err, w), None)

    vals, _ = _proved(build, ctx)
    return CoeffTable(
        family="critical", n_min=-1, n_max=n_max, values=(mpf(-1), *vals), digits=ctx.digits
    )


def coeffs_line(sigma0, n_min: int, n_max: int, ctx: PrecisionCtx) -> CoeffTable:
    """The family for the vertical line Re s = sigma0 (sigma0 > 1/2, != 1).

    b_0..b_{n_max} are the Taylor coefficients of zeta(s) - 1/(s-1) at
    c = sigma0 + 1/2 from ``zeta.taylor_minus_pole``, the pass the Stieltjes
    table reads at s = 1.  Entry 0 is b_0 + 1/(sigma0 - 1/2), which is
    zeta(sigma0 + 1/2), for sigma0 > 1, and b_0 - 1/(3/2 - sigma0) below 1;
    the negative entries are closed forms.  The bounds cover n_max <= 1000.

    The table is the family at ``sigma0`` as read at w = ctx.working(15)
    digits, and sigma0 -/+ 1/2 and sigma0 - 3/2 are exact.  Adding the pole
    term p to a_0 rounds by u (|b_0| + 3 |p|).  With q = 1 - 1/x rounded
    once, a closed form q^m / x^2 errs by (|m| + 3) u of itself, to first
    order: the |m| copies of q's rounding, and those of the power, x^2 and
    the division.  The negative entries' bounds take twice that, the pole's
    row sums -q^(n-1) / x^2 take (n + 6) u, and the sums carry their adding."""
    if n_max > 1000:
        raise PrecisionUnachievableError("the line family's error bounds cover n_max <= 1000")

    def build(ctx):
        w = ctx.working(15)
        with workdps(w):
            s0 = mpf(sigma0)
            if s0 <= 0.5:
                raise ValueError("sigma0 must exceed 1/2; the critical family is sigma0 = 1/2")
            if s0 == 1:
                raise ValueError("sigma0 = 1 excluded: t -> zeta(1+it) is not square-integrable")
            x = mp.fsub(s0, 0.5, exact=True)
            a, terr = taylor_minus_pole(mp.fadd(s0, 0.5, exact=True), max(n_max, 0), ctx)
            # the pole at 1 (sigma0 > 1) or at 3/2 - sigma0 enters b_0 only
            p = 1 / x if s0 > 1 else -1 / mp.fsub(1.5, s0, exact=True)
            b = [a[0] + p] + a[1:]
            q = mp.fsub(s0, 1.5, exact=True) / x
            vals = [mpf(0) if s0 > 1 else +((-1) ** (n % 2) / x ** 2 * q ** (n - 1))
                    for n in range(n_min, min(n_max, -1) + 1)]
            head = [(1, [(1, 0)])] if n_min <= 0 <= n_max else []
            rows = _binomial_rows(max(n_min, 1), n_max)
            u, err = _unit(w, w), _scaled(terr, w)
            err[0] += u * (float(abs(b[0])) + 3 * float(abs(p)))
            for n, (_, row) in enumerate(rows if s0 > 1 else [], max(n_min, 1)):
                row.append((1, len(b)))          # the pole's row sum, in closed form
                b.append(-q ** (n - 1) / x ** 2)
                err.append((n + 6) * u * float(abs(b[-1])))
        bounds = [-math.inf if s0 > 1 else _log10(v) - w + math.log10(2 * u * (4 - n))
                  for n, v in enumerate(vals, n_min)]
        v2, b2 = _sums(head + rows, b, err, w)
        return vals + v2, bounds + b2, s0

    vals, s0 = _proved(build, ctx)
    return CoeffTable(family="line", n_min=n_min, n_max=n_max, values=tuple(vals),
                      digits=ctx.digits, sigma0=s0)


def _power_taylor(k: int, m_max: int, ctx: PrecisionCtx) -> tuple:
    """c_0..c_{m_max}: Taylor coefficients of (s-1)^k zeta(s)^k at s = 1, and
    bounds on their errors in units of 10^-w, w = ctx.working(15).

    (s-1) zeta(s) = 1 + u sum_j a_j u^j with u = s - 1 and the a_j of
    ``StieltjesTable.taylor``, so c_m is the u^m coefficient of that series
    raised to the k-th power; lambda_{m,k} = m! c_m.  With E = u sum e_j u^j
    for the a_j's errors and A = 1 + u sum (|a_j| + e_j) u^j, A^k - (A - E)^k
    <= k E A^(k-1), and the k - 1 products round by 2 u A^k at most.
    """
    table = zeta_mod.stieltjes(m_max, ctx)
    w = ctx.working(15)
    with workdps(w):
        base = (mpf(1),) + table.taylor[:m_max]
        power = base
        for _ in range(k - 1):
            power = tuple(
                mp.fsum(power[j] * base[m - j] for j in range(m + 1)) for m in range(m_max + 1)
            )
    with workdps(15):      # the a_j round twice at w
        ea = [mpf(0)] + [e / math.factorial(j) + abs(x) * 2 * mpf(2) ** -dps_to_prec(w)
                         for j, (e, x) in enumerate(zip(table.est_errors, base[1:]))]
    E, A = np.array(_scaled(ea, w)), np.array([float(abs(x) + e) for x, e in zip(base, ea)])
    P = [1.0]
    for _ in range(k - 1):
        P = np.convolve(P, A)
    T = k * (np.convolve(P, E) + 2 * _unit(w, w) * np.convolve(P, A))
    return power, list(1.001 * T[:m_max + 1])


def coeffs_power(k: int, n_min: int, n_max: int, ctx: PrecisionCtx) -> CoeffTable:
    """The family for zeta**k on the critical line, with c_m from ``_power_taylor``.

    For n >= 1:      (-1)^n sum_{j=1}^{n} C(n-1,j-1) c_{j+k}
    For -k <= n <= 0: (-1)^k sum_{j=0}^{k+n} C(k-j,-n) (-1)^j c_j
    For n < -k: exactly 0.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")

    def build(ctx):
        c, err = _power_taylor(k, max(n_max, 0) + k, ctx)
        zeros = max(0, min(n_max, -k - 1) - n_min + 1)
        rows = [((-1) ** k, [((-1) ** j * binom_exact(k - j, -n), j) for j in range(k + n + 1)])
                for n in range(max(n_min, -k), min(n_max, 0) + 1)]
        rows += _binomial_rows(max(n_min, 1), n_max, k)
        vals, bounds = _sums(rows, c, err, ctx.working(15))
        return [mpf(0)] * zeros + vals, [-math.inf] * zeros + bounds, None

    vals, _ = _proved(build, ctx)
    return CoeffTable(family="power", n_min=n_min, n_max=n_max, values=tuple(vals),
                      digits=ctx.digits, k=k)


# ---------------------------------------------------------------------------
# Decay diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayDiagnostics:
    """Qualitative decay report: no pass/fail semantics attached.

    alpha_fit is the least-squares exponent of |coeff_n| ~ n**-alpha over the
    top half of the index range; the running sums feed the divergence and
    Parseval diagnostics.
    """

    alpha_fit: float
    abs_partial_sums: tuple
    sq_partial_sums: tuple


def decay_diagnostics(table: CoeffTable) -> DecayDiagnostics:
    if table.n_max < 50:
        raise ValueError("decay diagnostics need n_max >= 50")
    with workdps(table.digits + 10):
        pos = table.positive_slice()
        abs_s, sq_s = [], []
        acc_a, acc_q = mpf(0), mpf(0)
        for v in pos:
            acc_a += abs(v)
            acc_q += v * v
            abs_s.append(+acc_a)
            sq_s.append(+acc_q)
        lo = max(1, table.n_max // 2)
        xs = [math.log(n) for n in range(lo, table.n_max + 1)]
        ys = [float(mp.log(abs(pos[n]))) for n in range(lo, table.n_max + 1)]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return DecayDiagnostics(
        alpha_fit=-slope,
        abs_partial_sums=tuple(abs_s),
        sq_partial_sums=tuple(sq_s),
    )
