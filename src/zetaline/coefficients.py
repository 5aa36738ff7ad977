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
  term (-1)**k / (sigma0 - 1/2)**(k+1) is added back.  For 1/2 < sigma0 < 1
  the negative indices follow the closed geometric form from the pole at
  3/2 - sigma0, and entry 0 is
  zeta(sigma0+1/2) - 1/(sigma0-1/2) - 1/(3/2-sigma0).  For sigma0 > 1 the
  negative indices vanish.

* ``power(k)``: the family for zeta**k on the critical line, with
  b_j = c_{j+k}, the Taylor coefficients c_m of (s-1)^k zeta(s)^k at s = 1:
  the k-th series power of 1 + u sum_j a_j u^j, u = s - 1, with the a_j of
  the Stieltjes table through n_max + k.  Zero for n < -k.

The positive-index binomial sums cancel catastrophically: terms reach about
1.3183**n while the results shrink, so construction demands the documented
precision reserve digits >= 60 + ceil(0.15 n_max).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from mpmath import mp, mpf, workdps

from .precision import PrecisionCtx, binom_exact, hreal_to_str
from . import zeta as zeta_mod
from .zeta import StieltjesTable, taylor_minus_pole

__all__ = [
    "CoeffTable",
    "InsufficientPrecisionError",
    "InsufficientTableError",
    "coeffs_critical",
    "coeffs_line",
    "coeffs_power",
    "reserve_digits",
    "decay_diagnostics",
    "DecayDiagnostics",
    "PARSEVAL_SQ_CEILING",
]

#: Decimal value of log(2 pi) - gamma_0 - 1, the Parseval ceiling for
#: sum_{n>=0} ell_n^2 (used as an upper-bound invariant, 40 digits).
PARSEVAL_SQ_CEILING = "0.2606614015078126229541473827288328486806"


class InsufficientPrecisionError(ArithmeticError):
    """ctx violates the cancellation reserve digits >= 60 + 0.15 n_max."""


class InsufficientTableError(ValueError):
    """The supplied Stieltjes table is too short for the request."""


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients indexed n_min..n_max for one family.

    Entries are accurate to at least ``digits - ceil(0.15 n_max)`` decimal
    digits (>= 60 by the construction precondition).
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


def reserve_digits(n_max: int) -> int:
    """The cancellation reserve for a table through n_max: 60 + ceil(0.15 n_max) digits."""
    return 60 + (3 * n_max + 19) // 20


def _reserve_check(n_max: int, ctx: PrecisionCtx):
    need = reserve_digits(n_max)
    if ctx.digits < need:
        raise InsufficientPrecisionError(
            f"n_max={n_max} requires digits >= {need} (cancellation reserve), got {ctx.digits}"
        )


def _binomial_sums(b: Sequence, n_lo: int, n_max: int, ctx: PrecisionCtx) -> list:
    """(-1)^n sum_{k=1}^{n} C(n-1, k-1) b_k for n = n_lo..n_max, k ascending."""
    vals = []
    with workdps(ctx.working(15)):
        for n in range(n_lo, n_max + 1):
            acc = mpf(0)
            for k in range(1, n + 1):
                acc += binom_exact(n - 1, k - 1) * b[k]
            vals.append(+(acc * (-1) ** n))
    return vals


def coeffs_critical(n_max: int, gammas: StieltjesTable, ctx: PrecisionCtx) -> CoeffTable:
    """The critical-line family for n = -1..n_max."""
    _reserve_check(n_max, ctx)
    if gammas.k_max < n_max:
        raise InsufficientTableError(f"need gamma_k through k={n_max}, table has {gammas.k_max}")
    a = gammas.taylor
    with workdps(ctx.working(15)):
        vals = [mpf(-1), a[0] - 1]
    vals += _binomial_sums(a, 1, n_max, ctx)
    return CoeffTable(
        family="critical", n_min=-1, n_max=n_max, values=tuple(vals), digits=ctx.digits
    )


def coeffs_line(sigma0, n_min: int, n_max: int, ctx: PrecisionCtx) -> CoeffTable:
    """The family for the vertical line Re s = sigma0 (sigma0 > 1/2, != 1).

    b_0..b_{n_max} are the Taylor coefficients of zeta(s) - 1/(s-1) at
    sigma0 + 1/2 from ``zeta.taylor_minus_pole``, the pass the Stieltjes
    table reads at s = 1.  Entry 0 is b_0 + 1/(sigma0 - 1/2), which is
    zeta(sigma0 + 1/2), for sigma0 > 1, and b_0 - 1/(3/2 - sigma0) below 1;
    the negative entries are closed forms.
    """
    with workdps(ctx.working()):
        sigma0 = mpf(sigma0)
    if sigma0 <= mpf("0.5"):
        raise ValueError("sigma0 must exceed 1/2; the critical family handles sigma0 = 1/2")
    if sigma0 == 1:
        raise ValueError("sigma0 = 1 excluded: t -> zeta(1+it) is not square-integrable")
    if n_max >= 1:
        _reserve_check(n_max, ctx)
    with workdps(ctx.working(15)):
        half = mpf("0.5")
        x = sigma0 - half
        b = taylor_minus_pole(sigma0 + half, max(n_max, 0), ctx)[0]
        vals = []
        for n in range(n_min, min(n_max, -1) + 1):
            if sigma0 > 1:
                vals.append(mpf(0))
            else:
                sign = 1 if n % 2 == 0 else -1
                vals.append(+(sign / x ** 2 * ((sigma0 - mpf("1.5")) / x) ** (n - 1)))
        if sigma0 > 1:
            b = [c + (-1) ** k / x ** (k + 1) for k, c in enumerate(b)]
        if n_min <= 0 <= n_max:
            vals.append(b[0] if sigma0 > 1 else +(b[0] - 1 / (mpf("1.5") - sigma0)))
    vals += _binomial_sums(b, max(n_min, 1), n_max, ctx)
    return CoeffTable(
        family="line",
        n_min=n_min,
        n_max=n_max,
        values=tuple(vals),
        digits=ctx.digits,
        sigma0=sigma0,
    )


def _power_taylor(k: int, m_max: int, ctx: PrecisionCtx) -> tuple:
    """c_0..c_{m_max}: Taylor coefficients of (s-1)^k zeta(s)^k at s = 1.

    (s-1) zeta(s) = 1 + u sum_j a_j u^j with u = s - 1 and the a_j of
    ``StieltjesTable.taylor``, so c_m is the u^m coefficient of that series
    raised to the k-th power; lambda_{m,k} = m! c_m.
    """
    taylor = zeta_mod.stieltjes(m_max, ctx).taylor
    with workdps(ctx.working(15)):
        base = (mpf(1),) + taylor[:m_max]
        power = base
        for _ in range(k - 1):
            power = tuple(
                mp.fsum(power[j] * base[m - j] for j in range(m + 1)) for m in range(m_max + 1)
            )
    return power


def coeffs_power(k: int, n_min: int, n_max: int, ctx: PrecisionCtx) -> CoeffTable:
    """The family for zeta**k on the critical line, with c_m from ``_power_taylor``.

    For n >= 1:      (-1)^n sum_{j=1}^{n} C(n-1,j-1) c_{j+k}
    For -k <= n <= 0: (-1)^k sum_{j=0}^{k+n} C(k-j,-n) (-1)^j c_j
    For n < -k: exactly 0.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    if n_max >= 1:
        _reserve_check(n_max, ctx)
    c = _power_taylor(k, max(n_max, 0) + k, ctx)
    with workdps(ctx.working(15)):
        vals = []
        for n in range(n_min, min(n_max, 0) + 1):
            if n < -k:
                vals.append(mpf(0))
                continue
            acc = mpf(0)
            for j in range(0, k + n + 1):
                acc += binom_exact(k - j, -n) * (-1) ** j * c[j]
            vals.append(+(acc * (-1) ** k))
    vals += _binomial_sums(c[k:], max(n_min, 1), n_max, ctx)
    return CoeffTable(
        family="power", n_min=n_min, n_max=n_max, values=tuple(vals),
        digits=ctx.digits, k=k,
    )


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
