"""Precision contract, exact arithmetic and serialization shared by every module.

All high-precision values are mpmath ``mpf``/``mpc`` numbers; a
:class:`PrecisionCtx` pins the number of significant decimal digits a
computation is expected to deliver, and every operation widens its working
precision internally so that the advertised digits survive rounding.
Reductions are always performed in a fixed, documented index order, so a
given context yields bit-identical results run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath
from mpmath import mp, mpc, mpf, workdps

__all__ = [
    "PrecisionCtx",
    "PrecisionUnachievableError",
    "binom_exact",
    "hreal_to_str",
    "str_to_hreal",
    "bernoulli_fraction",
    "smallest_prime_factors",
]

Number = Union[mpf, mpc, int, float]

#: Hard ceiling on internal working precision (decimal digits).  Operations
#: that would have to widen beyond this raise PrecisionUnachievableError
#: instead of silently returning garbage.
MAX_WORKING_DIGITS = 100_000


class PrecisionUnachievableError(ArithmeticError):
    """The requested accuracy would exceed the configured precision ceiling."""


@dataclass(frozen=True)
class PrecisionCtx:
    """Target significant decimal digits for a computation.

    digits >= 15; every elementary operation performed inside this context
    carries relative error at most 10**(1 - digits).
    """

    digits: int

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError(f"PrecisionCtx requires digits >= 15, got {self.digits}")

    def working(self, extra: int = 10) -> int:
        wd = self.digits + extra
        if wd > MAX_WORKING_DIGITS:
            raise PrecisionUnachievableError(
                f"working precision {wd} exceeds ceiling {MAX_WORKING_DIGITS}"
            )
        return wd


def binom_exact(n: int, k: int) -> int:
    """Exact binomial coefficient as an arbitrary-size integer (k <= n)."""
    if k < 0 or n < 0:
        raise ValueError("binom_exact requires nonnegative arguments")
    if k > n:
        raise ValueError(f"binom_exact requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Decimal serialization: "+d.ddd...e+xx" with exactly ``digits`` significant
# digits.  Round-trips exactly: parse -> format reproduces the same string.
# ---------------------------------------------------------------------------

def hreal_to_str(x: Number, digits: int) -> str:
    with workdps(digits + 15):
        v = mpf(x)
        if mpmath.isnan(v):
            return "nan"
        if mpmath.isinf(v):
            return ("+" if v > 0 else "-") + "inf"
        sign = "-" if v < 0 else "+"
        a = abs(v)
        if a == 0:
            mant = "0." + "0" * (digits - 1)
            return f"{sign}{mant}e+00"
        e = int(mp.floor(mp.log10(a)))
        # scale to [1, 10); guard against boundary rounding
        m = a / mpf(10) ** e
        if m >= 10:
            m /= 10
            e += 1
        elif m < 1:
            m *= 10
            e -= 1
        q = mpmath.nstr(m, digits, strip_zeros=False)
        if "." not in q:
            q += "."
        ip, fp = q.split(".")
        if len(ip) > 1:  # rounding pushed mantissa to 10.0...
            e += len(ip) - 1
            fp = (ip[1:] + fp)[: digits - 1]
            ip = ip[0]
        fp = (fp + "0" * digits)[: digits - 1]
        esign = "+" if e >= 0 else "-"
        return f"{sign}{ip}.{fp}e{esign}{abs(e):02d}"


def str_to_hreal(s: str, digits: int) -> mpf:
    with workdps(digits + 15):
        return mpf(s)


# ---------------------------------------------------------------------------
# Bernoulli numbers as exact rationals (from tangent numbers), cached immutably.
# Used by the Euler-Maclaurin machinery and by the limit-definition oracle.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_upto(n_max: int) -> tuple:
    """B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), from the integer tangent
    numbers T_k by the recurrence of Brent and Harvey (arXiv:1108.0286)."""
    h = n_max // 2
    T = [0] + [math.factorial(k - 1) for k in range(1, h + 1)]
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    B = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n_max - 1)
    for k in range(1, h + 1):
        B[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * T[k], 4 ** k * (4 ** k - 1))
    return tuple(B[:n_max + 1])


def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    block = ((n // 64) + 1) * 64
    return _bernoulli_upto(block)[n]


# ---------------------------------------------------------------------------
# Smallest prime factors, for the prime fills of n^-s in the mp
# Euler-Maclaurin kernel (zeta._zeta_em_raw) and in fastzeta._prime_fill.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def smallest_prime_factors(n: int) -> tuple:
    """Smallest prime factor of each k <= n (k itself for primes, 0 and 1).

    Both callers ask for a power of two n, so nearby cutoffs share one sieve.
    """
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for q in range(p * p, n + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return tuple(spf)
