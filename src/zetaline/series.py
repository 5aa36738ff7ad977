"""Basis functions, the Cayley map, and the series forms of zeta.

On the unit disk the coefficient family generates

    h(z) = sum_{n>=0} ell_n z^n = 1/z + zeta(1/(1+z)),

absolutely convergent for |z| < 1; the Cayley map s = 1/(1+z) carries the
disk onto the half-plane Re s > 1/2, where

    zeta(s) = s/(s-1) + sum_{n>=0} ell_n ((1-s)/s)^n.

Direct summation loses its tail control near |z| = 1, so the evaluator
switches to the closed form there (and records which route it used).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from mpmath import mp, mpc, mpf, workdps

from .coefficients import PARSEVAL_SQ_CEILING, CoeffTable
from .precision import PrecisionCtx
from .zeta import ZetaPoleError, zeta_minus_pole

__all__ = [
    "basis_e",
    "cayley",
    "cayley_inv",
    "EvalInfo",
    "eval_h",
    "zeta_via_series",
    "partial_sum_fN",
    "tail_sq_after",
    "cs_tail_bound",
    "phi",
    "cs_bound_check",
]


def basis_e(n: int, t, ctx: PrecisionCtx) -> mpc:
    """e_n(t) = ((1/2 - it)/(1/2 + it))**n = exp(-2 i n arctan 2t).

    The arctangent phase form is exact for every n, so huge |n| costs one
    multiply instead of a power loop; |e_n(t)| = 1 to rounding.
    """
    with workdps(ctx.working()):
        t = mpf(t)
        return +mp.expj(-2 * n * mp.atan(2 * t))


def cayley(z) -> mpc:
    """Disk to half-plane: s = 1/(1+z); pole at z = -1."""
    with workdps(mp.dps + 5):
        z = mpc(z)
        if z == -1:
            raise ZeroDivisionError("Cayley map has its pole at z = -1")
        return +(1 / (1 + z))


def cayley_inv(s) -> mpc:
    """Half-plane to disk: z = (1-s)/s; pole at s = 0."""
    with workdps(mp.dps + 5):
        s = mpc(s)
        if s == 0:
            raise ZeroDivisionError("inverse Cayley map has its pole at s = 0")
        return +((1 - s) / s)


@dataclass(frozen=True)
class EvalInfo:
    """How a disk/series evaluation was produced."""

    route: str            # "direct-sum" | "closed-form"
    n_used: int = 0
    tail_bound: float = 0.0


def _require_critical(coeffs: CoeffTable) -> None:
    """The Parseval ceiling and the closed form of h belong to the critical family."""
    if coeffs.family != "critical":
        raise ValueError(f"needs the critical family's table, not a {coeffs.family!r} one")


def tail_sq_after(coeffs: CoeffTable, n: int):
    """Upper bound on sum_{m>n} ell_m^2: Parseval ceiling minus the partial sum.

    The ceiling log 2 pi - gamma_0 - 1 is the critical family's norm; any
    other table raises ValueError.
    """
    _require_critical(coeffs)
    with workdps(coeffs.digits):
        ceiling = mpf(PARSEVAL_SQ_CEILING)
        part = mp.fsum(coeffs.value(m) ** 2 for m in range(0, n + 1))
        return max(ceiling - part, mpf(0))


def cs_tail_bound(coeffs: CoeffTable, n: int, r):
    """Cauchy-Schwarz bound on |sum_{m>n} ell_m z^m| for |z| = r < 1."""
    with workdps(coeffs.digits):
        r = mpf(r)
        if r >= 1:
            return mp.inf
        return mp.sqrt(tail_sq_after(coeffs, n)) * r ** (n + 1) / mp.sqrt(1 - r * r)


def _h_closed_form(z: mpc, ctx: PrecisionCtx) -> mpc:
    if z == 0:
        raise ZeroDivisionError("closed form of h needs z != 0; h(0) = ell_0")
    s = 1 / (1 + z)
    # h(z) = 1/z + zeta(s) = (1/z - 1/(s-1)) + (zeta(s) - 1/(s-1)) + 1/(s-1) ...
    # direct combination is fine except near s = 1 where zeta_minus_pole takes over
    g = zeta_minus_pole(s, ctx)
    return +(1 / z + g + 1 / (s - 1))


def eval_h(
    z,
    coeffs: CoeffTable,
    tol,
    ctx: PrecisionCtx | None = None,
    return_info: bool = False,
):
    """The generating function h(z) = sum ell_n z^n on the closed disk.

    Direct power summation, truncated once the Cauchy-Schwarz tail bound
    drops below tol.  When the bound cannot reach tol with the table's n_max
    (always so on |z| = 1), the evaluator switches to the closed form
    1/z + zeta(1/(1+z)) and records the route.
    """
    _require_critical(coeffs)
    ctx = ctx or PrecisionCtx(max(15, coeffs.digits // 2))
    with workdps(ctx.working()):
        z = mpc(z)
        r = abs(z)
        if r > 1:
            raise ValueError(f"|z| = {r} outside the closed unit disk")
        tol = mpf(tol)
        # the bound falls with n: the first index that meets tol, or n_max + 1
        n_stop = bisect_left(range(coeffs.n_max + 1), True,
                             key=lambda n: cs_tail_bound(coeffs, n, r) < tol)
        if n_stop > coeffs.n_max:
            if z == 0:
                val = mpc(coeffs.value(0))
                info = EvalInfo("direct-sum", 0, 0.0)
            else:
                val = _h_closed_form(z, ctx)
                info = EvalInfo("closed-form")
            return (val, info) if return_info else val
        acc = mpc(0)
        for n in range(n_stop, -1, -1):
            acc = acc * z + coeffs.value(n)
        info = EvalInfo("direct-sum", n_stop, float(cs_tail_bound(coeffs, n_stop, r)))
        return (acc, info) if return_info else +acc


def zeta_via_series(s, coeffs: CoeffTable, tol, ctx: PrecisionCtx | None = None,
                    return_info: bool = False):
    """zeta(s) = s/(s-1) + h((1-s)/s) for Re s > 1/2.

    At s = 1 the series part is finite (= ell_0) but the pole part is not;
    a ZetaPoleError carrying the regular value is raised.
    """
    ctx = ctx or PrecisionCtx(max(15, coeffs.digits // 2))
    with workdps(ctx.working()):
        s = mpc(s)
        if s.real <= mpf("0.5"):
            raise ValueError(f"series representation requires Re s > 1/2, got {s}")
        if s == 1:
            raise ZetaPoleError(
                f"pole at s = 1; the series part alone equals ell_0 = {coeffs.value(0)}"
            )
        z = (1 - s) / s
        out = eval_h(z, coeffs, tol, ctx, return_info=True)
        val, info = out
        val = val + s / (s - 1)
        return (+val, info) if return_info else +val


def partial_sum_fN(N: int, z, coeffs: CoeffTable) -> mpc:
    """f_N(z) = -1 + sum_{n=0}^{N} ell_n z^{n+1}, evaluated in Horner order."""
    if N > coeffs.n_max:
        raise ValueError(f"N={N} exceeds the table's n_max={coeffs.n_max}")
    with workdps(coeffs.digits + 10):
        z = mpc(z)
        acc = mpc(0)
        for n in range(N, -1, -1):
            acc = acc * z + coeffs.value(n)
        return +(acc * z - 1)


# ---------------------------------------------------------------------------
# phi(s) = integral_1^inf {x} x^{-s-1} dx
# ---------------------------------------------------------------------------

def phi(s, ctx: PrecisionCtx) -> mpc:
    """phi(s) via the identity route (s/(s-1) - zeta(s))/s, Re s >= 1/2, s != 1.

    zeta(s) = s/(s-1) - s phi(s) rearranged; the removable combination is
    computed through zeta_minus_pole so nothing blows up approaching s = 1.
    """
    with workdps(ctx.working()):
        s = mpc(s)
        if s == 1:
            raise ZetaPoleError("phi's identity route needs s != 1")
        if s == 0:
            raise ZeroDivisionError("phi(0) undefined in this normalization")
        # s/(s-1) - zeta(s) = 1 - (zeta(s) - 1/(s-1))
        return +((1 - zeta_minus_pole(s, ctx)) / s)


def cs_bound_check(s, ctx: PrecisionCtx | None = None) -> dict:
    """Check |zeta(s) - s/(s-1)| <= sqrt((log 2pi - gamma0 - 1)/(2 sigma - 1)) |s|.

    Returns lhs, rhs and holds; valid for every Re s > 1/2 (s = 1 included,
    where the left side is |gamma0 - 1|).
    """
    ctx = ctx or PrecisionCtx(30)
    with workdps(ctx.working()):
        s = mpc(s)
        if s.real <= mpf("0.5"):
            raise ValueError("bound holds for Re s > 1/2 only")
        lhs = abs(zeta_minus_pole(s, ctx) - 1)
        rhs = mp.sqrt(mpf(PARSEVAL_SQ_CEILING) / (2 * s.real - 1)) * abs(s)
        return {
            "lhs": +lhs,
            "rhs": +rhs,
            "holds": bool(lhs <= rhs + mpf(10) ** (-(ctx.digits - 5))),
        }
