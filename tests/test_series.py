import math

import pytest
from mpmath import mp, mpc, mpf, workdps

from zetaline.precision import PrecisionCtx
from zetaline.series import (
    basis_e,
    cayley,
    cayley_inv,
    cs_bound_check,
    cs_tail_bound,
    eval_h,
    partial_sum_fN,
    phi,
    tail_sq_after,
    zeta_via_series,
)
from zetaline import zeta as zeta_mod
from zetaline.zeta import ZetaPoleError, stieltjes, zeta_em
from zetaline.coefficients import PARSEVAL_SQ_CEILING, CoeffTable, coeffs_critical, coeffs_line
from zetaline.roots import tail_radius_certificate

CTX = PrecisionCtx(80)


@pytest.fixture(scope="module")
def crit():
    gam = stieltjes(140, CTX)
    return coeffs_critical(133, gam, CTX)


# The two routes below have no caller in the library: phi by direct panel
# integration checks phi's identity route, and the line CSV checks that the
# boundary partial sums need no Stieltjes table.

def phi_integral_oracle(s, tol, ctx: PrecisionCtx | None = None):
    """phi(s) by direct panel integration of {x} x^{-s-1}: the independent route.

    On [k, k+1) the integrand is (x - k) x^{-s-1}, integrated exactly per
    panel; the tail beyond x_cut uses {x} = 1/2 + (zero-mean periodic part),
    contributing X^{-s}/(2s) plus a remainder below (|s|+1)/8 X^{-Re s-1}.
    Returns (value, remainder_bound).  No zeta evaluation anywhere.
    """
    ctx = ctx or PrecisionCtx(30)
    with workdps(ctx.working(10)):
        s = mpc(s)
        sigma = float(s.real)
        if sigma < 0.5:
            raise ValueError("oracle route implemented for Re s >= 1/2")
        x_cut = int(math.ceil(((abs(complex(s)) + 1) / (8 * float(tol))) ** (1 / (sigma + 1)))) + 2
        x_cut = min(max(x_cut, 50), 5_000_000)
        acc = mpc(0)
        # int_k^{k+1} (x-k) x^{-s-1} dx = [x^{1-s}/(1-s) + k x^{-s}/s]_k^{k+1}
        for k in range(1, x_cut):
            a, b = mpf(k), mpf(k + 1)
            term = (b ** (1 - s) - a ** (1 - s)) / (1 - s) + k * (b ** -s - a ** -s) / s
            acc += term
        X = mpf(x_cut)
        acc += X ** -s / (2 * s)
        rem_bound = (abs(s) + 1) / 8 * X ** (-s.real - 1)
        return +acc, +rem_bound


def line_comparison_csv(ts, N: int, coeffs: CoeffTable, ctx: PrecisionCtx | None = None) -> str:
    """CSV rows (t, Re zeta, Im zeta, Re Z_N, Im Z_N, |error|) for line plots.

    Z_N is the boundary partial sum gamma0 - 1/(1/2 - it) + sum_{n<=N} ell_n e_n.
    """
    ctx = ctx or PrecisionCtx(30)
    lines = ["t,zeta_re,zeta_im,partial_re,partial_im,abs_error"]
    with workdps(ctx.working()):
        gamma0 = +mp.euler
        for t in ts:
            t = mpf(t)
            zv = zeta_em(mpc(mpf("0.5"), t), ctx)
            acc = mpc(0)
            for n in range(1, N + 1):
                acc += coeffs.value(n) * basis_e(n, t, ctx)
            zn = gamma0 - 1 / (mpf("0.5") - 1j * t) + acc
            err = abs(zn - zv)
            lines.append(
                f"{float(t)!r},{float(zv.real)!r},{float(zv.imag)!r},"
                f"{float(zn.real)!r},{float(zn.imag)!r},{float(err)!r}"
            )
    return "\n".join(lines) + "\n"


def test_basis_values():
    ctx = PrecisionCtx(30)
    with workdps(40):
        assert abs(basis_e(0, mpf("3.7"), ctx) - 1) < mpf("1e-28")
        assert abs(basis_e(7, mpf(0), ctx) - 1) < mpf("1e-28")
        assert abs(basis_e(1, mpf("0.5"), ctx) + 1j) < mpf("1e-28")


def test_basis_modulus_large_n():
    ctx = PrecisionCtx(30)
    with workdps(40):
        for n in (10_000, -10_000, 123_456):
            for tt in ("0.1", "7"):
                assert abs(abs(basis_e(n, mpf(tt), ctx)) - 1) < mpf("1e-27")


def test_cayley_pair():
    with workdps(40):
        assert cayley(0) == 1
        assert cayley_inv(2) == mpf("-0.5")
        # circle maps to the critical line
        z = mp.expjpi(mpf("0.3"))
        assert abs(cayley(z).real - mpf("0.5")) < mpf("1e-30")


def test_cayley_roundtrip_disk_sample():
    with workdps(40):
        for i in range(100):
            r = mpf(i % 10) / 10 + mpf("0.05")
            th = mpf(2 * i) / 100
            z = r * mp.expjpi(th) * mpf("0.9")
            w = cayley_inv(cayley(z))
            assert abs(w - z) < mpf(10) ** (-37)


def test_cayley_poles():
    with pytest.raises(ZeroDivisionError):
        cayley(-1)
    with pytest.raises(ZeroDivisionError):
        cayley_inv(0)


def test_h_at_zero_and_closed_form_points(crit):
    ctx = PrecisionCtx(40)
    with workdps(60):
        h0 = eval_h(0, crit, mpf("1e-20"), ctx)
        assert abs(h0 - crit.value(0)) < mpf("1e-38")
        hm, info = eval_h(mpf("-0.5"), crit, mpf("1e-15"), ctx, return_info=True)
        assert info.route == "direct-sum"
        assert abs(hm - (zeta_em(2, ctx) - 2)) < mpf("1e-14")
        h3 = eval_h(mpf(1) / 3, crit, mpf("1e-15"), ctx)
        assert abs(h3 - (3 + zeta_em(mpf("0.75"), ctx))) < mpf("1e-14")


def test_h_boundary_switches_route(crit):
    """Near the circle the Cauchy-Schwarz bound alone picks the route: at
    |z| = 0.955 it meets a loose tol inside the table, so the series is summed."""
    ctx = PrecisionCtx(30)
    for r, tol, route in [("0.97", "1e-10", "closed-form"), ("0.955", "1e-2", "direct-sum")]:
        z = mpf(r) * mp.expjpi(mpf("0.25"))
        val, info = eval_h(z, crit, mpf(tol), ctx, return_info=True)
        assert info.route == route, r
        with workdps(40):
            direct = 1 / z + zeta_em(1 / (1 + z), ctx)
            assert abs(val - direct) <= max(info.tail_bound, mpf("1e-25")), r


def test_zeta_via_series_geometric_point(crit):
    ctx = PrecisionCtx(40)
    with workdps(60):
        v = zeta_via_series(2, crit, mpf("1e-14"), ctx)
        assert abs(v - zeta_em(2, ctx)) < mpf("1e-12")


def test_zeta_via_series_complex_point(crit):
    ctx = PrecisionCtx(30)
    s = mpc("0.75", "5")
    with workdps(40):
        v = zeta_via_series(s, crit, mpf("1e-8"), ctx)
        assert abs(v - zeta_em(s, ctx)) < mpf("1e-6")


def test_zeta_via_series_pole_payload(crit):
    with pytest.raises(ZetaPoleError):
        zeta_via_series(1, crit, mpf("1e-10"))


def test_partial_sum_constant_term(crit):
    with workdps(60):
        for N in (0, 3, 50):
            assert partial_sum_fN(N, 0, crit) == -1


def test_partial_sum_linear_root(crit):
    """f_0(z) = -1 + ell_0 z has its root at 1/ell_0, outside the disk."""
    with workdps(60):
        root = 1 / crit.value(0)
        assert abs(root + mpf("2.365")) < mpf("0.001")
        assert abs(partial_sum_fN(0, root, crit)) < mpf("1e-55")


def test_partial_sum_tail_bound_at_half(crit):
    """|f - f_N| at z0 = 0.5 stays below the Cauchy-Schwarz tail bound."""
    ctx = PrecisionCtx(40)
    with workdps(60):
        z0 = mpf("0.5")
        N = 40
        f_full = z0 * eval_h(z0, crit, mpf("1e-30"), ctx) - 1
        f_N = partial_sum_fN(N, z0, crit)
        bound = cs_tail_bound(crit, N, z0) * z0  # z h-tail, plus |z| factor
        assert abs(f_full - f_N) <= bound


def test_tail_bounds_refuse_a_line_table():
    """The Parseval ceiling log 2 pi - gamma_0 - 1 bounds the critical
    family's squares only.  The line family at sigma0 = 3/4 has
    ell_0^2 = 0.545 above it, so a ceiling-based tail bound of 0 would let
    eval_h stop at ell_0 and the Rouche certificate pass on nothing: the
    tail bounds, eval_h, zeta_via_series and the certificate refuse the
    table instead."""
    line = coeffs_line("0.75", -5, 20, PrecisionCtx(70))
    with workdps(40):
        assert line.value(0) ** 2 > mpf(PARSEVAL_SQ_CEILING)
    calls = [
        lambda: tail_sq_after(line, 5),
        lambda: cs_tail_bound(line, 5, mpf("0.5")),
        lambda: eval_h(mpf("0.5"), line, mpf("1e-10")),
        lambda: zeta_via_series(2, line, mpf("1e-10")),
        lambda: tail_radius_certificate(20, mpf("0.5"), line),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_phi_identity_route(crit):
    ctx = PrecisionCtx(40)
    with workdps(60):
        p2 = phi(2, ctx)
        assert abs(p2 - (2 - zeta_em(2, ctx)) / 2) < mpf("1e-35")
        # decay as Re s grows: the first fractional-part panel dominates and
        # gives phi(s) ~ 1/(s(s-1)) - 1/s + ..., i.e. phi(20) ~ 1/380
        p20 = phi(20, ctx)
        assert abs(p20) < mpf(1) / 20
        assert abs(p20 - mpf(1) / 380) < mpf("2e-5")
        assert abs(phi(60, ctx)) < abs(phi(40, ctx)) < abs(p20)


def test_phi_integral_oracle_agrees():
    ctx = PrecisionCtx(30)
    with workdps(45):
        ident = phi(2, ctx)
        direct, rem = phi_integral_oracle(2, 1e-10)
        assert abs(direct - ident) <= mpf("1e-9") + rem


def test_phi_chain_through_h(crit):
    ctx = PrecisionCtx(40)
    with workdps(60):
        for s in (mpc(3), mpc(2)):
            lhs = -s * phi(s, ctx)
            rhs = eval_h(cayley_inv(s), crit, mpf("1e-12"), ctx)
            assert abs(lhs - rhs) < mpf("1e-10")


def test_cs_bound_examples():
    ctx = PrecisionCtx(30)
    r = cs_bound_check(2, ctx)
    with workdps(40):
        assert r["holds"]
        assert abs(r["lhs"] - mpf("0.35507")) < mpf("1e-4")
        assert abs(r["rhs"] - mpf("0.5896")) < mpf("1e-3")
    r = cs_bound_check(mpf("0.6"), ctx)
    assert r["holds"]
    with workdps(40):
        assert abs(r["rhs"] - mpf("0.6849")) < mpf("1e-3")
    assert cs_bound_check(mpc(10, 100), ctx)["holds"]


def test_boundary_partial_sums_improve(crit):
    """Pointwise boundary convergence diagnostic.

    The printed claim of a fixed 1e-4 agreement at reachable N is not
    attainable: the coefficients fall like ~n^{-3/4} under oscillation, so
    boundary tails shrink like N^{-1/4}.  What is checkable is that the
    partial sums do approach zeta(1/2+it) as N grows.
    """
    ctx = PrecisionCtx(40)
    gamma0 = stieltjes(2, ctx).gammas[0]
    with workdps(60):
        for tt in (mpf(0), mpf(1), mpf(5), mpf("14.134725")):
            target = zeta_em(mpc(mpf("0.5"), tt), ctx)
            errs = []
            for N in (30, 120, crit.n_max):
                acc = mpc(0)
                for n in range(1, N + 1):
                    acc += crit.value(n) * basis_e(n, tt, ctx)
                zn = gamma0 - 1 / (mpf("0.5") - 1j * tt) + acc
                errs.append(abs(zn - target))
            assert errs[-1] < errs[0]


def test_line_comparison_needs_no_stieltjes_table(crit, monkeypatch):
    """gamma_0 in Z_N is Euler's constant; no contour table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("line_comparison_csv built a Stieltjes table")

    monkeypatch.setattr(zeta_mod, "stieltjes", no_table)
    rows = line_comparison_csv([0], 10, crit, PrecisionCtx(30)).splitlines()
    assert rows[0] == "t,zeta_re,zeta_im,partial_re,partial_im,abs_error"
    with workdps(40):
        # e_n(0) = 1, so Z_N(0) = gamma_0 - 2 + sum_{n<=N} ell_n
        expect = mp.euler - 2 + mp.fsum(crit.value(n) for n in range(1, 11))
    assert abs(float(rows[1].split(",")[3]) - float(expect)) < 1e-14
