from fractions import Fraction

import pytest
from mpmath import mp, mpf, workdps

from zetaline.coefficients import (
    PARSEVAL_SQ_CEILING,
    CoeffTable,
    InsufficientTableError,
    coeffs_critical,
    coeffs_line,
    coeffs_power,
    decay_diagnostics,
    _binomial_rows,
    _power_taylor,
    _proved,
    _sums,
)
from zetaline import coefficients
from zetaline.precision import PrecisionCtx, PrecisionUnachievableError, binom_exact, hreal_to_str
from zetaline.series import basis_e
from zetaline.zeta import StieltjesTable, stieltjes

CTX = PrecisionCtx(70)


def _half_unit(v, digits):
    """Half a unit in the digits-th significant digit of v."""
    return mpf(10) ** (mp.floor(mp.log10(abs(v))) + 1 - digits) / 2


@pytest.fixture(scope="module")
def gammas():
    return stieltjes(100, CTX)


@pytest.fixture(scope="module")
def crit(gammas):
    return coeffs_critical(60, gammas, CTX)


def test_low_index_values(gammas, crit):
    with workdps(80):
        assert crit.value(-1) == -1
        assert abs(crit.value(0) - (gammas.gammas[0] - 1)) < mpf("1e-60")
        assert abs(crit.value(1) - gammas.gammas[1]) < mpf("1e-60")
        two = -gammas.gammas[1] + gammas.gammas[2] / 2
        assert abs(crit.value(2) - two) < mpf("1e-60")
        # reference decimals
        assert abs(crit.value(0) - mpf("-0.4227843351")) < mpf("1e-9")
        assert abs(crit.value(2) - mpf("0.0679706")) < mpf("1e-6")


def test_table_whose_bound_misses_is_refused(gammas):
    """A Stieltjes table whose error bounds are 1e-50 proves no 70th digit,
    however many digits the sums carry: the critical family refuses.  One
    that claims exact gamma_k, as a seeded cache entry does, still carries
    its rounding and passes at 61 digits."""
    loose = StieltjesTable(gammas.k_max, gammas.gammas, gammas.digits,
                           tuple(mpf("1e-50") for _ in gammas.gammas))
    with pytest.raises(PrecisionUnachievableError, match="misses half a unit in the 70-th digit"):
        coeffs_critical(20, loose, CTX)
    exact = StieltjesTable(5, gammas.gammas[:6], 61, (mpf(0),) * 6)
    assert coeffs_critical(5, exact, PrecisionCtx(61)).n_max == 5


def test_refusals_name_digits_only_from_a_finite_shortfall():
    """A bound that misses by 10^9.3 builds once more, 13 digits up, then
    names the digits; an entry that is 0 within its bound names none."""
    digits = []

    def build(ctx, value):
        digits.append(ctx.digits)
        return [value], [-60.0], None

    with pytest.raises(PrecisionUnachievableError, match=r"at 83 digits; about 95 would") as miss:
        _proved(lambda ctx: build(ctx, mpf(2)), PrecisionCtx(70))
    assert digits == [70, 83]
    with pytest.raises(PrecisionUnachievableError, match="0 within its error bound") as zero:
        _proved(lambda ctx: build(ctx, mpf(0)), PrecisionCtx(70))
    assert digits == [70, 83, 70]
    assert "inf" not in str(miss.value) + str(zero.value)


@pytest.mark.parametrize("sigma0", ["1.5", "3"])
def test_line_family_above_one_at_n400_builds_once(sigma0, monkeypatch):
    """With the pole's row sums in closed form, n = 400 at 90 digits passes
    its bound from one series pass, and every printed entry is within half
    a unit in its last digit of the 130-digit table, up to that table's own
    half unit."""
    passes, real = [], coefficients.taylor_minus_pole

    def counted(*args):
        passes.append(args[1])
        return real(*args)

    monkeypatch.setattr(coefficients, "taylor_minus_pole", counted)
    tab = coeffs_line(sigma0, -1, 400, PrecisionCtx(90))
    assert passes == [400]
    ref = coeffs_line(sigma0, -1, 400, PrecisionCtx(130))
    with workdps(150):
        for n in range(-1, 401):
            printed, r = mpf(hreal_to_str(tab.value(n), 90)), ref.value(n)
            if r:
                assert abs(printed - r) <= _half_unit(r, 90) + _half_unit(r, 130), n
            else:
                assert printed == 0, n


def test_power_taylor_errors_bound_the_coefficients():
    """_power_taylor's majorant bounds each c_m against the same series at
    50 more digits (errors in units of 10^-w, w = digits + 15)."""
    for k in (2, 3):
        lo, err = _power_taylor(k, 30, PrecisionCtx(40))
        hi = _power_taylor(k, 30, PrecisionCtx(90))[0]
        with workdps(110):
            for m in range(31):
                assert abs(lo[m] - hi[m]) <= mpf(err[m]) * mpf(10) ** -55, (k, m)


def test_sum_bounds_hold_against_exact_rationals():
    """At 15 digits, with every term of one sign, the rounding of the
    partial sums dominates: each bound still covers the error of the sum
    against exact rational arithmetic."""
    def exact(x):
        sign, man, exp, _ = x._mpf_
        return (-1) ** sign * Fraction(man) * Fraction(2) ** exp

    b = [mpf(1) / (k + 3) for k in range(201)]
    vals, bounds = _sums(_binomial_rows(1, 200), b, [0.0] * 201, 15)
    for n, (v, bound) in enumerate(zip(vals, bounds), 1):
        ref = (-1) ** n * sum(binom_exact(n - 1, k - 1) * exact(b[k]) for k in range(1, n + 1))
        assert abs(exact(v) - ref) <= 10 ** bound, n


def test_insufficient_gamma_table(gammas):
    with pytest.raises(InsufficientTableError):
        coeffs_critical(101, gammas, PrecisionCtx(80))


def test_recomputation_at_higher_precision_agrees(gammas):
    """+20 digits move no entry by more than half a unit in its 70th digit
    (5e-73 to 5e-71 for n >= 1), plus the 90-digit table's own half unit."""
    ctx_hi = PrecisionCtx(90)
    gam_hi = stieltjes(60, ctx_hi)
    tab_lo = coeffs_critical(60, gammas, CTX)
    tab_hi = coeffs_critical(60, gam_hi, ctx_hi)
    with workdps(100):
        for n in range(-1, 61):
            hi = tab_hi.value(n)
            assert abs(tab_lo.value(n) - hi) <= _half_unit(hi, 70) + _half_unit(hi, 90), n


def test_line_family_values():
    ctx = PrecisionCtx(65)
    tab = coeffs_line(mpf("0.75"), -6, 12, ctx)
    with workdps(70):
        # closed geometric form at n = -1: -1/(1/4)^2 * ((-3/4)/(1/4))^{-2} = -16/9
        assert abs(tab.value(-1) + mpf(16) / 9) < mpf("1e-55")


def test_line_sigma_above_one():
    ctx = PrecisionCtx(61)
    tab = coeffs_line("1.2", -4, 3, ctx)
    with workdps(70):
        assert tab.value(-1) == 0 and tab.value(-4) == 0
        from zetaline.zeta import zeta_em

        assert abs(tab.value(0) - zeta_em(mpf("1.7"), ctx).real) < mpf("1e-50")


@pytest.mark.parametrize("sigma0", ["0.75", "2.4", "3.5", "6"])
def test_line_family_against_mpmath_derivatives(sigma0):
    """The series pass on its one scale, 10, against Taylor data from
    mpmath.zeta's derivatives at c = sigma0 + 1/2:
    b_k = zeta^(k)(c)/k! - (-1)^k/(c-1)^(k+1), whose pole term the line
    family adds back for sigma0 > 1, through the same binomial sums."""
    tab = coeffs_line(sigma0, 0, 8, PrecisionCtx(62))
    with workdps(80):
        s0 = mpf(sigma0)
        c = s0 + mpf("0.5")
        b = [mp.zeta(c, 1, k) / mp.factorial(k) for k in range(9)]
        if s0 < 1:
            b = [bk - (-1) ** k / (c - 1) ** (k + 1) for k, bk in enumerate(b)]
        assert abs(tab.value(0) - (b[0] if s0 > 1 else b[0] - 1 / (mpf("1.5") - s0))) < mpf("1e-50")
        for n in range(1, 9):
            ref = (-1) ** n * sum(binom_exact(n - 1, k - 1) * b[k] for k in range(1, n + 1))
            assert abs(tab.value(n) - ref) < mpf("1e-50"), n


def test_line_sigma_limit_to_half(crit):
    """ell_n(sigma0) -> ell_n as sigma0 -> 1/2+ (trend at two offsets)."""
    ctx = PrecisionCtx(65)
    e1 = coeffs_line(mpf("0.501"), -1, 20, ctx)
    e2 = coeffs_line(mpf("0.5001"), -1, 20, ctx)
    with workdps(70):
        d1 = max(abs(e1.value(n) - crit.value(n)) for n in range(21))
        d2 = max(abs(e2.value(n) - crit.value(n)) for n in range(21))
        assert d2 < d1 / 5
        assert d1 < mpf("0.02")


def test_line_domain_errors():
    with pytest.raises(ValueError):
        coeffs_line(mpf("0.5"), -1, 3, PrecisionCtx(61))
    with pytest.raises(ValueError):
        coeffs_line(1, -1, 3, PrecisionCtx(61))


def test_negative_branch_telescopes_to_pole_term():
    """sum_{n<=-1} coeff_n e_n(t) = 1/(sigma0-1+it) - 1/(sigma0-3/2)."""
    ctx = PrecisionCtx(65)
    sigma0 = mpf("0.75")
    tab = coeffs_line(sigma0, -220, 0, ctx)
    with workdps(70):
        for tt in (mpf(0), mpf(1), mpf(10)):
            acc = mp.mpc(0)
            for n in range(-1, -221, -1):
                acc += tab.value(n) * basis_e(n, tt, ctx)
            rhs = 1 / (sigma0 - 1 + 1j * tt) - 1 / (sigma0 - mpf("1.5"))
            assert abs(acc - rhs) < mpf("1e-24")


def test_power_family_reduction_and_zero_fill(crit):
    ctx = PrecisionCtx(70)
    pw = coeffs_power(1, -4, 30, ctx)
    with workdps(80):
        assert pw.value(-4) == 0 and pw.value(-2) == 0
        assert abs(pw.value(-1) + 1) < mpf("1e-55")
        for n in range(-1, 31):
            assert abs(pw.value(n) - crit.value(n)) < mpf(10) ** (-(ctx.digits - 10))


def test_power_k2_negative_branch():
    ctx = PrecisionCtx(62)
    pw = coeffs_power(2, -2, 5, ctx)
    with workdps(70):
        # n = -2 keeps only j = 0: C(2,2) lambda_{0,2} = 1
        assert abs(pw.value(-2) - 1) < mpf("1e-50")


def test_gamma_from_coeffs_inverse_identity(gammas, crit):
    """gamma_n / n! = sum_{k=1}^n C(n-1, k-1) ell_k."""
    with workdps(80):
        for n in range(1, 31):
            lhs = gammas.gammas[n] / mp.factorial(n)
            rhs = mp.fsum(binom_exact(n - 1, k - 1) * crit.value(k) for k in range(1, n + 1))
            assert abs(lhs - rhs) < mpf("1e-55")


def test_decay_diagnostics(crit):
    diag = decay_diagnostics(crit)
    with workdps(80):
        sq = diag.sq_partial_sums
        assert all(sq[i] <= sq[i + 1] for i in range(len(sq) - 1))
        assert all(s <= mpf(PARSEVAL_SQ_CEILING) + mpf("1e-9") for s in sq)
        ab = diag.abs_partial_sums
        assert all(ab[i] < ab[i + 1] for i in range(len(ab) - 1))
    # the fitted exponent is a diagnostic: the coefficients oscillate under a
    # ~n^{-3/4} envelope, so a 30-index window need not resolve the decay
    import math

    assert math.isfinite(diag.alpha_fit)


def test_parseval_ceiling_matches_closed_form():
    """The ceiling is log 2pi - gamma_0 - 1 to all 40 stored digits."""
    with workdps(60):
        exact = mp.log(2 * mp.pi) - mp.euler - 1
        assert abs(mpf(PARSEVAL_SQ_CEILING) - exact) < mpf("1e-39")


def test_table_serialization_roundtrip(crit):
    import json

    payload = json.loads(crit.to_json())
    assert payload["family"] == "critical"
    assert payload["values"][0]["n"] == -1
    csv = crit.to_csv()
    assert csv.splitlines()[0] == "n,value"
    assert len(csv.splitlines()) == crit.n_max - crit.n_min + 2


@pytest.mark.parametrize("family, args, n_max, digits", [
    ("critical", (), 20, 63),
    ("critical", (), 100, 66),
    ("line", ("0.75",), 40, 66),
    ("line", ("2.4",), 30, 62),
    ("power", (2,), 14, 66),
    ("power", (3,), 20, 40),
])
def test_every_entry_within_half_a_unit(family, args, n_max, digits):
    """Each family against the same call at 60 more digits: every entry is
    within half a unit in its last digit, up to the reference's own half unit."""

    def table(d):
        ctx = PrecisionCtx(d)
        if family == "critical":
            return coeffs_critical(n_max, stieltjes(n_max, ctx), ctx)
        if family == "line":
            return coeffs_line(args[0], -3, n_max, ctx)
        return coeffs_power(args[0], -args[0], n_max, ctx)

    tab, ref = table(digits), table(digits + 60)
    with workdps(digits + 80):
        for n in range(tab.n_min, n_max + 1):
            v, r = tab.value(n), ref.value(n)
            if r:
                assert abs(v - r) <= _half_unit(r, digits) * (1 + mpf(10) ** -50), (n, v, r)
            else:
                assert v == 0, n


@pytest.mark.parametrize("sigma0", ["1.1", "1.5", "3"])
def test_line_family_above_one_prints_right_digits(sigma0):
    """Above sigma0 = 1 the sums lose about n log10(1 + 1/(sigma0 - 1/2))
    digits (88 at sigma0 = 1.1, n = 200).  Every printed entry is within half
    a unit in its last place of the same call at 120 more digits."""
    tab = coeffs_line(sigma0, 0, 200, PrecisionCtx(90))
    ref = coeffs_line(sigma0, 0, 200, PrecisionCtx(210))
    with workdps(230):
        for n in range(201):
            printed = mpf(hreal_to_str(tab.value(n), 90))
            assert abs(printed - ref.value(n)) <= _half_unit(ref.value(n), 90), n
