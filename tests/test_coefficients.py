import pytest
from mpmath import mp, mpf, workdps

from zetaline.coefficients import (
    PARSEVAL_SQ_CEILING,
    CoeffTable,
    InsufficientPrecisionError,
    InsufficientTableError,
    coeffs_critical,
    coeffs_line,
    coeffs_power,
    decay_diagnostics,
)
from zetaline.precision import PrecisionCtx, binom_exact
from zetaline.series import basis_e
from zetaline.zeta import stieltjes

CTX = PrecisionCtx(70)


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


def test_insufficient_precision_reserve(gammas):
    with pytest.raises(InsufficientPrecisionError):
        coeffs_critical(100, gammas, PrecisionCtx(65))  # needs 75


def test_insufficient_gamma_table(gammas):
    with pytest.raises(InsufficientTableError):
        coeffs_critical(101, gammas, PrecisionCtx(80))


def test_recomputation_at_higher_precision_agrees(gammas):
    """The cancellation-reserve rule: +20 digits must not move the values."""
    ctx_hi = PrecisionCtx(90)
    gam_hi = stieltjes(60, ctx_hi)
    tab_lo = coeffs_critical(60, gammas, CTX)
    tab_hi = coeffs_critical(60, gam_hi, ctx_hi)
    with workdps(100):
        worst = max(abs(tab_lo.value(n) - tab_hi.value(n)) for n in range(-1, 61))
        assert worst < mpf(10) ** (-(CTX.digits - 60 // 6 - 3))


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
    """The series pass on its one scale, 3, against Taylor data from
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
