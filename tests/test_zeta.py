from types import SimpleNamespace

import pytest
from mpmath import mp, mpc, mpf, workdps

from zetaline import cache
from zetaline import zeta as zeta_mod
from zetaline.coefficients import _power_taylor
from zetaline.precision import PrecisionCtx
from zetaline.quadrature import cross_moment_wow
from zetaline.zeta import (
    RegionError,
    StieltjesTable,
    ZetaPoleError,
    _zeta_em_raw,
    berndt_bound_holds,
    stieltjes,
    stieltjes_limit_oracle,
    zeta_derivative,
    zeta_em,
    zeta_minus_pole,
)

CTX = PrecisionCtx(50)

# frozen via the limit-definition oracle (test_oracle_agreement recomputes live)
GAMMA0 = "0.57721566490153286060651209008240243104215933593992"
GAMMA1 = "-0.072815845483676724860586375874901319137736338334"


def bracket_zeta2():
    """Independent oracle for zeta(2): direct series plus integral tail bracket."""
    with workdps(40):
        N = 20_000
        s = mp.fsum(mpf(1) / (n * n) for n in range(1, N + 1))
        return s + mpf(1) / (N + 1), s + mpf(1) / N


def eta_oracle_half():
    """zeta(1/2) through the alternating series with iterated averaging.

    eta(s) = (1 - 2^{1-s}) zeta(s); the Euler-transform style repeated
    averaging of partial sums converges geometrically.
    """
    with workdps(45):
        M = 220
        terms = [(-1) ** (n - 1) / mp.sqrt(n) for n in range(1, M + 1)]
        partial = []
        acc = mpf(0)
        for t in terms:
            acc += t
            partial.append(acc)
        for _ in range(M - 1):
            partial = [(partial[i] + partial[i + 1]) / 2 for i in range(len(partial) - 1)]
        eta = partial[0]
        return eta / (1 - 2 ** (mpf(1) - mpf("0.5")))


def test_zeta2_against_series_bracket():
    lo, hi = bracket_zeta2()
    v = zeta_em(2, CTX).real
    assert lo < v < hi
    with workdps(60):
        assert abs(v - mp.pi ** 2 / 6) < mpf(10) ** (-(CTX.digits - 3))


def test_zeta_half_against_eta_acceleration():
    v = zeta_em(mpf("0.5"), CTX).real
    ref = eta_oracle_half()
    with workdps(45):
        assert abs(v - ref) < mpf("1e-30")


def test_pole_and_region_errors():
    with pytest.raises(ZetaPoleError):
        zeta_em(1, CTX)
    with pytest.raises(RegionError):
        zeta_em(mpc(-1.5, 3), CTX)


def test_em_cutoff_doubling_invariance():
    """The kernel's own cutoff has converged: at 40 working digits it is
    within 1e-26 of mpmath.zeta at three heights on the critical line,
    inside the strip and right of it."""
    ctx = PrecisionCtx(30)
    wp = ctx.working()
    for sig in ("0.5", "0.75", "2"):
        for tt in ("0", "14.1", "100"):
            s = mpc(mpf(sig), mpf(tt))
            with workdps(wp):
                a = _zeta_em_raw(s, wp)
            with workdps(wp + 20):
                assert abs(a - mp.zeta(s)) < mpf(10) ** (-ctx.digits + 4)


def _kernel_points():
    """(s, through zeta_em) pairs: the critical line, the arc |s - 1| = 3 down
    to Re s = -2 (the Stieltjes circle, _zeta_em_raw only where Re s <= -1),
    and a deformed-tail ray point far right of the strip."""
    pts = [(mpc(mpf("0.5"), mpf(t)), True) for t in ("0", "14.134725", "60")]
    for a in (mp.pi / 3, 2 * mp.pi / 3, mp.pi - mpf("0.3")):
        s = 1 + 3 * mp.expj(a)
        pts.append((s, s.real > -1))
    pts += [(mpc(-2), False), (mpc(mpf("30.5"), 48), True)]
    return pts


@pytest.mark.parametrize("wp", [35, 96, 150])
def test_kernel_against_mpmath_zeta(wp):
    """The fixed-point kernel meets zeta_em's 10^(3 - digits) claim against mpmath.

    zeta(-2) = 0, so there the error is absolute.
    """
    ctx = PrecisionCtx(wp - 10)
    tol = mpf(10) ** (3 - ctx.digits)
    with workdps(wp):
        cases = [(s, zeta_em(s, ctx) if public else _zeta_em_raw(s, wp))
                 for s, public in _kernel_points()]
    with workdps(wp + 20):
        for s, v in cases:
            ref = mp.zeta(s)
            assert abs(v - ref) <= tol * (abs(ref) if s != -2 else 1), s



@pytest.mark.parametrize("wp", [35, 80])
def test_raw_kernel_at_left_edge_of_contour(wp):
    """_zeta_em_raw at s = -2 +- 0.3i, the left edge of the region it is
    checked on, meets the 10^(3 - digits) relative claim against mpmath."""
    tol = mpf(10) ** (3 - (wp - 10))
    for s in (mpc(-2, "0.3"), mpc(-2, "-0.3")):
        with workdps(wp):
            v = _zeta_em_raw(s, wp)
        with workdps(wp + 20):
            ref = mp.zeta(s)
            assert abs(v - ref) <= tol * abs(ref), s

def test_kernel_against_mpmath_zeta_at_height_1e4():
    ctx = PrecisionCtx(25)
    v = zeta_em(mpc(mpf("0.5"), 10_000), ctx)
    with workdps(45):
        ref = mp.zeta(mpc(mpf("0.5"), 10_000))
        assert abs(v - ref) <= mpf(10) ** (3 - ctx.digits) * abs(ref)


def test_zeta_minus_pole_is_regular_at_one():
    ctx = PrecisionCtx(40)
    with workdps(60):
        v = zeta_minus_pole(mpc(1) + mpf("1e-25"), ctx)
        assert abs(v - mpf(GAMMA0)) < mpf("1e-24")


@pytest.mark.parametrize("digits", [30, 66])
def test_zeta_minus_pole_near_one_builds_no_table(monkeypatch, digits):
    """Near s = 1, zeta(s) - 1/(s-1) is direct evaluation with widened
    precision, no Stieltjes table: within 10^-(digits+5) relative of
    mpmath.zeta(s) - 1/(s-1) at the same s, and Euler's constant at s = 1."""
    def no_table(*args, **kwargs):
        raise AssertionError("zeta_minus_pole built a Stieltjes table")

    monkeypatch.setattr(zeta_mod, "stieltjes", no_table)
    ctx = PrecisionCtx(digits)
    for dre, im in (("0", "0"), ("1e-25", "0"), ("0.04", "0"), ("-0.03", "0"),
                    ("0", "0.03"), ("0.01", "-0.02")):
        with workdps(ctx.working()):
            s = mpc(1 + mpf(dre), im)
        v = zeta_minus_pole(s, ctx)
        with workdps(digits + 60):
            ref = mp.euler if s == 1 else mp.zeta(s) - 1 / (s - 1)
            assert abs(v - ref) <= mpf(10) ** -(digits + 5) * abs(ref), (dre, im)


def test_derivative_against_finite_differences():
    ctx = PrecisionCtx(30)
    d = zeta_derivative(2, 1, ctx)
    with workdps(80):
        h = mpf("1e-15")
        fd = (_zeta_em_raw(mpc(2) + h, 80) - _zeta_em_raw(mpc(2) - h, 80)) / (2 * h)
        assert abs(d - fd) < mpf("1e-25")


def test_derivative_order_zero_passthrough():
    ctx = PrecisionCtx(30)
    assert zeta_derivative(2, 0, ctx) == zeta_em(2, ctx)


def test_stieltjes_frozen_values_and_oracle_agreement():
    table = stieltjes(20, CTX)
    with workdps(70):
        assert abs(table.gammas[0] - mpf(GAMMA0)) < mpf("1e-45")
        assert abs(table.gammas[1] - mpf(GAMMA1)) < mpf("1e-44")
    oracle = stieltjes_limit_oracle(20, CTX)
    with workdps(70):
        for k in range(21):
            assert abs(table.gammas[k] - oracle[k]) < mpf(10) ** (-(CTX.digits - 8))


def test_berndt_bound_all_k():
    table = stieltjes(100, CTX)
    for k in range(1, 101):
        assert berndt_bound_holds(table.gammas[k], k)


def test_stieltjes_table_serializes():
    table = stieltjes(5, PrecisionCtx(30))
    payload = table.to_json()
    assert '"schema_version"' in payload and '"gamma"' in payload


def _count_points(monkeypatch):
    """Replace _zeta_em_raw by a counting wrapper; returns the list of calls."""
    raw = zeta_mod._zeta_em_raw
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_zeta_em_raw", counted)
    return calls


def test_cold_stieltjes_evaluates_no_zeta_point(cold_cache, monkeypatch):
    """A cold k=20, 63-digit table is one series pass, with no point value
    of zeta; the constants must match mpmath's independent quadrature to
    10^-60 relative."""
    calls = _count_points(monkeypatch)
    table = stieltjes(20, PrecisionCtx(63))
    assert calls == []
    with workdps(75):
        for k in (0, 1, 5, 10, 20):
            ref = mp.stieltjes(k)
            assert abs(table.gammas[k] - ref) <= mpf(10) ** -60 * abs(ref)


def test_truncated_error_entry_is_recomputed(cold_cache):
    ctx = PrecisionCtx(30)
    key = "stieltjes_k6_d30_err"
    full = stieltjes(6, ctx)
    cache.store_values(key, 30, full.est_errors[:3])
    zeta_mod._stieltjes_cached.cache_clear()
    again = stieltjes(6, ctx)
    assert len(again.est_errors) == 7
    assert len(cache.load_values(key, 30)) == 7


class _GmpyLikeMantissa:
    """An integer that is not an int, as mpmath's gmpy backend gives."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value

    __index__ = __int__


def test_cache_round_trip_is_exact(cold_cache):
    """A 5000-digit mantissa (past int-to-decimal's digit limit), a negative
    value, zero and a mantissa of a non-int integer type reload bit for bit."""
    with workdps(5000):
        long_value = -mp.pi
    gmpy_like = SimpleNamespace(_mpf_=(1, _GmpyLikeMantissa(7), -1, 3))
    values = [long_value, mpf("0.125"), mpf(0), gmpy_like]
    cache.store_values("round_trip", 5000, values)
    loaded = cache.load_values("round_trip", 5000)
    assert [v._mpf_ for v in loaded[:3]] == [v._mpf_ for v in values[:3]]
    assert loaded[3] == mpf("-3.5")


def test_failed_store_is_skipped_and_leaves_no_file(cold_cache, monkeypatch, capsys):
    def fail(payload, fh):
        fh.write("{")
        raise ValueError("cannot encode")

    monkeypatch.setattr(cache.json, "dump", fail)
    cache.store_values("broken", 30, [mpf(1)])
    assert "cannot store broken" in capsys.readouterr().err
    assert list(cold_cache.iterdir()) == []


def test_cold_stieltjes_errors_bound_mpmath(cold_cache):
    """Each est_error of a cold stieltjes(100, 66) bounds its true error.

    The 3^-k scale loses digits at high k: gamma_100 is right to about
    1e-13 relative here, and its est_error says so.
    """
    table = stieltjes(100, PrecisionCtx(66))
    for k in (0, 20, 60, 100):
        with workdps(110):
            err = abs(table.gammas[k] - mp.stieltjes(k))
        assert err <= table.est_errors[k], k


def test_warm_stieltjes_table_is_the_cold_one(cold_cache):
    """Cache entries are exact: stieltjes(400, 120), computed at 160 digits,
    reloads with every gamma_k and est_error bit for bit the cold one, the
    sign of the negative gamma_1 included."""
    cold = stieltjes(400, PrecisionCtx(120))
    zeta_mod._stieltjes_cached.cache_clear()
    warm = stieltjes(400, PrecisionCtx(120))
    assert warm is not cold
    assert warm.gammas[1] < 0
    for k in range(401):
        assert warm.gammas[k]._mpf_ == cold.gammas[k]._mpf_, k
        assert warm.est_errors[k]._mpf_ == cold.est_errors[k]._mpf_, k


@pytest.mark.parametrize("c, r", [("0.5", "0.25"), ("1", "3"), ("1.25", "3"), ("4", "2")])
def test_taylor_series_against_mpmath(c, r):
    """_taylor_series against mpmath.zeta's derivatives less the pole's own
    Taylor terms, and against mpmath.stieltjes at c = 1: every error within
    its bound, and every bound within the contract r^k err_k <= 10^-wp."""
    k_max, wp = 8, 40
    a, err = zeta_mod._taylor_series(mpf(c), mpf(r), k_max, wp)
    with workdps(wp + 30):
        c, r = mpf(c), mpf(r)
        for k in range(k_max + 1):
            if c == 1:
                ref = (-1) ** k * mp.stieltjes(k) / mp.factorial(k)
            else:
                ref = mp.zeta(c, 1, k) / mp.factorial(k) - (-1) ** k / (c - 1) ** (k + 1)
            assert abs(a[k] - ref) <= err[k], k
            assert err[k] * r ** k <= mpf(10) ** -wp, k


def test_laurent_k1_matches_gamma_closed_form():
    ctx = PrecisionCtx(40)
    c = _power_taylor(1, 30, ctx)
    gam = stieltjes(30, ctx)
    with workdps(60):
        assert abs(c[0] - 1) < mpf("1e-35")
        assert abs(c[1] - gam.gammas[0]) < mpf("1e-33")
        assert abs(2 * c[2] + 2 * gam.gammas[1]) < mpf("1e-33")
        for m in range(1, 31):
            closed = (-1) ** (m - 1) * gam.gammas[m - 1] / mp.factorial(m - 1)
            assert abs(c[m] - closed) < mpf(10) ** (-(ctx.digits - 8))


def test_laurent_k2_against_series_square_oracle():
    """c_m for k = 2 must equal the self-convolution of the k=1 coefficients."""
    ctx = PrecisionCtx(40)
    c2 = _power_taylor(2, 12, ctx)
    gam = stieltjes(14, ctx)
    with workdps(60):
        u = [mpf(1)] + [
            (-1) ** (m - 1) * gam.gammas[m - 1] / mp.factorial(m - 1) for m in range(1, 13)
        ]
        for m in range(13):
            conv = mp.fsum(u[j] * u[m - j] for j in range(m + 1))
            assert abs(c2[m] - conv) < mpf(10) ** (-(ctx.digits - 8))


def test_laurent_leading_is_one_for_k3():
    c = _power_taylor(3, 6, PrecisionCtx(30))
    with workdps(40):
        assert abs(c[0] - 1) < mpf("1e-24")


def test_laurent_k3_against_mpmath_taylor():
    """Independent of the Stieltjes table: mpmath's own zeta and Cauchy quadrature."""
    c = _power_taylor(3, 6, PrecisionCtx(30))
    with workdps(25):
        ref = mp.taylor(lambda s: ((s - 1) * mp.zeta(s)) ** 3, 1, 6, method="quad", radius=1)
    with workdps(40):
        for m in range(7):
            assert abs(c[m] - ref[m]) < mpf("1e-24")


@pytest.mark.parametrize("s0, k", [
    (2, 1), ("1.25", 2), ("1.75", 3), ("1.001", 5), ("0.5", 4), ("-0.5", 3),
])
def test_derivative_against_mpmath_zeta(s0, k):
    """The series-pass derivative against mpmath's own zeta derivative
    routine, on one scale at every centre: near the pole, in the critical
    strip and left of it."""
    ctx = PrecisionCtx(30)
    s0 = mpf(s0)
    d = zeta_derivative(s0, k, ctx)
    with workdps(50):
        ref = mp.zeta(s0, 1, k)
        assert abs(d - ref) <= mpf(10) ** (5 - ctx.digits) * abs(ref)


def test_derivative_needs_real_centre_and_convergence():
    ctx = PrecisionCtx(30)
    with pytest.raises(ValueError):
        zeta_derivative(mpc(2, 1), 1, ctx)
    with pytest.raises(ZetaPoleError):
        zeta_derivative(1, 2, ctx)
    with pytest.raises(RegionError):
        zeta_derivative(mpf("-1.5"), 2, ctx)


@pytest.mark.parametrize(
    "call, points",
    [
        pytest.param(lambda: zeta_derivative(2, 1, PrecisionCtx(30)), 0, id="zeta_derivative"),
        pytest.param(
            lambda: cross_moment_wow(mpf("0.75"), PrecisionCtx(30)), 1, id="cross_moment_wow"
        ),
    ],
)
def test_taylor_callers_evaluate_no_zeta_point(call, points, monkeypatch):
    """Every caller reads its Taylor data off one series pass, with no point
    value of zeta; cross_moment_wow's one point is zeta(3/2 - sigma)."""
    calls = _count_points(monkeypatch)
    call()
    assert len(calls) == points
