import pytest
from mpmath import mp, mpc, mpf, workdps

from zetaline import cache
from zetaline import zeta as zeta_mod
from zetaline.coefficients import line_coeff_via_derivatives
from zetaline.precision import PrecisionCtx
from zetaline.quadrature import cross_moment_wow
from zetaline.zeta import (
    ContourError,
    LaurentTable,
    RegionError,
    ZetaPoleError,
    _zeta_em_raw,
    berndt_bound_holds,
    laurent_power_coeffs,
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
    ctx = PrecisionCtx(30)
    wp = ctx.working()
    for sig in ("0.5", "0.75", "2"):
        for tt in ("0", "14.1", "100"):
            s = mpc(mpf(sig), mpf(tt))
            with workdps(wp):
                a = _zeta_em_raw(s, wp, n_scale=1)
                b = _zeta_em_raw(s, wp, n_scale=2)
                assert abs(a - b) < mpf(10) ** (-ctx.digits + 4)


def _kernel_points():
    """(s, through zeta_em) pairs: the critical line, the arc |s - 1| = 3 down
    to Re s = -2 (the Stieltjes contour, _zeta_em_raw only where Re s <= -1),
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


def test_second_derivative_radius_consistency():
    ctx = PrecisionCtx(30)
    a = zeta_derivative(mpf("1.25"), 2, ctx, radius=mpf("0.1"))
    b = zeta_derivative(mpf("1.25"), 2, ctx, radius=mpf("0.2"))
    with workdps(40):
        assert abs(a - b) < mpf(10) ** (-ctx.digits + 6)


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


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty table cache, with the in-process table and grid caches cleared."""
    monkeypatch.setenv("ZETALINE_CACHE_DIR", str(tmp_path))
    zeta_mod._stieltjes_cached.cache_clear()
    zeta_mod._circle_grid.cache_clear()
    yield tmp_path
    zeta_mod._stieltjes_cached.cache_clear()
    zeta_mod._circle_grid.cache_clear()


def test_cold_contour_against_mpmath_with_few_evaluations(cold_cache, monkeypatch):
    """Node doubling sizes the k=20, 63-digit contour at 161 zeta evaluations.

    The Berndt-bound sizing spent 3,947; the constants must still match
    mpmath's independent quadrature to 10^-60 relative.
    """
    raw = zeta_mod._zeta_em_raw
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_zeta_em_raw", counted)
    table = stieltjes(20, PrecisionCtx(63))
    assert len(calls) <= 161
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


def test_laurent_k1_matches_gamma_closed_form():
    ctx = PrecisionCtx(40)
    lam = laurent_power_coeffs(1, 30, ctx)
    gam = stieltjes(30, ctx)
    with workdps(60):
        assert abs(lam.lambdas[0] - 1) < mpf("1e-35")
        assert abs(lam.lambdas[1] - gam.gammas[0]) < mpf("1e-33")
        assert abs(lam.lambdas[2] + 2 * gam.gammas[1]) < mpf("1e-33")
        for m in range(1, 31):
            closed = (-1) ** (m - 1) * gam.gammas[m - 1] / mp.factorial(m - 1)
            assert abs(lam.lambdas[m] / mp.factorial(m) - closed) < mpf(10) ** (-(ctx.digits - 8))


def test_laurent_k2_against_series_square_oracle():
    """lambda_{m,2}/m! must equal the self-convolution of the k=1 coefficients."""
    ctx = PrecisionCtx(40)
    lam2 = laurent_power_coeffs(2, 12, ctx)
    gam = stieltjes(14, ctx)
    with workdps(60):
        u = [mpf(1)] + [
            (-1) ** (m - 1) * gam.gammas[m - 1] / mp.factorial(m - 1) for m in range(1, 13)
        ]
        for m in range(13):
            conv = mp.fsum(u[j] * u[m - j] for j in range(m + 1))
            assert abs(lam2.lambdas[m] / mp.factorial(m) - conv) < mpf(10) ** (-(ctx.digits - 8))


def test_laurent_leading_is_one_for_k3():
    lam = laurent_power_coeffs(3, 6, PrecisionCtx(30))
    with workdps(40):
        assert abs(lam.lambdas[0] - 1) < mpf("1e-24")


def test_laurent_k3_against_mpmath_taylor():
    """Independent of the Stieltjes table: mpmath's own zeta and Cauchy quadrature."""
    lam = laurent_power_coeffs(3, 6, PrecisionCtx(30))
    with workdps(25):
        ref = mp.taylor(lambda s: ((s - 1) * mp.zeta(s)) ** 3, 1, 6, method="quad", radius=1)
    with workdps(40):
        for m in range(7):
            assert abs(lam.coeff(m) - ref[m]) < mpf("1e-24")


@pytest.mark.parametrize("s0, k", [(2, 1), ("1.25", 2), ("1.75", 3)])
def test_derivative_against_mpmath_zeta(s0, k):
    """The contour derivative against mpmath's own zeta derivative routine."""
    ctx = PrecisionCtx(30)
    d = zeta_derivative(mpf(s0), k, ctx)
    with workdps(50):
        ref = mp.zeta(mpf(s0), 1, k)
        assert abs(d - ref) <= mpf(10) ** (5 - ctx.digits) * abs(ref)


def test_derivative_needs_real_centre_and_convergence(monkeypatch):
    ctx = PrecisionCtx(30)
    with pytest.raises(ValueError):
        zeta_derivative(mpc(2, 1), 1, ctx)
    # a grid of noise never converges: the engine refuses at 2,048 nodes
    noise = iter(range(1, 10**6))
    monkeypatch.setattr(zeta_mod, "_zeta_em_raw", lambda s, wp: mpc(next(noise) % 7))
    zeta_mod._circle_grid.cache_clear()
    try:
        with pytest.raises(ContourError, match="2048"):
            zeta_derivative(3, 1, ctx)
    finally:
        zeta_mod._circle_grid.cache_clear()


@pytest.mark.parametrize(
    "call, bound",
    [
        pytest.param(lambda: zeta_derivative(2, 1, PrecisionCtx(30)), 129, id="zeta_derivative"),
        pytest.param(
            lambda: line_coeff_via_derivatives(mpf("0.75"), 3, PrecisionCtx(30)),
            129,
            id="line_coeff_via_derivatives",
        ),
        pytest.param(
            lambda: cross_moment_wow(mpf("0.75"), PrecisionCtx(30)), 131, id="cross_moment_wow"
        ),
    ],
)
def test_taylor_callers_share_one_nested_grid(call, bound, monkeypatch):
    """All orders come from one conjugate-folded grid, doubled at most once.

    A loop per order that re-evaluates every node at each doubling needs
    448, 1,344 and 450 evaluations for these calls.
    """
    raw = zeta_mod._zeta_em_raw
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_zeta_em_raw", counted)
    zeta_mod._circle_grid.cache_clear()
    try:
        call()
    finally:
        zeta_mod._circle_grid.cache_clear()
    assert len(calls) <= bound
