import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import lu_solve, matrix, mp, mpc, mpf, polyroots, workdps

from zetaline import fastzeta, quadrature, zeros
from zetaline import zeta as zeta_mod
from zetaline.coefficients import PARSEVAL_SQ_CEILING, coeffs_critical, coeffs_line
from zetaline.precision import PrecisionCtx
from zetaline.quadrature import (
    GAMMA0_F,
    cross_line_quadrature,
    cross_moment_closed_form,
    cross_moment_wow,
    identity_coffey,
    identity_hnorm,
    log_integral_disk,
    bsy_integral,
    moment_oracle,
    outer_function,
    phi_l2_halfline,
)
from zetaline.zeta import _zeta_em_raw, stieltjes, zeta_em


def test_orthonormality_matrix():
    """<e_n, e_m> = delta_{nm} for all |n|, |m| <= 10.

    The integrand e_n conj(e_m) = e_{n-m} depends only on the difference, so
    the 41 distinct difference integrals cover the full 21 x 21 matrix.
    """
    with workdps(30):
        for d in range(-20, 21):
            f = lambda t, d=d: mp.expj(-2 * d * mp.atan(2 * t)) / (2 * mp.pi * (mpf("0.25") + t * t))
            value = mp.quad(f, [-mp.inf, -1, 0, 1, mp.inf])
            expect = 1 if d == 0 else 0
            assert abs(value - expect) < mpf("1e-25"), d


def test_moment_oracle_low_indices():
    vals = moment_oracle([-1, 0])
    gam = stieltjes(2, PrecisionCtx(30))
    with workdps(40):
        assert abs(vals[-1] + 1) < mpf("1e-8")
        assert abs(vals[0] - (gam.gammas[0] - 1)) < mpf("1e-8")


def test_moment_oracle_line_family():
    vals = moment_oracle([-1, 5], sigma0=0.75)
    line = coeffs_line("0.75", -1, 6, PrecisionCtx(65))
    with workdps(40):
        assert abs(vals[-1] - line.value(-1)) < mpf("1e-8")
        assert abs(vals[5] - line.value(5)) < mpf("1e-8")


def test_identity_coffey_quick():
    r = identity_coffey(T2=8000.0)
    with workdps(35):
        target = mp.log(2 * mp.pi) - mpf(repr(GAMMA0_F))
        # T2=8000 leaves a ~4e-4 tail, covered by the reported bound
        assert abs(mpf(r.value) - target) <= 3 * r.trunc_bound
        assert abs(mpf(r.value) - target) <= mpf("1e-3")
    assert r.est_error < 1e-6


def test_identity_hnorm_quick():
    r = identity_hnorm(T2=8000.0)
    with workdps(35):
        target = mpf(PARSEVAL_SQ_CEILING)
        assert abs(mpf(r.value) - target) <= 3 * r.trunc_bound
    # imaginary part never leaks in: value is a real mpf by construction
    assert not isinstance(r.value, mpc)


def test_identity_hnorm_tail_closes_the_identity():
    """On |s/(s-1)| = 1 the mean of |zeta - s/(s-1)|^2 has density
    log(t/2pi) + 2 gamma0 - 1, so value + trunc_bound meets the closed form
    to within 1e-7 at T2 = 6e4 (with the density's +1 it overshot by
    1.06e-5)."""
    r = identity_hnorm(T2=6.0e4)
    with workdps(35):
        assert abs(mpf(r.value) + mpf(r.trunc_bound) - mpf(PARSEVAL_SQ_CEILING)) <= mpf("1e-7")


def test_cross_quadrature_vs_corrected_closed_form():
    """The value is within its adaptive estimate of the closed form, up to a
    float64 floor of 1e-14: there the estimate, 6.6e-16, falls below the
    observed 8.8e-16, and zeta is good to a few 1e-15 relative.  The
    estimate itself is below 1e-13: no head panel is wider than 2."""
    q = cross_line_quadrature(0.75, 0.5)
    wow = cross_moment_wow("0.75", PrecisionCtx(30))
    assert isinstance(q.value, float)
    assert abs(q.value - float(wow)) <= q.est_error + 1e-14
    assert q.est_error <= 1e-13


def test_cross_core_assembly_matches_wow():
    ctx66 = PrecisionCtx(66)
    crit = coeffs_critical(40, stieltjes(40, ctx66), ctx66)
    line = coeffs_line("0.75", -2, 40, ctx66)
    core = cross_moment_closed_form(line, crit, PrecisionCtx(30), tol=mpf("1e-13"))
    wow = cross_moment_wow("0.75", PrecisionCtx(30))
    with workdps(40):
        assert abs(core - wow) < mpf("1e-9")


def test_cross_closed_form_refuses_two_line_tables():
    """Away from 1/2 the geometric tail is bounded by the critical family's
    Parseval ceiling, which no line table is shown to obey."""
    ctx66 = PrecisionCtx(66)
    a, b = (coeffs_line(s, -2, 40, ctx66) for s in ("0.6", "0.9"))
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="'line' table"):
            cross_moment_closed_form(*pair, PrecisionCtx(30), tol=mpf("1e-13"))


def test_cross_moment_limit_at_half():
    """a = b = 1/2 limit: (gamma0-1)^2 - 2 gamma1, consistent with the
    bilinear pairing ell_0^2 + 2 ell_1 ell_{-1}."""
    gam = stieltjes(2, PrecisionCtx(30))
    wow = cross_moment_wow("0.5", PrecisionCtx(30))
    q = cross_line_quadrature(0.5, 0.5)
    with workdps(40):
        expect = (gam.gammas[0] - 1) ** 2 - 2 * gam.gammas[1]
        assert abs(wow - expect) < mpf("1e-25")
        assert abs(mpf(q.value) - expect) < mpf("1e-8")


def test_cross_moment_at_half_builds_no_table(tmp_path, monkeypatch):
    """At sigma = 1/2, gamma_1 = -a_1 comes from one series pass at s = 1:
    no Stieltjes table is built, and nothing is written to the cache."""
    def no_table(*args, **kwargs):
        raise AssertionError("cross_moment_wow built a Stieltjes table")

    monkeypatch.setenv("ZETALINE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(zeta_mod, "stieltjes", no_table)
    monkeypatch.setattr(zeta_mod, "_stieltjes_cached", no_table)
    wow = cross_moment_wow("0.5", PrecisionCtx(30))
    with workdps(40):
        assert abs(wow - ((mp.euler - 1) ** 2 - 2 * mp.stieltjes(1))) < mpf("1e-28")
    assert list(tmp_path.iterdir()) == []


def test_phi_l2_halfline_quick():
    r = phi_l2_halfline(T2=8000.0)
    with workdps(35):
        target = mp.pi * mpf(PARSEVAL_SQ_CEILING)
        assert abs(mpf(r.value) - target) <= 4 * r.trunc_bound
        # integrand at t = 0 is finite
        assert 0 < r.notes["integrand_at_0"] < 100


def test_log_disk_window_quick():
    r = log_integral_disk(T2=4000.0)
    v = float(r.value)
    assert r.notes["lower_bound_log1mgamma0"] - 1e-3 <= v <= r.notes["jensen_ceiling"] + 1e-3
    assert r.notes["blaschke_excess"] >= -1e-3


def test_log_disk_needs_no_stieltjes_table(monkeypatch):
    """gamma_0 in the notes is Euler's constant; no Stieltjes table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("log_integral_disk built a Stieltjes table")

    monkeypatch.setattr(zeta_mod, "stieltjes", no_table)
    monkeypatch.setattr(zeta_mod, "_stieltjes_cached", no_table)
    r = log_integral_disk(T2=600.0)
    with workdps(40):
        assert abs(mpf(repr(r.notes["lower_bound_log1mgamma0"])) - mp.log(1 - mp.euler)) < mpf("1e-15")
    assert r.notes["blaschke_excess"] >= -1e-3


@pytest.mark.parametrize("name, run, g", [
    ("coffey", lambda: identity_coffey(T2=6.0), quadrature._coffey),
    ("log_disk", lambda: log_integral_disk(T2=6.0), quadrature._log_h_kernel(1)),
    ("log_zeta", lambda: bsy_integral(6.0), quadrature._log_zeta),
])
def test_float_pass_from_zero_matches_mpmath(name, run, g):
    """The library's float64 pass over [0, 6] (no zero below 6, so bsy is the
    plain _log_zeta pass) against mpmath.quad of the same integrand fed
    mpmath.zeta at 30 digits."""
    r = run()
    with workdps(30):
        ref = 2 * mp.quad(lambda t: g(t, mp.zeta(mpc(0.5, t)), mp), [0, 1, 2, 3, 4, 5, 6])
        assert abs(mpf(r.value) - ref.real) <= mpf("1e-14"), name
    assert r.est_error <= 1e-13, name


def test_T1_has_no_effect():
    assert identity_coffey(T1=6.0, T2=600.0).value == identity_coffey(T2=600.0).value


def _panels_per_call(segs, width):
    """The panel builder as it was, one width(a) call per panel: the
    reference for _panels."""
    out = []
    for a, b in segs:
        while a < b:
            out.append((a, min(b, a + width(a))))
            a = out[-1][1]
    return out


def _osc_width(t, periods=2.5, cap=4.0):
    return max(0.4, min(cap, periods * quadrature.TWO_PI / math.log(max(t, 20.0) / quadrature.TWO_PI)))


def test_panels_match_the_per_panel_loop():
    """coffey's, log-disk's and bsy's starting panels equal, bit for bit, those
    of the per-panel loop with each one's width capped at max(0.5, t/2)."""
    _, bsy_segs = quadrature._bsy_pieces(zeros.ordinates_below(2000.0), 2000.0)
    for segs, periods, cap in (([(0.0, 2.0e4)], 2.5, 4.0), ([(0.0, 2.0e3)], 1.5, 2.0),
                               (bsy_segs, 1.2, 1.5)):
        ref = _panels_per_call(segs, lambda t: min(_osc_width(t, periods, cap), max(0.5, t / 2)))
        got = quadrature._panels(segs, periods, cap)
        assert got.tolist() == [list(p) for p in ref], (periods, cap)


def test_native_adaptive_complex_integrand():
    """The imaginary part of a complex integrand is integrated, not dropped."""
    value, est, _ = quadrature._native_adaptive(
        lambda t: np.exp(1j * t), [(a, a + 1.0) for a in range(10)], 1e-12)
    assert abs(value - (np.exp(10j) - 1) / 1j) < 1e-12
    assert est < 1e-10


def test_native_adaptive_rows():
    """Leading axes are separate integrands on shared panels: rows cos(n t),
    n = 0..5, over [0, pi] give pi for n = 0 and 0 otherwise, row by row,
    each within its own estimate plus a float64 floor."""
    ns = np.arange(6)[:, None]
    value, est, nodes = quadrature._native_adaptive(
        lambda t: np.cos(ns * t), [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, np.pi)], 1e-12)
    assert value.shape == est.shape == (6,)
    assert nodes == 4 * 25  # four starting panels, each accepted at once: nodes, not rows
    for n in range(6):
        exact = np.pi if n == 0 else 0.0
        assert abs(value[n] - exact) <= est[n] + 1e-14, n
        assert est[n] < 1e-12, n


def _hex_results():
    coffey, bsy = identity_coffey(T2=300), bsy_integral(300.0)
    return ([coffey.value.hex(), coffey.est_error.hex(), coffey.nodes_used],
            [bsy.value.hex(), bsy.est_error.hex(), bsy.nodes_used],
            {n: v.hex() for n, v in moment_oracle([-1, 0, 1, 5]).items()})


@pytest.mark.parametrize("panels", [1, 3])
def test_blocks_give_the_one_call_values(monkeypatch, panels):
    """A generation evaluated in blocks of 1 or 3 panels gives the default
    block's values, estimates and node counts bit for bit: coffey, bsy
    (singular panels included) and the moment oracle's rows."""
    ref = _hex_results()
    monkeypatch.setattr(fastzeta, "_BLOCK", 25 * panels)
    assert _hex_results() == ref


def test_no_evaluation_exceeds_one_block(monkeypatch):
    """No zeta_critical or hardy_Z call in the benchmark's three identities
    gets more than _BLOCK points; coffey to 2e4 has 225,550 nodes."""
    sizes = []

    def spy(fn):
        def counting(t):
            sizes.append(np.size(t))
            return fn(t)
        return counting

    monkeypatch.setattr(fastzeta, "zeta_critical", spy(fastzeta.zeta_critical))
    monkeypatch.setattr(zeros, "hardy_Z", spy(zeros.hardy_Z))
    assert identity_coffey(T2=2.0e4).nodes_used == 225_550
    log_integral_disk(T2=2.0e3)
    bsy_integral(2000.0)
    assert max(sizes) <= fastzeta._BLOCK


def _legendre_fractions(n_max):
    """P_0..P_n_max as exact coefficient lists, low order first."""
    P = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, n_max):
        c = [Fraction(0)] + [Fraction(2 * k + 1, k + 1) * x for x in P[k]]
        for i, x in enumerate(P[k - 1]):
            c[i] -= Fraction(k, k + 1) * x
        P.append(c)
    return P


def _poly_mul(a, b):
    c = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return c


def _integral_on_unit_interval(a):
    """int_{-1}^{1} of the polynomial with coefficients a, exactly."""
    return sum(x * Fraction(2, i + 1) for i, x in enumerate(a) if i % 2 == 0)


def _moment_weights(xs):
    """Weights that integrate x^0 .. x^(len(xs)-1) exactly on [-1, 1]."""
    n = len(xs)
    V, b = matrix(n, n), matrix(n, 1)
    for k in range(n):
        for i in range(n):
            V[k, i] = xs[i] ** k
        b[k] = mpf(2) / (k + 1) if k % 2 == 0 else 0
    return list(lu_solve(V, b))


def test_kronrod_constants_against_an_mp_derivation():
    """The 25-node rule from scratch at 50 digits: E_13 = P_13 + sum_{odd j<13}
    a_j P_j orthogonal to P_12 x^k for k < 13 (the even k vanish by parity),
    its 13 roots with the 12 Gauss nodes, and weights exact on x^k, k < 25.
    That rule is exact through degree 37; the module's literals match it,
    and their Gauss subset matches numpy's 12-point Gauss-Legendre rule."""
    P = _legendre_fractions(13)
    odd = [1, 3, 5, 7, 9, 11]
    pairing = lambda k, j: _integral_on_unit_interval(_poly_mul(_poly_mul(P[12], [0] * k + [1]), P[j]))
    with workdps(50):
        to_mp = lambda q: mpf(q.numerator) / q.denominator
        a = lu_solve(matrix([[to_mp(pairing(k, j)) for j in odd] for k in odd]),
                     matrix([-to_mp(pairing(k, 13)) for k in odd]))
        E = [to_mp(x) for x in P[13]]
        for aj, j in zip(a, odd):
            for i, x in enumerate(P[j]):
                E[i] += aj * to_mp(x)
        roots = lambda c: [r.real for r in polyroots(c[::-1], maxsteps=200, extraprec=200)]
        gauss = sorted(roots([to_mp(x) for x in P[12]]))
        xs = sorted(roots(E) + gauss)
        ws = _moment_weights(xs)
        gauss_ws = _moment_weights(gauss)
        moment_err = max(abs(sum(w * x ** k for w, x in zip(ws, xs)) - (mpf(2) / (k + 1) if k % 2 == 0 else 0))
                         for k in range(38))
        assert moment_err < mpf("1e-45")
        assert min(ws) > mpf("0.008")
        for got, want in ((quadrature._KRONROD_X, xs), (quadrature._KRONROD_W, ws),
                          (quadrature._GAUSS_W, gauss_ws)):
            assert max(abs(mpf(float(g)) - w) for g, w in zip(got, want)) <= mpf("1e-15")
        assert xs[1::2] == gauss
    assert len(quadrature._KRONROD_X) == len(quadrature._KRONROD_W) == 25
    assert np.all(quadrature._KRONROD_W > 0) and np.all(quadrature._GAUSS_W > 0)
    assert np.all(np.diff(quadrature._KRONROD_X) > 0)
    assert np.array_equal(quadrature._KRONROD_X, -quadrature._KRONROD_X[::-1])
    assert np.array_equal(quadrature._KRONROD_W, quadrature._KRONROD_W[::-1])
    assert np.array_equal(quadrature._GAUSS_W, quadrature._GAUSS_W[::-1])
    xg, wg = np.polynomial.legendre.leggauss(12)
    assert np.max(np.abs(quadrature._GAUSS_X - xg)) <= 1e-15
    assert np.max(np.abs(quadrature._GAUSS_W - wg)) <= 1e-15


def test_coffey_accepts_every_starting_panel_at_once():
    """At T2 = 2e4 each of coffey's 9,022 starting panels passes its first
    Kronrod test: 25 nodes per panel and no split."""
    r = identity_coffey(T2=2.0e4)
    assert r.nodes_used == 25 * len(quadrature._panels([(0.0, 2.0e4)]))


def test_bsy_zero_free_pass_against_a_tight_reference():
    """bsy(2000)'s zero-free pass, at its own rel_tol 1e-5, lands within
    1e-12 of the same pass run to rel_tol 1e-10."""
    ords = zeros.ordinates_below(2000.0)
    _, segs = quadrature._bsy_pieces(ords, 2000.0)
    panels = quadrature._panels(segs, periods=1.2, cap=1.5)
    value, _, _ = quadrature._line_integral(quadrature._log_zeta, panels, 1e-5, abs_floor=1e-11)
    ref, _, _ = quadrature._line_integral(quadrature._log_zeta, panels, 1e-10)
    assert abs(value - ref) <= 1e-12


def test_identities_load_no_numpy_polynomial():
    """The Gauss-Kronrod nodes and weights are literals: after coffey,
    log-disk and bsy, numpy.polynomial has not been imported."""
    code = ("import sys; from zetaline.quadrature import identity_coffey, log_integral_disk, "
            "bsy_integral; identity_coffey(T2=600.0); log_integral_disk(T2=600.0); "
            "bsy_integral(300.0); print('numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


_U = mpc("0.52", "2.0")


@pytest.mark.parametrize("name, g", [
    ("coffey", quadrature._coffey),
    ("hnorm", quadrature._hnorm),
    ("log_zeta", quadrature._log_zeta),
    ("log_zeta_smooth", lambda t, z, lib: quadrature._log_zeta_smooth(t, z, lib, 14.134725141734694)),
    ("log_h_kernel", quadrature._log_h_kernel(_U)),
])
def test_integrand_agrees_in_mp_and_numpy(name, g):
    """Each identity integrand, written once, gives the same value fed 35-digit
    zeta through mpmath and fastzeta through numpy."""
    for t in (0.5, 3.0, 25.0, 59.0):
        with workdps(35):
            v_mp = g(mpf(t), _zeta_em_raw(mpc(0.5, t), 35), mp)
        tt = np.array([t])
        v_np = g(tt, fastzeta.zeta_critical(tt), np)[0]
        assert abs(complex(v_mp) - complex(v_np)) < 1e-10, (name, t)


def test_bsy_small_cutoff():
    r = bsy_integral(500.0)
    assert abs(float(r.value)) < 1e-2
    assert not r.notes["uncovered"]
    assert r.notes["zeros_used"] >= 100


def test_bsy_takes_a_numpy_ordinate_array():
    """The array ordinates_below returns is a valid zero_ordinates, and gives
    the same result as the same ordinates as a list."""
    ords = zeros.ordinates_below(300.0)
    r_array, r_list = bsy_integral(300.0, ords), bsy_integral(300.0, ords.tolist())
    assert r_array.value == r_list.value
    assert r_array.notes["zeros_used"] == r_list.notes["zeros_used"]


def _bsy_tiling(T):
    """Zeros below T and their halfwidths, after checking that the singular
    panels and zero-free segments tile [0, T] edge to edge, none reversed."""
    ords = zeros.ordinates_below(T)
    hs, segs = quadrature._bsy_pieces(ords, T)
    pieces = sorted(segs + list(zip(ords - hs, ords + hs)))
    assert pieces[0][0] == 0.0 and pieces[-1][1] == T
    assert all(a < b for a, b in pieces)
    assert all(b == a2 for (_, b), (a2, _) in zip(pieces, pieces[1:]))
    return ords, hs


def test_bsy_panels_tile_without_overlap():
    """Singular panels and zero-free segments tile [0, T] edge to edge, also
    where T lies within a halfwidth above the last zero (14.2 is 0.065 above
    14.1347, so that panel ends at T) and where two zeros lie closer than
    twice the 0.08 halfwidth."""
    ords, hs = _bsy_tiling(14.2)
    assert len(ords) == 1 and ords[0] + hs[0] == 14.2
    ords, hs = _bsy_tiling(2000.0)
    i = int(np.argmin(abs(ords - 1977.174)))
    gap = ords[i + 1] - ords[i]
    assert gap < 0.16 and hs[i] <= gap / 3 and hs[i + 1] <= gap / 3


def test_bsy_cutoff_inside_last_panel():
    """A cutoff 0.065 above the first zero integrates [0, 14.2], not the
    panel's [0, 14.2147]; a cutoff at the zero itself stays finite."""
    ref = mpf("-0.00039352108798089")  # 2 int_0^14.2 log|zeta| dmu, mpmath.quad at 20 digits
    r = bsy_integral(14.2)
    assert abs(r.value - ref) < 1e-7
    assert mp.isfinite(bsy_integral(float(zeros.bundled_ordinates()[0])).value)


def test_bsy_symmetric_doubling_contract():
    """The integral is computed on t >= 0 and doubled; halving T_cutoff moves
    the value by less than the first cutoff's truncation bound scale."""
    r1 = bsy_integral(300.0)
    r2 = bsy_integral(600.0)
    assert abs(float(r1.value) - float(r2.value)) <= r1.trunc_bound * 3 + 1e-4


def test_outer_function_properties():
    q1 = outer_function(1, T2=4000.0)
    disk = log_integral_disk(T2=4000.0)
    with workdps(35):
        # log |Q(1)| reproduces the disk log integral
        assert abs(mp.log(abs(q1)) - mpf(disk.value)) < mpf("2e-3")
    q2 = outer_function(2, T2=4000.0)
    with workdps(35):
        # |zeta(2) - 2| = |Q(2)| x (Blaschke modulus <= 1): the outer modulus
        # dominates and stays within the unit-shift factor of it
        boundary = abs(zeta_em(2, PrecisionCtx(25)) - 2)
        assert abs(q2) >= boundary - mpf("2e-3")
        assert abs(q2) <= boundary / 0.5  # Blaschke factor bounded below on test data
    # Poisson concentration: Re u -> 1/2 approaches the boundary modulus scale
    q_edge = outer_function(mpc("0.52", "2.0"), T2=4000.0)
    assert 0.05 < abs(q_edge) < 5.0
