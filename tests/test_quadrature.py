import numpy as np
import pytest
from mpmath import mp, mpc, mpf, workdps

from zetaline import fastzeta, quadrature, zeros
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

CTX = PrecisionCtx(25)


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
    vals = moment_oracle([-1, 0], CTX)
    gam = stieltjes(2, PrecisionCtx(30))
    with workdps(40):
        assert abs(vals[-1] + 1) < mpf("1e-8")
        assert abs(vals[0] - (gam.gammas[0] - 1)) < mpf("1e-8")


def test_moment_oracle_line_family():
    vals = moment_oracle([-1, 5], CTX, sigma0="0.75")
    ctx65 = PrecisionCtx(65)
    gam = stieltjes(100, ctx65)
    line = coeffs_line("0.75", -1, 6, gam, ctx65)
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


def test_cross_quadrature_vs_corrected_closed_form():
    q = cross_line_quadrature("0.75", "0.5", CTX)
    wow = cross_moment_wow("0.75", PrecisionCtx(30))
    with workdps(40):
        assert abs(mpf(q.value) - wow) < mpf("1e-8")


def test_cross_core_assembly_matches_wow():
    ctx66 = PrecisionCtx(66)
    gam = stieltjes(130, ctx66)
    crit = coeffs_critical(40, gam, ctx66)
    line = coeffs_line("0.75", -2, 40, gam, ctx66)
    core = cross_moment_closed_form("0.75", "0.5", crit, {"0.75": line}, PrecisionCtx(30),
                                    tol=mpf("1e-13"))
    wow = cross_moment_wow("0.75", PrecisionCtx(30))
    with workdps(40):
        assert abs(core - wow) < mpf("1e-9")


def test_cross_moment_limit_at_half():
    """a = b = 1/2 limit: (gamma0-1)^2 - 2 gamma1, consistent with the
    bilinear pairing ell_0^2 + 2 ell_1 ell_{-1}."""
    gam = stieltjes(2, PrecisionCtx(30))
    wow = cross_moment_wow("0.5", PrecisionCtx(30))
    q = cross_line_quadrature("0.5", "0.5", CTX)
    with workdps(40):
        expect = (gam.gammas[0] - 1) ** 2 - 2 * gam.gammas[1]
        assert abs(wow - expect) < mpf("1e-25")
        assert abs(mpf(q.value) - expect) < mpf("1e-8")


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
    """gamma_0 in the notes is Euler's constant; no contour table is built."""
    def no_table(*args, **kwargs):
        raise AssertionError("log_integral_disk built a Stieltjes table")

    monkeypatch.setattr(quadrature, "stieltjes", no_table)
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


def test_native_adaptive_complex_integrand():
    """The imaginary part of a complex integrand is integrated, not dropped."""
    value, est, _ = quadrature._native_adaptive(
        lambda t: np.exp(1j * t), [(0.0, 4.0), (4.0, 10.0)], lambda t: 1.0, 1e-12)
    assert abs(value - (np.exp(10j) - 1) / 1j) < 1e-12
    assert est < 1e-10


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
