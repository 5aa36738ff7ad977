from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, mpf, workdps
from mpmath.libmp import fzero, mpf_neg

from zetaline.coefficients import CoeffTable, coeffs_critical
from zetaline.precision import PrecisionCtx
from zetaline.roots import (
    CircleTooCloseError,
    _aberth_polish,
    _fN_float,
    _fN_on_circle,
    _float_roots,
    _poly_coeffs_ascending,
    roots_fN,
    tail_radius_certificate,
    winding_count,
)
from zetaline.series import partial_sum_fN
from zetaline.zeta import stieltjes

CTX = PrecisionCtx(95)
CTX63 = PrecisionCtx(63)


@pytest.fixture(scope="module")
def table():
    gam = stieltjes(230, CTX)
    return coeffs_critical(220, gam, CTX)


@pytest.fixture(scope="module")
def tables63():
    """The 63-digit critical table of f_10..f_20 and the table of the same
    polynomials dilated by 0.625, f_N(z / 0.625), whose roots lie inside the
    disk (moduli 0.69-0.97)."""
    table = coeffs_critical(20, stieltjes(20, CTX63), CTX63)
    with workdps(80):
        rho = mpf("0.625")
        inner = replace(table, values=tuple(v / rho ** (n + 1) if n >= 0 else v
                                            for n, v in enumerate(table.values, start=table.n_min)))
    return {"f": table, "dilated": inner}


@pytest.fixture(scope="module")
def polyroots63(tables63):
    """mpmath.polyroots of every f_N in tables63 at 80 digits, keyed (name, N)."""
    ref = {}
    with workdps(80):
        for name, tab in tables63.items():
            for N in range(10, 21):
                ref[name, N] = mp.polyroots([tab.value(n) for n in range(N, -1, -1)] + [-1],
                                            maxsteps=100, extraprec=20)
    return ref


def test_linear_case_has_no_disk_root(table):
    report = roots_fN(0, table, CTX, probe_radii=(0.5,))
    assert report.roots_in_disk == ()
    assert report.min_modulus is None
    with workdps(40):
        root = report.all_roots[0]
        assert abs(root - 1 / table.value(0)) < mpf("1e-30")
        assert abs(abs(root) - mpf("2.3653")) < mpf("1e-3")


def test_residuals_meet_defect_bound(table):
    for N in (50, 120):
        report = roots_fN(N, table, CTX, probe_radii=(0.5, 0.8))
        assert report.polished
        with workdps(60):
            for z in report.all_roots:
                assert abs(partial_sum_fN(N, z, table)) < mpf(10) ** (-(CTX.digits // 2))
        assert 0 < report.residual_max <= 10 ** (-(CTX.digits // 2))


def test_winding_matches_root_census(table):
    for N in (50, 120):
        report = roots_fN(N, table, CTX, probe_radii=(0.5, 0.8, 0.9))
        for rho, count in report.winding_counts:
            if count < 0:
                continue  # circle-too-close sentinel
            inside = sum(1 for z in report.roots_in_disk if abs(z) < rho)
            assert count == inside, (N, rho)


def test_winding_zero_inside_08(table):
    for N in (50, 100, 200):
        assert winding_count(N, 0.8, 4096, table) == 0


def test_winding_jumps_above_first_root_modulus(table):
    """Counts jump when the probe circle crosses the smallest root modulus.

    The genuine partial sums keep every root outside the unit disk at these
    degrees, so the crossing behavior is exercised on synthetic tables with
    known interior roots, and vacuously (count 0 near the boundary) on the
    real one.  The count is round(half-circle phase / pi), so it may be odd:
    -1 + 2z has one root, at 1/2.
    """
    N = 60
    report = roots_fN(N, table, CTX, probe_radii=())
    mods = sorted(float(abs(z)) for z in report.all_roots)
    assert mods[0] > 1  # empirically no disk roots at these degrees
    assert winding_count(N, 0.95, 8192, table) == 0

    # f_1(z) = -1 + 2 z^2: roots at +-1/sqrt(2) ~ 0.7071
    synth = CoeffTable(family="critical", n_min=-1, n_max=1,
                       values=(mpf(-1), mpf(0), mpf(2)), digits=30)
    assert winding_count(1, 0.60, 1024, synth) == 0
    assert winding_count(1, 0.80, 1024, synth) == 2
    linear = CoeffTable(family="critical", n_min=-1, n_max=0,
                        values=(mpf(-1), mpf(2)), digits=30)
    assert winding_count(0, 0.40, 1024, linear) == 0
    assert winding_count(0, 0.60, 1024, linear) == 1


def test_winding_matches_polyroots_census(tables63, polyroots63):
    """At a radius halfway between consecutive distinct root moduli of the
    dilated f_10..f_20 (counts 0 to N+1), the half-circle count equals the
    number of mpmath.polyroots roots inside."""
    tab = tables63["dilated"]
    checked = 0
    for N in range(10, 21):
        with workdps(80):
            mods = sorted(float(abs(w)) for w in polyroots63["dilated", N])
        cuts = [0.3] + [m for m in mods if 0.3 < m < 0.999] + [0.999]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo > 0.01:
                rho = (lo + hi) / 2
                assert winding_count(N, rho, 4096, tab) == sum(m < rho for m in mods), (N, rho)
                checked += 1
    assert checked > 50


def test_circle_refinement_matches_full_evaluation(table):
    """The arc nodes are bit for bit the first m/2 + 1 nodes of the full
    m-node circle.  A doubling evaluates only the odd nodes; interleaved with
    the even ones held from the coarser arc, the values match a full
    evaluation at the doubled node count bit for bit, so winding counts and
    CircleTooCloseError decisions do not depend on the refinement path."""
    poly = _fN_float(40, table)
    z_circle = 0.93 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 1024, endpoint=False))
    even = _fN_on_circle(poly, 0.93, 512)[1]
    z_odd, refined = _fN_on_circle(poly, 0.93, 1024, even)
    z_full, full = _fN_on_circle(poly, 0.93, 1024)
    assert len(even) == 257 and len(z_odd) == 256 and len(full) == 513
    assert z_full.tobytes() == z_circle[:513].tobytes()
    assert z_odd.tobytes() == z_full[1::2].tobytes()
    assert refined.tobytes() == full.tobytes()


def test_conjugate_symmetry(table, tables63):
    """Every non-real root's mirror is in all_roots with the same real part
    and the exactly negated imaginary part (raw _mpf_ tuples: a unary minus
    outside workdps would round), and a real seed's root is exactly real."""
    cases = [(40, table, CTX)] + [(N, tab, CTX63) for tab in tables63.values()
                                  for N in range(10, 21)]
    real_seeds = 0
    for N, tab, ctx in cases:
        roots = roots_fN(N, tab, ctx, probe_radii=()).all_roots
        seeds = _float_roots(_poly_coeffs_ascending(N, tab))
        mirrors = {(z.real._mpf_, z.imag._mpf_) for z in roots}
        for s, z in zip(seeds, roots):
            if s.imag == 0:
                assert z.imag._mpf_ == fzero, (N, z)
                real_seeds += 1
            else:
                assert (z.real._mpf_, mpf_neg(z.imag._mpf_)) in mirrors, (N, z)
    assert real_seeds >= len(cases)     # every odd degree has a real root


def test_asymmetric_seeds_raise(tables63):
    c_asc = _poly_coeffs_ascending(12, tables63["f"])
    seeds = _float_roots(c_asc)
    k = int(np.argmax(seeds.imag))
    for bad in (np.concatenate([seeds[:k], seeds[k + 1:k + 2], seeds[k:k + 1], seeds[k + 2:]]),
                np.where(np.arange(len(seeds)) == k, seeds + 1e-9, seeds)):
        with pytest.raises(ValueError):
            _aberth_polish(c_asc, bad, 78)


def test_certificate_small_radius(table):
    cert = tail_radius_certificate(100, mpf("0.5"), table)
    assert cert.conclusive
    assert float(cert.tail_bound) < 1e-30
    assert float(cert.min_fN_on_circle) > 0.1


def test_certificate_inconclusive_near_boundary(table):
    cert = tail_radius_certificate(60, mpf("0.99"), table)
    # near the boundary the bound blows up; must report, never raise
    assert cert.conclusive in (True, False)
    if not cert.conclusive:
        assert float(cert.tail_bound) >= float(cert.min_fN_on_circle) * 0.01


def test_degree_and_table_caps(table):
    with pytest.raises(ValueError):
        roots_fN(500, table, CTX)
    with pytest.raises(ValueError):
        roots_fN(221, table, CTX)


def test_polish_matches_polyroots_on_63_digit_tables(tables63, polyroots63):
    """f_10..f_20 from a 63-digit critical table, and the same polynomials
    dilated by 0.625 (roots inside the disk): every polished root lies within
    1e-60 of one of mpmath.polyroots' at 80 digits."""
    for name, tab in tables63.items():
        for N in range(10, 21):
            report = roots_fN(N, tab, CTX63, probe_radii=())
            assert report.polished
            with workdps(80):
                for z in report.all_roots:
                    assert min(abs(z - w) for w in polyroots63[name, N]) <= mpf("1e-60"), (N, z)


def test_exact_double_root_is_kept():
    """-(1 - 2z)^2: both float seeds are exactly 1/2, where p' = 0 and the
    pair distance is zero; the polish keeps them and does not raise."""
    synth = CoeffTable(family="critical", n_min=-1, n_max=1,
                       values=(mpf(-1), mpf(4), mpf(-4)), digits=30)
    report = roots_fN(1, synth, PrecisionCtx(30), probe_radii=())
    assert report.all_roots == (mpf("0.5"), mpf("0.5"))
    assert report.roots_in_disk == report.all_roots
    assert report.residual_max == 0.0
