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
    _circle_nodes,
    _float_roots,
    _poly_coeffs_ascending,
    _unit_arc,
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


def test_circle_refinement_matches_full_evaluation():
    """The arc nodes are bit for bit the first m/2 + 1 nodes of the full
    m-node linspace circle, and a bisection's midpoints, the odd nodes of a
    circle 2, 4 or 8 times finer, are bit for bit that circle's nodes: the
    certified arcs and CircleTooCloseError decisions do not depend on the
    refinement path.  The cached unit arc is read-only."""
    def circle(m):
        return 0.93 * np.exp(1j * np.linspace(0.0, 2 * np.pi, m, endpoint=False))

    arc = _circle_nodes(0.93, 1024)
    assert len(arc) == 513 and arc.tobytes() == circle(1024)[:513].tobytes()
    for fine in (2048, 4096, 8192):
        odd = np.arange(1, fine // 2, 2)
        assert _circle_nodes(0.93, fine, odd).tobytes() == circle(fine)[odd].tobytes()
    with pytest.raises(ValueError):
        _unit_arc(1024)[0] = 0


def test_root_pair_near_the_circle_is_counted_or_refused():
    """(z - w)(z - conj w)(z - 3), scaled to constant term -1, with |w| =
    0.7 +- d for d from half a starting node spacing down to 1e-9, probed at
    r = 0.7 with 64 nodes (spacing 0.069): the count is 0 with the pair
    outside and 2 with it inside, or refused, never wrong.  Pairs at least
    1e-3 away, 15 times the finest spacing, are counted."""
    h = 2 * np.pi * 0.7 / 64
    refused = []
    for d in (h / 2, h / 8, 1e-3, 1e-5, 1e-7, 1e-9):
        for side, want in ((1, 0), (-1, 2)):
            w = (0.7 + side * d) * np.exp(0.3j + 2j * np.pi / 128)   # between two nodes
            p = np.poly([w, np.conj(w), 3.0]).real[::-1]               # ascending, p[0] = -3|w|^2
            with workdps(30):
                values = tuple(mpf(c) / mpf(-p[0]) for c in p)         # constant term -1
            synth = CoeffTable(family="critical", n_min=-1, n_max=2, values=values, digits=30)
            try:
                assert winding_count(2, 0.7, 64, synth) == want, (d, side)
            except CircleTooCloseError:
                refused.append(d)
    assert 0 < len(refused) and max(refused) < 1e-3


def test_root_on_a_node_is_refused():
    """-1 + 2z at r = 0.5: the root is node 0, where f_N is 0, and the arc
    beside it fails at every spacing down to the cap."""
    linear = CoeffTable(family="critical", n_min=-1, n_max=0,
                        values=(mpf(-1), mpf(2)), digits=30)
    with pytest.raises(CircleTooCloseError):
        winding_count(0, 0.5, 4096, linear)


@pytest.mark.parametrize("N,r", [(100, "0.5"), (60, "0.99")])
def test_certificate_lower_bound_holds_on_the_circle(table, N, r):
    """The certificate's lower bound never exceeds |f_N| evaluated in mp at
    200 random points of the circle."""
    cert = tail_radius_certificate(N, mpf(r), table)
    assert 0 < cert.lower_bound <= cert.min_fN_on_circle
    theta = np.random.default_rng([N, 7]).uniform(0, 2 * np.pi, 200)
    with workdps(40):
        least = min(abs(partial_sum_fN(N, mp.mpf(r) * mp.expj(mpf(t)), table)) for t in theta)
    assert cert.lower_bound <= least


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
