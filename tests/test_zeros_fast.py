"""Native line evaluators and zero-ordinate machinery."""

import mpmath
import numpy as np
import pytest
from mpmath import mpc, mpf, workdps

from zetaline import fastzeta
from zetaline.fastzeta import (
    _rs_psi,
    hardy_Z,
    hardy_theta,
    zeta_critical,
    zeta_em_line,
    zeta_rs_line,
)
from zetaline.zeros import (
    bundled_ordinates,
    coverage_gaps,
    expected_zero_count,
    ordinates_below,
    scan_ordinates,
)
from zetaline.zeta import _zeta_em_raw


def _ref(t, sigma=0.5):
    with workdps(30):
        return complex(_zeta_em_raw(mpc(mpf(sigma), mpf(t)), 30))


def test_em_line_accuracy():
    ts = np.array([0.5, 5.0, 30.0, 100.0, 500.0])
    vals = zeta_em_line(ts)
    for t, v in zip(ts, vals):
        assert abs(v - _ref(t)) < 1e-11


def test_em_line_off_critical():
    vals = zeta_em_line(np.array([3.0, 50.0]), sigma=0.75)
    for t, v in zip((3.0, 50.0), vals):
        assert abs(v - _ref(t, 0.75)) < 1e-11


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.5, 2.0])
def test_em_line_against_mpmath_at_bucket_edges(sigma):
    """Independent oracle: mpmath.zeta on each side of every power-of-two
    cutoff edge up to t = 600, where N jumps from ng to 2 ng; error <= 1e-12,
    absolute, or relative where |zeta| > 1."""
    ts = []
    ng = 16
    while (edge := (ng - 2 * sigma - 10) / 1.1) < 600:
        if edge > 0:
            ts += [edge * (1 - 1e-9), edge * (1 + 1e-9)]
        ng *= 2
    vals = zeta_em_line(np.array(ts), sigma)
    with workdps(25):
        for t, v in zip(ts, vals):
            ref = complex(mpmath.zeta(mpc(sigma, t)))
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (sigma, t)


def test_em_line_row_chunks_match(monkeypatch):
    """A _CHUNK of a few hundred elements cuts every cutoff bucket into
    chunks of 18 rows or fewer (one row from N = 256 on); the values match
    the one-chunk fill."""
    t = np.concatenate([np.linspace(0.0, 600.0, 1201), np.linspace(455.0, 456.0, 7)])
    whole = zeta_em_line(t)
    monkeypatch.setattr(fastzeta, "_CHUNK", 300)
    chunked = zeta_em_line(t)
    assert np.all(np.abs(chunked - whole) <= 1e-15 * np.abs(whole))


def test_rs_line_accuracy_drops_slowly():
    ts = np.array([700.0, 3000.0, 9999.5])
    vals = zeta_rs_line(ts)
    tol = (2e-4, 7e-5, 1e-5)
    for t, v, tl in zip(ts, vals, tol):
        assert abs(v - _ref(t)) < tl


def test_rs_psi_removable_points():
    """Regression: the remainder factor is finite and smooth at p = 1/4, 3/4.

    mpmath-limit reference values; a broken fallback here once shifted zero
    ordinates near heights 2 pi (m + 3/4)^2 by ~0.01 and lost close pairs.
    """
    import mpmath

    with mpmath.workdps(40):
        f = lambda x: mpmath.cos(2 * mpmath.pi * (x * x - x - mpmath.mpf(1) / 16)) / mpmath.cos(
            2 * mpmath.pi * x
        )
        for p in (0.25, 0.75, 0.2501, 0.7499, 0.2449, 0.7551):
            mine = float(_rs_psi(np.array([p]))[0])
            ref = float(f(mpmath.mpf(p) + mpmath.mpf("1e-30")))
            assert abs(mine - ref) < 1e-10, p


def test_hardy_Z_is_real_rotation():
    ts = np.array([50.0, 700.0])
    z = zeta_critical(ts)
    th = hardy_theta(ts)
    rotated = np.exp(1j * th) * z
    assert np.abs(rotated.imag).max() < 1e-7
    assert np.allclose(hardy_Z(ts), rotated.real, atol=1e-7)


def test_bundled_ordinates():
    ords = bundled_ordinates()
    assert len(ords) == 100
    assert abs(ords[0] - 14.134725141734694) < 1e-12
    assert abs(ords[99] - 236.5242296658162) < 1e-10
    # every bundled ordinate annihilates zeta to native accuracy
    vals = zeta_critical(np.array(ords[:10]))
    assert np.abs(vals).max() < 1e-9


def test_scan_finds_known_zeros():
    found = scan_ordinates(14.0, 50.0)
    ords = [o for o in bundled_ordinates() if o < 50]
    assert len(found) == len(ords)
    assert np.abs(np.array(ords) - found).max() < 1e-6


def test_scan_resolves_lehmer_pair():
    found = scan_ordinates(7004.5, 7005.5)
    pair = found[(found > 7005.0) & (found < 7005.2)]
    assert len(pair) == 2
    assert pair[1] - pair[0] < 0.04


def test_scan_count_near_psi_seam():
    """Regression for the removable-point bug: 23 zeros in [6728, 6749]."""
    found = scan_ordinates(6728.0, 6749.0)
    assert len(found) == 23


def test_ordinates_below_extends_and_counts():
    ords = ordinates_below(500.0)
    expected = expected_zero_count(500.0)
    assert abs(len(ords) - expected) <= 2.5  # S(T) fluctuation band
    assert (np.diff(ords) > 0).all()


def test_coverage_detects_removed_zero():
    ords = ordinates_below(120.0)
    gapped = np.delete(ords, 10)
    report = coverage_gaps(gapped, 120.0)
    assert not report.ok
    lo, hi = report.missing_intervals[0]
    assert lo <= ords[10] <= hi
    clean = coverage_gaps(ords, 120.0)
    assert clean.ok
