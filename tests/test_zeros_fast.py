"""Native line evaluators and zero-ordinate machinery."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from mpmath import mpc, mpf, workdps

from zetaline import fastzeta
from zetaline.fastzeta import (
    RS_CROSSOVER,
    T_CHEB,
    _rs_term,
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
from zetaline.quadrature import _KRONROD_X
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
    """Independent oracle: mpmath.zeta on each side of every height up to
    t = 600 where 1.1 t + 2 sigma + 10 crosses a power of two ng, where a
    cutoff rounded up to powers of two jumped from ng to 2 ng; error <=
    1e-12, absolute, or relative where |zeta| > 1."""
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


def _ray_points(sigma0):
    """s = sigma0 + 48 v/(1-v) + 48i, the moment oracle's ray, at the
    adaptive pass's own 25 Kronrod nodes on 32 equal panels of v in [0, 1]:
    Re s up to 1.0e6, past the 2.5e5 that the pass reaches at the outermost
    node of its 1/8-wide last panel."""
    v = ((np.arange(32)[:, None] + 0.5 + 0.5 * _KRONROD_X) / 32).ravel()
    return sigma0 + 48.0 * v / (1 - v) + 48j


@pytest.mark.parametrize("points", [
    pytest.param(lambda: _ray_points(0.5), id="ray-0.5"),
    pytest.param(lambda: _ray_points(0.75), id="ray-0.75"),
    pytest.param(lambda: 1 / (1 + 0.99 * np.exp(2j * np.pi * np.arange(512) / 512)), id="disk-0.99"),
])
def test_em_complex_s_against_mpmath(points):
    """zeta_em_line with an array sigma, against mpmath.zeta: on the rays of
    the moment oracle, Re s up to 1.0e6, and on s = 1/(1+z), |z| = 0.99,
    Re s from 0.5025 to 100; error <= 1e-13, relative where |zeta| > 1."""
    s = points()
    vals = zeta_em_line(s.imag, s.real)
    with workdps(25):
        for si, v in zip(s, vals):
            ref = complex(mpmath.zeta(mpc(si.real, si.imag)))
            assert abs(v - ref) <= 1e-13 * max(1.0, abs(ref)), si


def test_em_fill_chunks_match(monkeypatch):
    """An _RS_FILL of a few hundred elements cuts the Euler-Maclaurin fill
    into chunks of 33 points or fewer (one point from N = 299 on); on a
    shuffled batch of heights in [-600, 600], with t = 0 and both sides of
    each height where N crosses a power of two, the values match the default
    fill and single-point calls bit for bit."""
    rng = np.random.default_rng(34)
    edges = np.array([(ng - 11) / 1.1 for ng in (16, 32, 64, 128, 256, 512)])
    edges = np.concatenate([edges * (1 - 1e-9), edges * (1 + 1e-9)])
    ts = np.concatenate([rng.uniform(-600.0, 600.0, 400), [0.0, 600.0, -600.0], edges, -edges])
    rng.shuffle(ts)
    whole = zeta_em_line(ts)
    monkeypatch.setattr(fastzeta, "_RS_FILL", 300)
    chunked = zeta_em_line(ts)
    alone = np.array([zeta_em_line(t)[0] for t in ts])
    assert chunked.tobytes() == whole.tobytes()
    assert alone.tobytes() == whole.tobytes()


def test_rs_line_accuracy_drops_slowly():
    ts = np.array([700.0, 3000.0, 9999.5])
    vals = zeta_rs_line(ts)
    for t, v in zip(ts, vals):
        assert abs(v - _ref(t)) < 1e-9


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
            x = np.array([p - 0.5])
            mine = float(_rs_term(0, x, x * x)[0])
            ref = float(f(mpmath.mpf(p) + mpmath.mpf("1e-30")))
            assert abs(mine - ref) < 1e-10, p


def test_hardy_Z_against_siegelz():
    """Riemann-Siegel with C0..C5 from t = 200: |Z - mpmath.siegelz| <= 1e-9,
    at p = tau - floor(tau) near 1/4 and 3/4 (the removable points of Psi), on
    both sides of the crossover and of the old crossover 600, and up to 2e4."""
    ts = [199.999, 200.0, 200.001, 250.0, 599.999, 600.001, 1000.0, 7005.1, 19999.0]
    for m in (6, 9, 20, 56):
        for p in (0.25, 0.75, 0.2501, 0.7499):
            ts.append(2 * np.pi * (m + p) ** 2)
    vals = hardy_Z(np.array(ts))
    with workdps(25):
        for t, v in zip(ts, vals):
            assert abs(v - float(mpmath.siegelz(t))) <= 1e-9, t


def test_hardy_Z_against_siegelz_at_identity_heights():
    """The heights coffey and hnorm reach by default (T2 = 6e4) and the high
    orbit points: |Z - mpmath.siegelz| <= 5e-10 on [2e4, 6e4] and <= 2e-8
    near 1e6, where the float64 phase t ln p sets the error."""
    rng = np.random.default_rng(13)
    for ts, tol in ((rng.uniform(2e4, 6e4, 16), 5e-10), (1e6 + rng.uniform(-100.0, 100.0, 4), 2e-8)):
        vals = hardy_Z(ts)
        with workdps(25):
            for t, v in zip(ts, vals):
                assert abs(v - float(mpmath.siegelz(t))) <= tol, t


def test_rs_fill_chunks_match(monkeypatch):
    """An _RS_FILL of a few hundred elements cuts the fill into chunks of one
    point from m = 298 on; on a shuffled batch whose m runs from 5 to 3,800
    the values match the default fill and single-point calls bit for bit."""
    rng = np.random.default_rng(21)
    ts = np.concatenate([np.exp(rng.uniform(np.log(RS_CROSSOVER), np.log(9.1e7), 150)),
                         [RS_CROSSOVER, 2 * np.pi * 6 ** 2, 2 * np.pi * 3800 ** 2 - 1.0]])
    rng.shuffle(ts)
    m = np.floor(np.sqrt(ts / (2 * np.pi)))
    assert m.min() == 5 and m.max() == 3799
    whole = zeta_rs_line(ts)
    monkeypatch.setattr(fastzeta, "_RS_FILL", 300)
    chunked = zeta_rs_line(ts)
    alone = np.array([zeta_rs_line(t)[0] for t in ts])
    assert chunked.tobytes() == whole.tobytes()
    assert alone.tobytes() == whole.tobytes()


def test_rs_line_reuses_the_theta_rotation():
    """zeta_rs_line multiplies Z by the conjugate of the e^{i theta} that
    _hardy_Z_rs formed, bit for bit what a second rotation by a freshly
    computed e^{-i theta} gives."""
    rng = np.random.default_rng(3)
    ts = np.concatenate([rng.uniform(RS_CROSSOVER, 2e4, 4000), [RS_CROSSOVER, 1e6, 9e7]])
    rng.shuffle(ts)
    half = hardy_theta(ts) * -0.5
    rotated = fastzeta._hardy_Z_rs(ts)[0] * fastzeta._cis(
        half, 1.0, np.empty_like(half, dtype=complex), np.empty_like(half))
    assert np.array_equal(zeta_rs_line(ts), rotated)


def test_rs_fill_memory_is_bounded():
    """The fill stores rows n <= m_max/2, each as long as its prefix, in
    chunks of at most _RS_FILL complex elements: 3e5 heights in [200, 2e4]
    plus two near 9e7, where m is about 3,800, stay within 40 MiB traced."""
    import tracemalloc

    ts = np.concatenate([np.linspace(200.0, 2e4, 300_000), [8.9e7, 9.0e7]])
    fastzeta._hardy_Z_rs(ts[-3:])  # the sieve and the remainder polynomials, outside the trace
    tracemalloc.start()
    try:
        fastzeta._hardy_Z_rs(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20, peak / 2 ** 20


def test_zeta_critical_continuous_across_crossover():
    """The last Euler-Maclaurin height and the first Riemann-Siegel one both
    lie within 1e-9 of mpmath.zeta."""
    ts = np.array([np.nextafter(RS_CROSSOVER, 0.0), RS_CROSSOVER])
    vals = zeta_critical(ts)
    with workdps(25):
        for t, v in zip(ts, vals):
            assert abs(v - complex(mpmath.zeta(mpc(0.5, t)))) <= 1e-9, t
    assert abs(vals[1] - vals[0]) <= 2e-9


def test_cheb_route_against_mpmath():
    """Below T_CHEB zeta is the pole plus a Chebyshev series of the entire
    part: within 1e-14 of mpmath.zeta at 200 heights in [0, T_CHEB], at 0 and
    on both sides of T_CHEB."""
    ts = np.concatenate([np.random.default_rng(8).uniform(0.0, T_CHEB, 200),
                         [0.0, T_CHEB * (1 - 1e-9), T_CHEB * (1 + 1e-9)]])
    vals = zeta_critical(ts)
    with workdps(30):
        for t, v in zip(ts, vals):
            assert abs(v - complex(mpmath.zeta(mpc(0.5, t)))) <= 1e-14, t


def test_zeta_critical_continuous_across_cheb():
    """On each side of T_CHEB zeta_critical stays within 1e-14 of
    Euler-Maclaurin, which serves both sides before the Chebyshev route."""
    ts = np.array([T_CHEB * (1 - 1e-9), np.nextafter(T_CHEB, 0.0), T_CHEB, T_CHEB * (1 + 1e-9)])
    vals = zeta_critical(ts)
    assert np.abs(vals - zeta_em_line(ts)).max() <= 1e-14
    assert abs(vals[2] - vals[1]) <= 1e-14


def test_zeta_critical_batch_independent():
    """A height's value is the same bit for bit alone and inside a shuffled
    batch that mixes the Chebyshev, Euler-Maclaurin and Riemann-Siegel
    routes."""
    rng = np.random.default_rng(5)
    ts = np.concatenate([rng.uniform(0.0, T_CHEB, 40), rng.uniform(T_CHEB, RS_CROSSOVER, 40),
                         rng.uniform(RS_CROSSOVER, 3000.0, 20),
                         [0.0, np.nextafter(T_CHEB, 0.0), T_CHEB, RS_CROSSOVER]])
    rng.shuffle(ts)
    batch = zeta_critical(ts)
    alone = np.array([zeta_critical(t)[0] for t in ts])
    assert batch.tobytes() == alone.tobytes()


def test_table_route_against_mpmath():
    """On [T_CHEB, RS_CROSSOVER) zeta is the pole plus a polynomial table of
    the entire part on unit segments: within 1.5e-13 of mpmath.zeta,
    relative where |zeta| > 1, at 150 random heights and on both sides of
    20 segment edges."""
    edges = T_CHEB + np.linspace(1, RS_CROSSOVER - T_CHEB - 1, 20).round()
    ts = np.concatenate([np.random.default_rng(17).uniform(T_CHEB, RS_CROSSOVER, 150),
                         np.nextafter(edges, 0.0), edges])
    vals = zeta_critical(ts)
    with workdps(30):
        for t, v in zip(ts, vals):
            ref = complex(mpmath.zeta(mpc(0.5, t)))
            assert abs(v - ref) <= 1.5e-13 * max(1.0, abs(ref)), t


def test_unit_table_is_the_per_term_gather():
    """The unit table route, which gathers a point's coefficient row with one
    take per block, equals bit for bit a Horner that gathers each term's
    coefficients by segment, on more points than two passes hold, at segment
    edges, and on negative heights, which give its conjugate."""
    lo, width = fastzeta._UNIT[:2]
    c = fastzeta._fit(*fastzeta._UNIT)  # (segment, term, 2)
    edges = lo + width * np.arange(1, len(c) + 1)
    t = np.concatenate([np.random.default_rng(37).uniform(lo, edges[-1], 5000), [lo],
                        edges[:-1], np.nextafter(edges, lo)])
    assert len(t) > 2 * (fastzeta._GATHER // c[0].nbytes)
    u = (t - lo) / width
    seg = u.astype(np.intp)
    x = 2 * (u - seg) - 1
    acc = c[:, -1].T.take(seg, axis=1)
    for k in range(c.shape[1] - 2, -1, -1):
        acc *= x
        acc += c[:, k].T.take(seg, axis=1)
    d = 0.25 + t * t
    ref = np.empty(len(t), dtype=complex)
    ref.real = acc[0] - 0.5 / d
    ref.imag = acc[1] - t / d
    assert zeta_critical(t).tobytes() == ref.tobytes()
    assert zeta_critical(-t).tobytes() == np.conj(ref).tobytes()


def test_even_odd_table_is_a_horner_in_y():
    """Below T_CHEB zeta_critical is (P(y) - 1/2 / d) + i x (Q(y) - T_CHEB / d),
    x = t / T_CHEB, y = x^2, d = 1/4 + t^2, over the stored rows (P, Q), bit
    for bit, on more points than two blocks hold, at 0, -0.0,
    +-nextafter(T_CHEB, 0), +-5e-324 and at negative heights, which give its
    conjugate."""
    P, Q = fastzeta._even_odd()
    assert len(P) == len(Q) == 17
    edge = np.nextafter(T_CHEB, 0.0)
    t = np.concatenate([np.random.default_rng(41).uniform(-T_CHEB, T_CHEB, 2 * fastzeta._BLOCK + 100),
                        [0.0, -0.0, edge, -edge, 5e-324, -5e-324]])
    x = t / T_CHEB
    y = x * x
    p, q = np.full_like(t, P[-1]), np.full_like(t, Q[-1])
    for k in range(len(P) - 2, -1, -1):
        p = p * y + P[k]
        q = q * y + Q[k]
    d = 0.25 + t * t
    ref = np.empty(len(t), dtype=complex)
    ref.real = p - 0.5 / d
    ref.imag = x * (q - T_CHEB / d)
    assert zeta_critical(t).tobytes() == ref.tobytes()
    assert zeta_critical(-t).tobytes() == np.conj(ref).tobytes()


def test_even_odd_table_drops_only_noise():
    """Re g is even in t and Im g odd, so the Chebyshev terms the table drops,
    odd in Re and even in Im, are below 1e-15; 34 terms in x are kept."""
    c = fastzeta._even_odd_series()
    assert len(c) == 34
    assert np.abs(c[1::2, 0]).max() < 1e-15
    assert np.abs(c[::2, 1]).max() < 1e-15


def test_tables_survive_other_fits(monkeypatch):
    """Each table is fitted once per process: after two more fits, zeta_critical
    on both tables evaluates no Euler-Maclaurin sample."""
    zeta_critical([3.0, 50.0])
    fastzeta._fit(0.0, 1.0, 1, 8, 1e-3)
    fastzeta._fit(0.0, 2.0, 1, 8, 1e-3)
    calls = []
    em = fastzeta.zeta_em_line

    def counted(*args, **kwargs):
        calls.append(args)
        return em(*args, **kwargs)

    monkeypatch.setattr(fastzeta, "zeta_em_line", counted)
    zeta_critical([3.0, 50.0])
    assert calls == []


def test_zeta_critical_negative_heights_are_conjugates():
    """zeta(1/2 - it) is the conjugate of zeta(1/2 + it) bit for bit, on
    every route."""
    rng = np.random.default_rng(19)
    ts = np.concatenate([rng.uniform(0.0, T_CHEB, 20), rng.uniform(T_CHEB, RS_CROSSOVER, 20),
                         rng.uniform(RS_CROSSOVER, 3000.0, 10), [0.0, T_CHEB, RS_CROSSOVER]])
    assert zeta_critical(-ts).tobytes() == np.conj(zeta_critical(ts)).tobytes()


def test_hardy_Z_below_crossover_against_siegelz():
    """Below RS_CROSSOVER Z rotates the table's zeta: within 1.5e-13 of
    mpmath.siegelz on [10, 200], relative where |Z| > 1."""
    ts = np.random.default_rng(23).uniform(10.0, RS_CROSSOVER, 60)
    vals = hardy_Z(ts)
    with workdps(25):
        for t, v in zip(ts, vals):
            ref = float(mpmath.siegelz(t))
            assert abs(v - ref) <= 1.5e-13 * max(1.0, abs(ref)), t


def test_cheb_route_loads_no_fft():
    """The table coefficients come from an inline DCT: after calls on both
    tables, neither numpy.fft nor numpy.polynomial has been imported."""
    code = ("import sys; from zetaline.fastzeta import zeta_critical; zeta_critical([0.5, 3.0, 50.0]); "
            "print([m for m in ('numpy.fft', 'numpy.polynomial') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_rs_route_loads_no_fft():
    """The Riemann-Siegel remainder polynomials come from an inline DFT and an
    economization in plain numpy: after zeta_critical and hardy_Z above
    RS_CROSSOVER, neither numpy.fft nor numpy.polynomial has been imported."""
    code = ("import sys; from zetaline.fastzeta import zeta_critical, hardy_Z; "
            "zeta_critical([500.0]); hardy_Z([1000.0]); "
            "print([m for m in ('numpy.fft', 'numpy.polynomial') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _exact_polyval(coeffs, y, x=None):
    """sum_i coeffs[i] y^i (times x, if given) for float arrays, in Python
    integers with 200 fractional bits: exact but for 2^-200 per step, then
    rounded once to float."""
    scale = 2.0 ** 200
    fixed = lambda v: np.array([int(u * scale) for u in np.atleast_1d(v)], dtype=object)
    Y, acc = fixed(y), fixed(coeffs[-1]).repeat(len(y))
    for c in coeffs[-2::-1]:
        acc = (acc * Y >> 200) + int(c * scale)
    if x is not None:
        acc = acc * fixed(x) >> 200
    return np.array([float(a) / scale for a in acc])


def test_economized_rs_polynomials_match_the_full_degree():
    """Each economized C_k lies within its share of the cut, _RS_TAIL
    tau^(k + 1/2) with tau = sqrt(RS_CROSSOVER / 2 pi), plus 2 ulp of max |C_k|,
    of the full-degree Taylor polynomial on 2,001 points of |x| <= 1/2; the
    six together take at most 80 Horner steps (the Taylor cut took 116)."""
    polys = fastzeta._rs_polys()
    assert sum(len(p) for p in polys) <= 80
    x = np.linspace(-0.5, 0.5, 2001)
    y = x * x
    for k, full in enumerate(fastzeta._rs_polys(economized=False)):
        ref = _exact_polyval(full, y, x if k % 2 else None)
        tol = fastzeta._RS_TAIL * (RS_CROSSOVER / (2 * np.pi)) ** ((k + 0.5) / 2)
        err = np.abs(_rs_term(k, x, y) - ref).max()
        assert err <= tol + 2 * np.spacing(np.abs(ref).max()), (k, err)


def _psi_derivatives(x, jmax):
    """Psi^(j)(p), j <= jmax, at p = x + 1/2, from the Taylor series of
    Psi = -cos(2 pi x^2 - 5 pi/8) / cos(2 pi x) in x, good to 40 digits.

    The series division loses about 0.6 digits per power of x, so it runs
    at 90 digits."""
    n = 100
    with workdps(90):
        w = 2 * mpmath.pi
        c, s = mpmath.cos(5 * mpmath.pi / 8), mpmath.sin(5 * mpmath.pi / 8)
        num, den = [mpf(0)] * (n + 1), [mpf(0)] * (n + 1)
        for i in range(0, n + 1, 2):  # x^i = (x^2)^(i/2)
            h = i // 2
            num[i] = -(c if h % 2 == 0 else s) * (-1) ** (h // 2) * w ** h / mpmath.factorial(h)
            den[i] = (-1) ** h * w ** i / mpmath.factorial(i)
        q = []
        for i in range(n + 1):
            q.append((num[i] - mpmath.fsum(den[j] * q[i - j] for j in range(1, i + 1))) / den[0])
        x = mpf(x)
        return [mpmath.fsum(q[i] * mpmath.ff(i, j) * x ** (i - j) for i in range(j, n + 1))
                for j in range(jmax + 1)]


def test_rs_polynomials_match_edwards():
    """C1..C4 against Edwards' closed forms (Riemann's Zeta Function, 7.6),
    to the cut each polynomial is allowed: _RS_TAIL on Z at RS_CROSSOVER, so
    _RS_TAIL tau^(k + 1/2) on C_k, tau = sqrt(RS_CROSSOVER / 2 pi)."""
    xs = [-0.5, -0.37, -0.25, -0.1, 0.0, 0.13, 0.25, 0.4, 0.5]
    for x in xs:
        d = _psi_derivatives(x, 12)
        with workdps(40):
            pi = mpmath.pi
            edwards = [
                -d[3] / (96 * pi ** 2),
                d[2] / (64 * pi ** 2) + d[6] / (18432 * pi ** 4),
                -d[1] / (64 * pi ** 2) - d[5] / (3840 * pi ** 4) - d[9] / (5308416 * pi ** 6),
                d[0] / (128 * pi ** 2) + 19 * d[4] / (24576 * pi ** 4)
                + 11 * d[8] / (5898240 * pi ** 6) + d[12] / (2038431744 * pi ** 8),
            ]
        xa = np.array([x])
        for k, ref in enumerate(edwards, start=1):
            tol = fastzeta._RS_TAIL * (RS_CROSSOVER / (2 * np.pi)) ** ((k + 0.5) / 2) + 1e-16
            assert abs(float(_rs_term(k, xa, xa * xa)[0]) - float(ref)) <= tol, (k, x)


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


def test_scan_ordinates_against_zetazero():
    """Scanned ordinates on [236.75, 300] (zeros 101..138) lie within 1e-10 of
    mpmath.zetazero: every ninth zero, and the two farthest off, n = 114 and
    118 (9.8e-11 and 9.2e-11; Z's dropped C6 sets it, not the refinement)."""
    found = scan_ordinates(236.75, 300.0)
    assert len(found) == 38
    with workdps(20):
        for n in sorted({*range(101, 139, 9), 114, 118}):
            assert abs(found[n - 101] - float(mpmath.zetazero(n).imag)) <= 1e-10, n


def test_ordinates_below_2000_counts_every_zero():
    """1517 = mpmath.nzeros(2000), as recorded in zetabench/refs.json."""
    assert len(ordinates_below(2000.0)) == 1517


def test_scan_refines_in_at_most_12_sweeps(monkeypatch):
    """After the grid's hardy_Z calls (fastzeta._BLOCK points each), the
    Illinois refinement makes at most 12 more, one per sweep, and leaves each
    ordinate within 1e-11 of a sign change.  Up to 2000 every bracket closes
    in 7 sweeps; plain regula falsi (no halving) was still refining one at
    the cap of 12."""
    from zetaline import zeros

    calls = []

    def counting(t):
        calls.append(len(t))
        return hardy_Z(t)

    monkeypatch.setattr(zeros, "hardy_Z", counting)
    for b, grid in ((300.0, 2531), (2000.0, 70531)):
        chunks = math.ceil(grid / fastzeta._BLOCK)
        calls.clear()
        found = scan_ordinates(236.75, b)
        assert sum(calls[:chunks]) == grid
        assert len(calls) - chunks <= (12 if b == 300.0 else 8), b
    assert (hardy_Z(found - 1e-11) * hardy_Z(found + 1e-11) < 0).all()


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


def _coverage_per_gap(ords, T_cutoff, step=0.05):
    """The rescan one gap at a time: the reference for the batched scan."""
    edges = np.concatenate([[10.0], ords, [T_cutoff]])
    missing = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 4 * step:
            continue
        grid = np.linspace(lo + step, hi - step, max(int((hi - lo) / step), 8))
        sgn = np.sign(hardy_Z(grid))
        for f in np.where(sgn[:-1] * sgn[1:] < 0)[0]:
            missing.append((float(grid[f]), float(grid[f + 1])))
    return missing


def test_coverage_batched_rescan():
    """One ordinate near t = 1000 removed: exactly its interval is reported,
    and on the full list the batched rescan equals the per-gap loop."""
    ords = ordinates_below(1100.0)
    i = int(np.argmin(np.abs(ords - 1000.0)))
    report = coverage_gaps(np.delete(ords, i), 1100.0)
    assert len(report.missing_intervals) == 1
    lo, hi = report.missing_intervals[0]
    assert lo <= ords[i] <= hi
    assert report.missing_intervals == _coverage_per_gap(np.delete(ords, i), 1100.0)
    full = coverage_gaps(ords, 1100.0)
    assert full.ok and full.missing_intervals == _coverage_per_gap(ords, 1100.0)
