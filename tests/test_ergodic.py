import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline.coefficients import coeffs_critical
from zetaline import ergodic, fastzeta
from zetaline.ergodic import (
    basis_combination_value,
    birkhoff_average,
    birkhoff_averages,
    boole_orbit,
    boole_step,
    cauchy_half_sample,
    invariance_check,
    orbit_vs_cauchy_ks,
    prediction_from_table,
)
from zetaline.precision import PrecisionCtx
from zetaline.zeta import stieltjes


@pytest.fixture(scope="module")
def crit():
    ctx = PrecisionCtx(66)
    return coeffs_critical(12, stieltjes(100, ctx), ctx)


def test_boole_fixed_points():
    assert boole_step(0.0) == 0.0
    assert boole_step(0.5) == 0.0
    assert boole_step(-0.5) == 0.0


@given(st.floats(min_value=1e-8, max_value=1e8))
@settings(max_examples=100, deadline=None)
def test_boole_oddness(x):
    assert boole_step(-x) == -boole_step(x)


def _theta(x):
    """theta in (0, 1) with x = cot(pi theta)/2."""
    return np.arctan2(1.0, 2.0 * x) / np.pi


def test_orbit_is_exact():
    """The orbit is x_k = cot(pi theta_k)/2 with theta_k doubling mod 1; it
    starts at x0, is odd and repeatable, stays at 0 from +-0.0, and from
    1e-300 leaves the height cap for points 1..968, as the float map does."""
    cauchy = float(cauchy_half_sample(np.random.default_rng(11), 1)[0])
    for x0 in (1e-300, 0.37, 1e8, cauchy):
        orbit = boole_orbit(x0, 2000)
        assert abs(orbit[0] - x0) <= 4 * np.spacing(abs(x0)), x0
        theta = _theta(orbit)
        step = (2.0 * theta[:-1] - theta[1:]) % 1.0
        assert np.minimum(step, 1.0 - step).max() <= 1e-15, x0
        assert boole_orbit(-x0, 2000).tobytes() == (-orbit).tobytes(), x0
        assert boole_orbit(x0, 2000).tobytes() == orbit.tobytes(), x0
        assert boole_orbit(x0, 700).tobytes() == orbit[:700].tobytes(), x0
    for zero in (0.0, -0.0):
        assert (boole_orbit(zero, 100) == 0.0).all()
    tiny = boole_orbit(1e-300, 1000)
    above = np.abs(tiny) > ergodic.HEIGHT_CAP
    assert not above[0] and above[1:969].all() and not above[969:].any()


def test_orbit_matches_its_bit_stream():
    """Point k is cot(pi theta_k)/2 to 4 ulp, theta_k the stream's bits from
    bit k evaluated in mpmath: the orbit of one real theta_0, not a float
    pseudo-orbit, which leaves it after some 50 steps."""
    from mpmath import cot, mpf, pi, workprec

    for x0 in (0.37, 1e-300, 1e22):
        n = 1200
        orbit = boole_orbit(x0, n)
        words, _, _ = ergodic._orbit_stream(abs(x0), n)
        bits = 64 * len(words)
        stream = int.from_bytes(words.astype(">u8").tobytes(), "big")
        with workprec(bits + 64):
            for k in range(0, n, 7):
                ref = float(cot(pi * mpf((stream << k) % (1 << bits)) / (1 << bits)) / 2)
                assert abs(orbit[k] - ref) <= 4 * np.spacing(abs(ref)), (x0, k)


def test_invariance_e0_exact():
    r = invariance_check([(0, 1.0)], samples=10_000)
    assert r["direct_mean"] == pytest.approx(1.0)
    assert r["pushforward_mean"] == pytest.approx(1.0)


def test_invariance_e1_and_re_e2():
    r1 = invariance_check([(1, 1.0)], samples=1_000_000)
    assert r1["within_3se"]
    assert abs(r1["direct_mean"]) < 5 * r1["standard_error"] + 1e-3
    r2 = invariance_check([(2, 0.5), (-2, 0.5)], samples=1_000_000)  # Re e_2
    assert r2["within_3se"]


def test_predictions_from_table(crit):
    assert prediction_from_table([(-5, 1.0)], crit) == pytest.approx(float(crit.value(5)))
    assert prediction_from_table([(1, 1.0)], crit) == pytest.approx(-1.0)
    assert prediction_from_table([(0, 1.0)], crit) == pytest.approx(float(crit.value(0)))
    assert prediction_from_table([(3, 1.0)], crit) == 0


def test_birkhoff_run_structure(crit):
    run = birkhoff_average([(0, 1.0)], 0.37, 4000, crit, checkpoints=[1000, 2000])
    assert run.checkpoints == (1000, 2000, 4000)
    assert len(run.estimates) == 3
    assert run.prediction == pytest.approx(float(crit.value(0)))
    csv = run.to_csv()
    assert csv.splitlines()[0].startswith("checkpoint_N")
    assert len(csv.splitlines()) == 4


def test_birkhoff_rejects_empty_runs(crit):
    with pytest.raises(ValueError):
        birkhoff_average([(0, 1.0)], 0.37, 0, crit)
    with pytest.raises(ValueError):
        birkhoff_average([(0, 1.0)], 0.37, 100, crit, checkpoints=[50, 200])


def test_birkhoff_averages_share_one_orbit(crit):
    """Each run of the several-observable call equals the one-observable
    call bit for bit, across a chunk boundary and a checkpoint in each chunk."""
    observables = [[(0, 1.0)], [(-1, 1.0)], [(-5, 1.0), (2, 0.5j)]]
    n = 60_000
    runs = birkhoff_averages(observables, 1.234, n, crit, checkpoints=[100, 55_000], seed=3)
    for terms, run in zip(observables, runs):
        assert run == birkhoff_average(terms, 1.234, n, crit, checkpoints=[100, 55_000], seed=3)
        assert len(run.estimates) == 3


def test_birkhoff_chunks_equal_one_orbit(crit):
    """Across three orbit chunks, the running means are the plain means of
    the observable over boole_orbit, at a checkpoint inside the second chunk
    and at the end."""
    n = 120_000
    assert -(-n // ergodic._ORBIT_CHUNK) == 3
    terms = [(0, 1.0)]
    run = birkhoff_average(terms, 0.37, n, crit, checkpoints=[60_000])
    orbit = boole_orbit(0.37, n)
    for ck, est in zip(run.checkpoints, run.estimates):
        x = orbit[:ck][np.abs(orbit[:ck]) <= ergodic.HEIGHT_CAP]
        mean = (fastzeta.zeta_critical(x) * basis_combination_value(terms, x)).mean()
        assert abs(est - mean) < 1e-12, ck


def test_birkhoff_checkpoint_is_a_shorter_run(crit):
    """The estimate at a checkpoint is the final estimate of a run that ends
    there, bit for bit, on either side of numpy's 256 KiB temporary-elision
    threshold: 16,000 complex values lie below it and 17,000 above."""
    terms = [(-5, 1), (2, 0.5j)]
    long = birkhoff_average(terms, 0.37, 17_000, crit, checkpoints=[16_000])
    short = birkhoff_average(terms, 0.37, 16_000, crit)
    assert long.checkpoints == (16_000, 17_000)
    assert long.estimates[0] == short.final_estimate


def test_birkhoff_skip_path_across_chunks(crit):
    """A start above the cap skips its leading points, all in the first of
    two orbit chunks: the running means at a checkpoint in each chunk and at
    the end are the plain means over the kept points, and `skipped` counts the
    points above the cap."""
    n, x0 = 60_000, 1e9
    assert ergodic._ORBIT_CHUNK < n <= 2 * ergodic._ORBIT_CHUNK
    orbit = boole_orbit(x0, n)
    above = np.abs(orbit) > ergodic.HEIGHT_CAP
    assert above[:ergodic._ORBIT_CHUNK].sum() == above.sum() > 0
    terms = [(-1, 1.0)]
    run = birkhoff_average(terms, x0, n, crit, checkpoints=[10, 55_000])
    assert run.checkpoints == (10, 55_000, n)
    assert run.skipped == above.sum()
    for ck, est in zip(run.checkpoints, run.estimates):
        x = orbit[:ck][~above[:ck]]
        mean = (fastzeta.zeta_critical(x) * basis_combination_value(terms, x)).mean()
        assert abs(est - mean) < 1e-12, ck


def _basis_reference(terms, t):
    """The complex-arithmetic form of e_m: u = (r - 1) - 2j (r t), its powers
    summed onto zeros."""
    with np.errstate(over="ignore"):
        r = 2.0 / (1.0 + 4.0 * t * t)
    u = (r - 1.0) - 2j * (r * t)
    acc = np.zeros(len(t), dtype=complex)
    for m, a in terms:
        p = np.full(len(t), complex(a))
        for _ in range(abs(m)):
            p *= u if m > 0 else u.conj()
        acc += p
    return acc


@pytest.mark.parametrize("terms", [[(0, 1.0)], [(0, -0.0)], [(1, 1.0)], [(-1, 1.0)], [(-5, 1.0)],
                                   [(3, 2.0 - 1.0j)], [(-5, 1.0), (2, 0.5j)], [(0, 1.0), (-2, 1.0)],
                                   [(40, 1.0)]])
def test_basis_is_bitwise_the_complex_form(terms):
    """basis_combination_value, which builds u in its real and imaginary rows
    and skips it when every m is 0, equals the complex form bit for bit,
    signed zeros included, at 0, -0.0, heights where 4t^2 overflows and
    Cauchy samples."""
    t = np.concatenate([[0.0, -0.0, 1e160, -1e160, -1e300, 0.5, -0.5],
                        cauchy_half_sample(np.random.default_rng(31), 20_000)])
    assert basis_combination_value(terms, t).tobytes() == _basis_reference(terms, t).tobytes()


@pytest.mark.parametrize("m", [1, -1, 2, -5, 17, -40, 40])
def test_rational_basis_matches_the_exp_form(m):
    """e_m = u^m with u = (1 - 2it)/(1 + 2it) is exp(-2im arctan 2t) within
    3e-14 on 1e5 Cauchy points, and -1 to the m at heights where 4t^2
    overflows."""
    t = cauchy_half_sample(np.random.default_rng(29), 100_000)
    ref = np.exp(-2j * m * np.arctan(2.0 * t))
    assert np.abs(basis_combination_value([(m, 1.0)], t) - ref).max() <= 3e-14
    far = basis_combination_value([(m, 1.0)], np.array([1e160, -1e300]))
    assert np.array_equal(far, np.full(2, (-1.0) ** m))


def test_zeta_critical_on_mixed_signs_is_two_calls():
    """One zeta_critical call on signed heights, which conjugates t < 0,
    equals bit for bit the two-call form on a mixed-sign orbit that reaches
    every route."""
    t = boole_orbit(0.37, 20_000)
    t = t[np.abs(t) <= ergodic.HEIGHT_CAP]
    assert (t < 0).any() and (t >= 0).any() and np.abs(t).max() >= fastzeta.RS_CROSSOVER
    ref = np.empty(len(t), dtype=complex)
    pos = t >= 0
    ref[pos] = fastzeta.zeta_critical(t[pos])
    ref[~pos] = np.conj(fastzeta.zeta_critical(-t[~pos]))
    assert fastzeta.zeta_critical(t).tobytes() == ref.tobytes()


def test_birkhoff_conjugate_estimates(crit):
    """T is odd and e_m(-t) = conj(e_m(t)), so the mirrored orbit produces
    exactly conjugate running means for the same observable (bit-exact in
    floating point, since the mirrored orbit is the exact negation)."""
    run_p = birkhoff_average([(3, 1.0)], 1.234, 20_000, crit, checkpoints=[5000])
    run_m = birkhoff_average([(3, 1.0)], -1.234, 20_000, crit, checkpoints=[5000])
    assert run_p.skipped == run_m.skipped
    for a, b in zip(run_p.estimates, run_m.estimates):
        assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_orbit_distribution_ks():
    ks = orbit_vs_cauchy_ks(0.37, 1_000_000)
    assert ks <= 0.01


def test_birkhoff_converges_toward_prediction(crit):
    """Single-seed sanity at modest length: the running mean should end
    closer to the prediction than a deliberately wrong constant."""
    rng = np.random.default_rng(5)
    x0 = float(cauchy_half_sample(rng, 1)[0])
    run = birkhoff_average([(0, 1.0)], x0, 120_000, crit, checkpoints=[30_000])
    final = run.final_estimate.real
    assert abs(final - run.prediction.real) < 0.25


def test_skip_counter_reports(crit):
    run = birkhoff_average([(0, 1.0)], 0.37, 30_000, crit)
    assert run.skipped >= 0
    assert run.skipped < 30_000 // 100
    assert "machine precision" in run.precision
