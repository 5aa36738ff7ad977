import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaline.coefficients import coeffs_critical
from zetaline import ergodic, fastzeta
from zetaline.ergodic import (
    basis_combination_value,
    birkhoff_average,
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


def test_orbit_is_repeated_boole_step():
    """boole_orbit inlines boole_step; the orbit is the same bit for bit,
    from 0.0 and -0.0 (both fixed at +0.0), from 1e-300 (first step to
    -1.25e299, then halving for ~990 steps) and from a Cauchy start."""
    starts = [0.0, -0.0, 1e-300, float(cauchy_half_sample(np.random.default_rng(11), 1)[0])]
    for x0 in starts:
        orbit = boole_orbit(x0, 2000)
        x = x0
        for i, v in enumerate(orbit):
            assert np.float64(x).tobytes() == v.tobytes(), (x0, i)
            x = boole_step(x)


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
        mean = (ergodic._zeta_at_heights(x) * basis_combination_value(terms, x)).mean()
        assert abs(est - mean) < 1e-12, ck


def test_zeta_at_heights_is_two_calls():
    """One zeta_critical call on |t|, conjugated where t < 0, equals bit for
    bit the two-call form on a mixed-sign orbit that reaches every route."""
    t = boole_orbit(0.37, 20_000)
    t = t[np.abs(t) <= ergodic.HEIGHT_CAP]
    assert (t < 0).any() and (t >= 0).any() and np.abs(t).max() >= fastzeta.RS_CROSSOVER
    ref = np.empty(len(t), dtype=complex)
    pos = t >= 0
    ref[pos] = fastzeta.zeta_critical(t[pos])
    ref[~pos] = np.conj(fastzeta.zeta_critical(-t[~pos]))
    assert ergodic._zeta_at_heights(t).tobytes() == ref.tobytes()


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
