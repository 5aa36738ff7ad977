"""The runnable acceptance suite: thirteen standalone criteria.

Each criterion pins its tolerance in code, prints one PASS/FAIL line through
:func:`run_all`, and returns enough detail to diagnose a failure.  The
asymptotic o(.) statements are exercised as diagnostics only (criterion 13):
they carry no pass/fail threshold beyond the existence and monotonicity of
the reported data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from mpmath import mp, mpc, mpf, workdps

from . import coefficients as C
from . import ergodic as E
from . import quadrature as Q
from . import roots as R
from . import series as S
from . import zeta as Z
from .precision import PrecisionCtx

TARGET_HNORM = C.PARSEVAL_SQ_CEILING
with workdps(40):
    TARGET_COFFEY = str(1 + mpf(TARGET_HNORM))
    TARGET_PHI_L2 = str(mp.pi * mpf(TARGET_HNORM))

MASTER_DIGITS = 120
MASTER_NMAX = 400


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] criterion {self.index:2d}: {self.name} {extra}"


@lru_cache(maxsize=1)
def _ctx50_tables():
    ctx = PrecisionCtx(50)
    series = Z.stieltjes(100, ctx)
    limit = Z.stieltjes_limit_oracle(20, ctx)
    return series, limit


@lru_cache(maxsize=1)
def _ctx65_critical():
    ctx = PrecisionCtx(66)
    gam = Z.stieltjes(100, ctx)
    return C.coeffs_critical(40, gam, ctx), gam, ctx


@lru_cache(maxsize=1)
def _master_table():
    ctx = PrecisionCtx(MASTER_DIGITS)
    gam = Z.stieltjes(MASTER_NMAX, ctx)
    return C.coeffs_critical(MASTER_NMAX, gam, ctx), ctx


@lru_cache(maxsize=1)
def _line075_table():
    ctx = PrecisionCtx(66)
    return C.coeffs_line(mpf("0.75"), -30, 40, ctx), ctx


def criterion_1() -> CriterionResult:
    """Stieltjes oracle equivalence + Berndt bound."""
    t0 = time.time()
    series, limit = _ctx50_tables()
    with workdps(70):
        worst = max(abs(series.gammas[k] - limit[k]) for k in range(21))
        berndt = all(Z.berndt_bound_holds(series.gammas[k], k) for k in range(1, 101))
    passed = worst <= mpf("1e-20") and berndt
    return CriterionResult(1, "stieltjes series pass vs limit oracle, Berndt bound", bool(passed),
                           {"worst_gamma_diff": f"{float(worst):.2e}", "berndt_1_100": berndt},
                           time.time() - t0)


def criterion_2() -> CriterionResult:
    """Coefficient formula vs quadrature, critical and sigma0 = 0.75."""
    t0 = time.time()
    crit, gam, ctx = _ctx65_critical()
    ns = list(range(-1, 31))
    qc = Q.moment_oracle(ns)
    with workdps(70):
        worst_c = max(abs(qc[n] - crit.value(n)) for n in ns)
    line, lctx = _line075_table()
    ql = Q.moment_oracle(list(range(-10, 31)), sigma0=0.75)
    with workdps(70):
        worst_l = max(abs(ql[n] - line.value(n)) for n in range(-10, 31))
    passed = worst_c <= mpf("1e-8") and worst_l <= mpf("1e-8")
    return CriterionResult(2, "coefficient oracle equivalence (critical, line 0.75)", bool(passed),
                           {"worst_critical": f"{float(worst_c):.2e}",
                            "worst_line075": f"{float(worst_l):.2e}"},
                           time.time() - t0)


def criterion_3() -> CriterionResult:
    """Series representation against Euler-Maclaurin on the grid."""
    t0 = time.time()
    table, mctx = _master_table()
    ctx = PrecisionCtx(40)
    with workdps(60):
        v_series = S.zeta_via_series(2, table, mpf("1e-14"), ctx)
        v_em = Z.zeta_em(2, ctx)
        d2 = abs(v_series - v_em)
        worst = mpf(0)
        routes = []
        for sig in ("0.6", "0.75", "1.5", "3"):
            for tt in ("0", "1", "10", "50"):
                s = mpf(sig) + 1j * mpf(tt)
                a, info = S.zeta_via_series(s, table, mpf("1e-8"), ctx, return_info=True)
                routes.append(info.route)
                worst = max(worst, abs(a - Z.zeta_em(s, ctx)))
    passed = d2 <= mpf("1e-12") and worst <= mpf("1e-6")
    # the other grid points take the closed form, i.e. the EM kernel itself
    return CriterionResult(3, "series representation vs Euler-Maclaurin", bool(passed),
                           {"diff_at_2": f"{float(d2):.2e}", "worst_grid": f"{float(worst):.2e}",
                            "series_points": f"{routes.count('direct-sum')}/{len(routes)}"},
                           time.time() - t0)


def criterion_4() -> CriterionResult:
    """Parseval: quadrature of the squared boundary norm + partial-sum dominance."""
    t0 = time.time()
    q = Q.identity_hnorm()
    table, _ = _master_table()
    diag = C.decay_diagnostics(table)
    with workdps(40):
        target = mpf(TARGET_HNORM)
        err = abs(mpf(q.value) - target)
        ceiling_ok = all(
            sq <= mpf(q.value) + mpf(repr(q.est_error)) + mpf(repr(q.trunc_bound))
            for sq in diag.sq_partial_sums
        )
        nondec = all(
            diag.sq_partial_sums[i] <= diag.sq_partial_sums[i + 1]
            for i in range(len(diag.sq_partial_sums) - 1)
        )
    passed = err <= mpf("1e-4") and ceiling_ok and nondec
    return CriterionResult(4, "Parseval value and partial-sum dominance", bool(passed),
                           {"quad_minus_target": f"{float(err):.2e}",
                            "partials_below_value+bounds": ceiling_ok,
                            "nondecreasing": nondec},
                           time.time() - t0)


def criterion_5() -> CriterionResult:
    """The squared-modulus integral on the critical line."""
    t0 = time.time()
    q = Q.identity_coffey()
    with workdps(40):
        err = abs(mpf(q.value) - mpf(TARGET_COFFEY))
    passed = err <= mpf("1e-3") and q.trunc_bound > 0
    return CriterionResult(5, "second-moment identity (log 2pi - gamma0)", bool(passed),
                           {"abs_err": f"{float(err):.2e}",
                            "trunc_bound": f"{q.trunc_bound:.2e}"},
                           time.time() - t0)


def criterion_6() -> CriterionResult:
    """Cross moments: closed form vs series route vs quadrature at 0.75."""
    t0 = time.time()
    ctx = PrecisionCtx(30)
    crit, _, cctx = _ctx65_critical()
    line, _ = _line075_table()
    wow = Q.cross_moment_wow(mpf("0.75"), ctx)
    core = Q.cross_moment_closed_form(line, crit, ctx, tol=mpf("1e-13"))
    quad = Q.cross_line_quadrature(0.75, 0.5)
    with workdps(40):
        d_series = abs(wow - core)
        d_quad = abs(wow - mpf(quad.value))
    passed = d_series <= mpf("1e-8") and d_quad <= mpf("1e-4")
    return CriterionResult(6, "cross moment closed form vs series vs quadrature", bool(passed),
                           {"wow_vs_core": f"{float(d_series):.2e}",
                            "wow_vs_quad": f"{float(d_quad):.2e}"},
                           time.time() - t0)


def criterion_7() -> CriterionResult:
    """Cauchy-Schwarz bound at the 9 grid points."""
    t0 = time.time()
    ctx = PrecisionCtx(30)
    results = []
    for sig in ("0.6", "1", "2"):
        for tt in ("0", "10", "100"):
            r = S.cs_bound_check(mpf(sig) + 1j * mpf(tt), ctx)
            results.append(r["holds"])
    passed = all(results)
    return CriterionResult(7, "Cauchy-Schwarz bound on the 3x3 grid", bool(passed),
                           {"holds": f"{sum(results)}/9"}, time.time() - t0)


def criterion_8() -> CriterionResult:
    """Disk zero-freeness: winding numbers and the Rouche tail certificate."""
    t0 = time.time()
    table, mctx = _master_table()
    windings = {}
    for N in (50, 100, 200):
        windings[N] = R.winding_count(N, 0.8, 4096, table)
    cert = R.tail_radius_certificate(100, mpf("0.5"), table)
    passed = all(w == 0 for w in windings.values()) and cert.conclusive
    return CriterionResult(8, "winding counts at 0.8 and tail certificate at 0.5", bool(passed),
                           {"windings": windings,
                            "certificate": cert.conclusive,
                            "tail_bound": f"{float(cert.tail_bound):.1e}",
                            "min_f_on_circle": f"{float(cert.min_fN_on_circle):.3f}"},
                           time.time() - t0)


def criterion_9() -> CriterionResult:
    """Logarithmic integrals: disk integral window and the zero-sum integral."""
    t0 = time.time()
    disk = Q.log_integral_disk()
    with workdps(40):
        lo = mpf(repr(disk.notes["lower_bound_log1mgamma0"])) - mpf("1e-3")
        hi = mpf(repr(disk.notes["jensen_ceiling"])) + mpf("1e-3")
        in_window = lo <= mpf(disk.value) <= hi
    bsy = Q.bsy_integral(10_000.0)
    bsy_ok = abs(float(bsy.value)) <= 1e-2 and not bsy.notes["uncovered"]
    passed = bool(in_window and bsy_ok)
    return CriterionResult(9, "log integrals: disk window + zero-sum near 0", passed,
                           {"disk_value": f"{float(disk.value):.6f}",
                            "blaschke_excess": f"{disk.notes['blaschke_excess']:.4f}",
                            "bsy_value": f"{float(bsy.value):.2e}",
                            "zeros_used": bsy.notes["zeros_used"]},
                           time.time() - t0)


def criterion_10() -> CriterionResult:
    """phi identities and the half-line L2 value."""
    t0 = time.time()
    table, mctx = _master_table()
    ctx = PrecisionCtx(40)
    with workdps(60):
        worst = mpf(0)
        for s in (mpc(2), mpc(3), mpc("0.75", "2")):
            lhs = -s * S.phi(s, ctx)
            rhs, info = S.eval_h(S.cayley_inv(s), table, mpf("5e-11"), ctx, return_info=True)
            worst = max(worst, abs(lhs - rhs))
            route = info.route
    q = Q.phi_l2_halfline()
    with workdps(40):
        l2_err = abs(mpf(q.value) - mpf(TARGET_PHI_L2))
    passed = worst <= mpf("1e-10") and l2_err <= mpf("1e-3")
    return CriterionResult(10, "phi identity chain and phi L2 half-line value", bool(passed),
                           {"worst_identity": f"{float(worst):.2e}",
                            "last_route": route,
                            "l2_err": f"{float(l2_err):.2e}"},
                           time.time() - t0)


def criterion_11() -> CriterionResult:
    """Power coefficients: k=1 reduction and k=2 against quadrature."""
    t0 = time.time()
    crit, gam, ctx = _ctx65_critical()
    pw1 = C.coeffs_power(1, -1, 30, ctx)
    with workdps(70):
        worst1 = max(abs(pw1.value(n) - crit.value(n)) for n in range(-1, 31))
    pw2 = C.coeffs_power(2, -2, 10, ctx)
    q2 = Q.moment_oracle(list(range(-2, 11)), power=2)
    with workdps(70):
        worst2 = max(abs(q2[n] - pw2.value(n)) for n in range(-2, 11))
    passed = worst1 <= mpf("1e-20") and worst2 <= mpf("1e-6")
    return CriterionResult(11, "power-family reduction (k=1) and quadrature (k=2)", bool(passed),
                           {"worst_k1": f"{float(worst1):.2e}", "worst_k2": f"{float(worst2):.2e}"},
                           time.time() - t0)


def criterion_12() -> CriterionResult:
    """Ergodic averages: median across seeds vs prediction; invariance checks."""
    t0 = time.time()
    crit, _, _ = _ctx65_critical()
    n_iter = 200_000
    seeds = 20
    ms = (0, 1, 5)
    finals = {m: [] for m in ms}
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        x0 = float(E.cauchy_half_sample(rng, 1)[0])
        runs = E.birkhoff_averages([[(-m, 1.0)] for m in ms], x0, n_iter, crit, seed=seed)
        for m, run in zip(ms, runs):
            finals[m].append(run.final_estimate.real)
    results = {}
    ok = True
    for m, run in zip(ms, runs):
        med = float(np.median(finals[m]))
        err = abs(med - run.prediction.real)
        results[f"m{m}"] = f"med {med:+.4f} vs {run.prediction.real:+.4f} (err {err:.3f})"
        ok &= err <= 0.05
    inv1 = E.invariance_check([(1, 1.0)])
    inv2 = E.invariance_check([(2, 1.0)])
    ok &= inv1["within_3se"] and inv2["within_3se"]
    return CriterionResult(12, "Birkhoff medians within 0.05; invariance within 3 SE", bool(ok),
                           {**results, "inv_e1": inv1["within_3se"], "inv_e2": inv2["within_3se"]},
                           time.time() - t0)


def criterion_13() -> CriterionResult:
    """Asymptotics covered by diagnostics only: report fields exist, no
    pass/fail thresholds are attached to the o(.) claims."""
    t0 = time.time()
    table, _ = _master_table()
    diag = C.decay_diagnostics(table)
    abs_increasing = all(
        diag.abs_partial_sums[i] < diag.abs_partial_sums[i + 1]
        for i in range(len(diag.abs_partial_sums) - 1)
    )
    finite_fit = math.isfinite(diag.alpha_fit)
    passed = bool(abs_increasing and finite_fit)
    return CriterionResult(13, "decay/divergence diagnostics present (no asymptotic pass/fail)",
                           passed,
                           {"alpha_fit": f"{diag.alpha_fit:.3f}",
                            "abs_sums_strictly_increasing": abs_increasing,
                            "final_abs_sum": f"{float(diag.abs_partial_sums[-1]):.3f}"},
                           time.time() - t0)


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_all() -> list:
    return [fn() for fn in ALL_CRITERIA]
