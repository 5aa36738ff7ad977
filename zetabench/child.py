"""One zetabench child process: set up, run one role's operations, check them.

    python3 zetabench/child.py ROLE --workload W --seed N [--trace 0|1]
                               [--trace-out FILE] [--smoke]

run.py starts every child with PYTHONPATH=src, single-threaded BLAS and
OpenMP, and its own ZETALINE_CACHE_DIR.  Roles:

  setup       the workload's set-up only (imports; for orbits the warm table)
  table       tables: `zetaline coeffs --nmax 20 --digits 63`, cold
  roots       tables: reload that table from the disk cache, f_10..f_20 root reports,
              then the same reports for f_N(z / DILATION), whose roots lie inside the disk
  identities  identity_coffey, log_integral_disk, bsy_integral
  orbits      Birkhoff averages of e_0, e_-1, e_-5 along Boole orbits
  probes      traced runs only: per-evaluation timings of the two kernels

The last line on stdout is one JSON object: ``ready`` (monotonic clock when
set-up ended), ``ops`` (name, seconds, check failures, error), ``rss_kb``,
``layers`` (traced runs), ``probes`` and ``info``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TABLE_N, TABLE_DIGITS = 20, 63          # reserve: 60 + ceil(0.15 * 20) digits
ROOT_DEGREES = range(10, TABLE_N + 1)   # root reports of f_10..f_20 from that table
ORBIT_N, ORBIT_DIGITS = 5, 61           # ell_0..ell_5 for the three observables
OBSERVABLES = (0, -1, -5)               # e_m pairs with ell_{-m}
CERT_RADIUS = 0.5
# f_10..f_20 have no root in the unit disk (every modulus is at least 1.11), so
# their winding counts are all 0.  The roots of f_N(z / DILATION) are DILATION
# times theirs, with moduli 0.69..0.97: inside the disk, where the winding
# counts have something to count.
DILATION = 0.625
RADIUS_MARGIN = 0.015
# The contour that builds the table evaluates zeta at this working precision
# (zeta._stieltjes_cached: digits + max(10, ceil(0.05 k) + 10), plus 10).
CONTOUR_DPS = TABLE_DIGITS + max(10, math.ceil(0.05 * TABLE_N) + 10) + 10

SIZES = {
    False: {
        "coffey": {"T1": 6.0, "T2": 2.0e4},
        "log_disk": {"T1": 6.0, "T2": 2.0e3},
        "bsy": {"T_cutoff": 2000.0, "T1": 6.0},
        "orbit_points": 20, "orbit_steps": 50_000,
        "probe_d35": 32, "probe_contour": 16, "probe_em": 20_000, "probe_rs": 100_000,
    },
    True: {   # --smoke: the same operations on tiny inputs, tables warm
        "coffey": {"T1": 1.0, "T2": 6.0e3},
        "log_disk": {"T1": 1.0, "T2": 600.0},
        "bsy": {"T_cutoff": 300.0, "T1": 1.0},
        "orbit_points": 8, "orbit_steps": 5_000,
        "probe_d35": 2, "probe_contour": 2, "probe_em": 200, "probe_rs": 1_000,
    },
}


def probe_radii(seed: int, refs: dict, N: int, count: int = 3) -> tuple:
    """Winding-count radii for f_N in [0.3, 0.99].

    Each radius is kept RADIUS_MARGIN away from every root modulus of
    f_N(z / DILATION), where winding_count could refuse the circle as too close.
    """
    rng = np.random.default_rng([seed, 1, N])
    moduli = [DILATION * m for m in refs["fN_root_moduli"][str(N)]]
    out = []
    while len(out) < count:
        r = round(float(rng.uniform(0.3, 0.99)), 6)
        if all(abs(r - m) > RADIUS_MARGIN for m in moduli):
            out.append(r)
    return tuple(sorted(out))


def dilated(table):
    """The table of f_N(z / DILATION): ell_n divided by DILATION^(n+1)."""
    from dataclasses import replace
    from mpmath import mpf, workdps

    with workdps(table.digits + 10):
        rho = mpf(DILATION)
        values = tuple(v / rho ** (n + 1) if n >= 0 else v
                       for n, v in enumerate(table.values, start=table.n_min))
    return replace(table, values=values)


def orbit_starts(seed: int, count: int) -> list:
    """Starting points drawn from Cauchy(0, 1/2), the Boole map's invariant law."""
    u = np.random.default_rng([seed, 2]).random(count)
    return [float(x) for x in 0.5 * np.tan(np.pi * (u - 0.5))]


def seed_stieltjes_cache(k_max: int, digits: int, refs: dict) -> None:
    """Write mpmath's gamma_0..gamma_k_max where zetaline's cache looks for them."""
    from mpmath import mpf
    from zetaline import cache

    key = f"stieltjes_k{k_max}_d{digits}"
    cache.store_values(key, digits, refs["stieltjes"][: k_max + 1])
    cache.store_values(key + "_err", digits, [mpf(0)] * (k_max + 1))


def set_up(workload: str, role: str, smoke: bool, refs: dict) -> dict:
    """Everything a role pays before its first timed operation."""
    import zetaline
    import zetaline.cli  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(zetaline.__file__).resolve().parents:
        raise SystemExit(f"zetaline imported from {zetaline.__file__}, not from {src}")
    state = {}
    if workload == "orbits":
        from zetaline import PrecisionCtx, coeffs_critical, stieltjes

        seed_stieltjes_cache(ORBIT_N, ORBIT_DIGITS, refs)
        p = PrecisionCtx(ORBIT_DIGITS)
        state["table"] = coeffs_critical(ORBIT_N, stieltjes(ORBIT_N, p), p)
    if smoke and role == "table":
        seed_stieltjes_cache(TABLE_N, TABLE_DIGITS, refs)
    if smoke and role == "identities":
        seed_stieltjes_cache(0, 30, refs)   # log_integral_disk reads gamma_0 from a 30-digit table
    return state


def parse_table_json(text: str) -> dict:
    from mpmath import mpf, workdps

    with workdps(checks.CHECK_DPS):
        return {int(e["n"]): mpf(e["value"]) for e in json.loads(text)["values"]}


def run_ops(role: str, seed: int, smoke: bool, refs: dict, state: dict, timed):
    """Yield (name, times, failures) for each operation of the role.

    ``timed(name, fn)`` runs fn and returns (result, times); the checks run
    outside the timed call.
    """
    from zetaline import cli, coefficients, ergodic, quadrature, roots, zeta
    from zetaline.precision import PrecisionCtx

    size = SIZES[smoke]
    if role == "table":
        out = io.StringIO()

        def build():
            with contextlib.redirect_stdout(out):
                return cli.main(["coeffs", "--nmax", str(TABLE_N), "--digits", str(TABLE_DIGITS)])

        rc, times = timed("critical_table", build)
        fails = [f"zetaline coeffs exited {rc}"] if rc != 0 else checks.check_critical_table(
            parse_table_json(out.getvalue()), refs, TABLE_N, TABLE_DIGITS)
        yield "critical_table", times, fails
    elif role == "roots":
        radii = {n: probe_radii(seed, refs, n) for n in ROOT_DEGREES}

        def report():
            p = PrecisionCtx(TABLE_DIGITS)
            table = coefficients.coeffs_critical(TABLE_N, zeta.stieltjes(TABLE_N, p), p)
            inner = dilated(table)
            return [(roots.roots_fN(n, table, p, probe_radii=radii[n]),
                     roots.tail_radius_certificate(n, CERT_RADIUS, table),
                     roots.roots_fN(n, inner, p, probe_radii=radii[n])) for n in ROOT_DEGREES]

        reports, times = timed("roots", report)
        fails = []
        for n, (rep, cert, inner) in zip(ROOT_DEGREES, reports):
            fails += checks.check_roots(n, rep.winding_counts, rep.roots_in_disk, rep.all_roots, refs)
            fails += checks.check_roots(n, inner.winding_counts, inner.roots_in_disk,
                                        inner.all_roots, refs, dilation=DILATION)
            if not cert.tail_bound >= 0:
                fails.append(f"f_{n}: negative tail bound {cert.tail_bound}")
        yield "roots", times, fails
    elif role == "identities":
        r, times = timed("coffey", lambda: quadrature.identity_coffey(**size["coffey"]))
        yield "coffey", times, checks.check_coffey(r.value, r.est_error, refs)
        r, times = timed("log_disk", lambda: quadrature.log_integral_disk(**size["log_disk"]))
        yield "log_disk", times, checks.check_log_disk(r.value, refs)
        r, times = timed("bsy", lambda: quadrature.bsy_integral(**size["bsy"]))
        yield "bsy", times, checks.check_bsy(r.value, r.notes["zeros_used"], r.notes["uncovered"],
                                            size["bsy"]["T_cutoff"], refs)
    elif role == "orbits":
        starts = orbit_starts(seed, size["orbit_points"])
        for m in OBSERVABLES:
            name = f"birkhoff_e{m}"
            runs, times = timed(name, lambda: [
                ergodic.birkhoff_average([(m, 1.0)], x0, size["orbit_steps"], state["table"], seed=seed)
                for x0 in starts])
            yield name, times, checks.check_orbits(
                -m, [r.final_estimate.real for r in runs], [r.prediction.real for r in runs], refs)


def run_probes(smoke: bool) -> dict:
    """Per-evaluation cost of the mp Euler-Maclaurin kernel and of fastzeta.

    The probe points are fixed grids, so the figures compare across seeds.
    """
    from mpmath import mpc, mpf
    from zetaline import fastzeta
    from zetaline.precision import PrecisionCtx
    from zetaline.zeta import zeta_em

    size = SIZES[smoke]
    out = {}

    def per_eval_ms(points, digits):
        p = PrecisionCtx(digits)
        zeta_em(points[0], p)   # Bernoulli numbers and the factor sieve are cached per process
        t0 = time.process_time()
        for s in points:
            zeta_em(s, p)
        return (time.process_time() - t0) / len(points) * 1e3

    heights = np.linspace(0.0, 60.0, size["probe_d35"])
    out["zeta.em_ms.d35"] = per_eval_ms([mpc(mpf("0.5"), float(t)) for t in heights], 25)
    # the arc of |s - 1| = 3 that lies inside zeta_em's region Re s > -1
    arc = [mpc(1 + 3 * math.cos(a), 3 * math.sin(a))
           for a in np.linspace(-2.2, 2.2, size["probe_contour"])]
    out[f"zeta.em_ms.d{CONTOUR_DPS}"] = per_eval_ms(arc, CONTOUR_DPS - 10)
    for name, fn, lo, hi, n in (
        ("fastzeta.em_pts_per_s", fastzeta.zeta_em_line, 60.0, 600.0, size["probe_em"]),
        ("fastzeta.rs_pts_per_s", fastzeta.zeta_rs_line, 600.0, 2.0e4, size["probe_rs"]),
    ):
        t = np.linspace(lo, hi, n)
        t0 = time.process_time()
        fn(t)
        out[name] = n / (time.process_time() - t0)
    return out


def machine_info() -> dict:
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "table", "roots", "identities", "orbits", "probes"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:   # traced runs also trace set-up, so the orbits table load shows
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    refs = checks.load_refs()
    state = set_up(args.workload, args.role, args.smoke, refs)
    result = {"ready": time.monotonic(), "setup_cpu": time.process_time(),
              "ops": [], "layers": {}, "probes": {}}

    def timed(name, fn):
        w0, c0 = time.perf_counter(), time.process_time()
        value = tracer.span(f"op.{name}", fn) if tracer else fn()
        return value, {"seconds": time.process_time() - c0, "wall": time.perf_counter() - w0}

    if args.role == "setup":
        result["info"] = machine_info()
    elif args.role == "probes":
        result["probes"] = run_probes(args.smoke)
    else:
        if args.role == "orbits":
            result["points_per_op"] = SIZES[args.smoke]["orbit_points"] * SIZES[args.smoke]["orbit_steps"]
        ops = run_ops(args.role, args.seed, args.smoke, refs, state, timed)
        while True:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                name, times, fails = next(ops)
            except StopIteration:
                break
            except Exception as exc:  # the operation raised: count it, keep the report
                result["ops"].append({"name": f"{args.role}#{len(result['ops'])}",
                                      "seconds": time.process_time() - c0,
                                      "wall": time.perf_counter() - w0,
                                      "failures": [], "error": f"{type(exc).__name__}: {exc}"})
                break
            result["ops"].append({"name": name, **times, "failures": fails, "error": None})
    if tracer:
        result["layers"] = tracer.layer_metrics()
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
