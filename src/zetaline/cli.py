"""Command-line front end.

Subcommands map one-to-one onto the library surface:

    stieltjes --kmax K --digits D          Stieltjes table as JSON
    coeffs [--sigma S | --power K] --nmax N   coefficient table JSON/CSV
    eval --sigma S --t T [--method em|series|both]
    parseval --nmax N                      partial sums vs the quadrature value
    quad <coffey|hnorm|cross|log-disk|bsy|phi-l2> [--a A --b B]
    roots --nmax N --radii 0.5,0.8,0.9
    ergodic --g em:INDEX --iters N --seeds S
    verify-all                             full acceptance suite

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 precision/tolerance unreachable.  All numbers serialize as decimal
strings; reruns with identical options produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from mpmath import mpf, workdps

from .precision import PrecisionCtx, PrecisionUnachievableError, hreal_to_str
from . import coefficients as coeffs_mod
from . import quadrature as quad_mod
from . import zeta as zeta_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _table_for(n_max: int, digits: int | None = None, sigma=None, power=None):
    """The coefficient table through n_max; digits default to the reserve, at least 66."""
    ctx = PrecisionCtx(digits or max(66, coeffs_mod.reserve_digits(n_max)))
    if sigma is not None:
        return coeffs_mod.coeffs_line(sigma, -max(n_max, 1), n_max, ctx)
    if power is not None:
        return coeffs_mod.coeffs_power(power, -power, n_max, ctx)
    return coeffs_mod.coeffs_critical(n_max, zeta_mod.stieltjes(max(n_max, 2), ctx), ctx)


def cmd_stieltjes(args) -> int:
    ctx = PrecisionCtx(args.digits)
    table = zeta_mod.stieltjes(args.kmax, ctx)
    sys.stdout.write(table.to_json() + "\n")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    digits = args.digits or coeffs_mod.reserve_digits(args.nmax)
    table = _table_for(args.nmax, digits, sigma=args.sigma, power=args.power)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        sys.stdout.write(table.to_json() + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import series as series_mod

    digits = args.digits or 30
    ctx = PrecisionCtx(digits)
    with workdps(ctx.working()):
        s = mpf(args.sigma) + 1j * mpf(args.t)
    out = {"sigma": args.sigma, "t": args.t, "method": args.method}
    if args.method in ("em", "both"):
        v = zeta_mod.zeta_em(s, ctx)
        out["zeta_em"] = [hreal_to_str(v.real, digits), hreal_to_str(v.imag, digits)]
    if args.method in ("series", "both"):
        table = _table_for(args.nmax)
        v2 = series_mod.zeta_via_series(s, table, mpf(10) ** (-digits + 4), ctx)
        out["zeta_series"] = [hreal_to_str(v2.real, digits), hreal_to_str(v2.imag, digits)]
    if args.method == "both":
        with workdps(ctx.working()):
            d = abs(mpf(out["zeta_em"][0]) - mpf(out["zeta_series"][0])) + abs(
                mpf(out["zeta_em"][1]) - mpf(out["zeta_series"][1])
            )
        out["discrepancy"] = hreal_to_str(d, 10)
    _print_json(out)
    return EXIT_OK


def cmd_parseval(args) -> int:
    table = _table_for(args.nmax)
    diag = coeffs_mod.decay_diagnostics(table)
    q = quad_mod.identity_hnorm()
    ceiling = coeffs_mod.PARSEVAL_SQ_CEILING
    out = {
        "partial_sums_sq": [hreal_to_str(v, 20) for v in diag.sq_partial_sums[:: max(1, args.nmax // 40)]],
        "final_partial_sum": hreal_to_str(diag.sq_partial_sums[-1], 20),
        "ceiling": ceiling,
        "hnorm_quadrature": hreal_to_str(q.value, 12),
        "hnorm_est_error": f"{q.est_error:.3e}",
        "hnorm_trunc_bound": f"{q.trunc_bound:.3e}",
        "alpha_fit": diag.alpha_fit,
    }
    _print_json(out)
    return EXIT_OK


def cmd_quad(args) -> int:
    from .acceptance import TARGET_COFFEY, TARGET_HNORM, TARGET_PHI_L2

    name = args.identity
    if name == "coffey":
        r = quad_mod.identity_coffey()
        target = hreal_to_str(TARGET_COFFEY, 16)
    elif name == "hnorm":
        r = quad_mod.identity_hnorm()
        target = hreal_to_str(TARGET_HNORM, 16)
    elif name == "cross":
        if args.a is None or args.b is None:
            sys.stderr.write("quad cross requires --a and --b\n")
            return EXIT_USAGE
        r = quad_mod.cross_line_quadrature(args.a, args.b)
        a, b = mpf(args.a), mpf(args.b)
        other = b if a == 0.5 else a if b == 0.5 else None  # the closed form pairs with 1/2
        if other is not None and 0.5 <= other < 1:
            target = hreal_to_str(quad_mod.cross_moment_wow(other, PrecisionCtx(25)), 16)
        else:
            target = "n/a"
    elif name == "log-disk":
        r = quad_mod.log_integral_disk()
        target = f">= {r.notes['lower_bound_log1mgamma0']:.10f}"
    elif name == "bsy":
        supplied = None
        if args.zeros:
            from .zeros import load_ordinates

            supplied = load_ordinates(args.zeros)
        r = quad_mod.bsy_integral(args.tcut, zero_ordinates=supplied)
        target = "0"
    elif name == "phi-l2":
        r = quad_mod.phi_l2_halfline()
        target = hreal_to_str(TARGET_PHI_L2, 16)
    else:
        return EXIT_USAGE
    with workdps(30):
        val = mpf(r.value)
        payload = {
            "name": name,
            "value": hreal_to_str(val, 16),
            "target": target,
            "est_error": f"{r.est_error:.3e}",
            "trunc_bound": f"{r.trunc_bound:.3e}",
            "nodes": r.nodes_used,
        }
        if target == "0":
            payload["abs_err"] = hreal_to_str(abs(val), 6)
        elif target != "n/a" and not target.startswith(">="):
            payload["abs_err"] = hreal_to_str(abs(val - mpf(target)), 6)
    _print_json(payload)
    return EXIT_OK


def cmd_roots(args) -> int:
    from . import roots as roots_mod

    table = _table_for(args.nmax)
    radii = tuple(float(r) for r in args.radii.split(","))
    report = roots_mod.roots_fN(args.nmax, table, PrecisionCtx(table.digits), probe_radii=radii)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK


def cmd_ergodic(args) -> int:
    from . import ergodic as ergodic_mod
    import numpy as np

    observable = args.g
    if not observable.startswith("em:"):
        sys.stderr.write("observable must look like em:INDEX\n")
        return EXIT_USAGE
    if args.iters < 1 or args.seeds < 1:
        sys.stderr.write("--iters and --seeds must be at least 1\n")
        return EXIT_USAGE
    m = int(observable[3:])
    n_max = max(8, abs(m))
    table = _table_for(n_max)
    runs = []
    for seed in range(args.seeds):
        x0 = float(ergodic_mod.cauchy_half_sample(np.random.default_rng(1000 + seed), 1)[0])
        run = ergodic_mod.birkhoff_average([(m, 1.0)], x0, args.iters, table, seed=seed)
        runs.append(run)
        sys.stdout.write(run.to_json() + "\n")
    _print_json({
        "median_final_re": float(np.median([r.final_estimate.real for r in runs])),
        "prediction_re": runs[0].prediction.real,
        "seeds": args.seeds,
    })
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from . import acceptance

    results = acceptance.run_all()
    ok = True
    for r in results:
        ok &= r.passed
        sys.stdout.write(r.line() + "\n")
        sys.stderr.write(f"criterion {r.index:2d}: {r.elapsed:.1f}s\n")
    sys.stdout.write("ALL PASS\n" if ok else "FAILURES PRESENT\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zetaline", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("stieltjes", help="Stieltjes constants table")
    ps.add_argument("--kmax", type=int, required=True)
    ps.add_argument("--digits", type=int, default=50)
    ps.set_defaults(fn=cmd_stieltjes)

    pc = sub.add_parser("coeffs", help="coefficient family table")
    pc.add_argument("--nmax", type=int, required=True)
    pc.add_argument("--sigma", type=str, default=None)
    pc.add_argument("--power", type=int, default=None)
    pc.add_argument("--digits", type=int, default=None)
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.set_defaults(fn=cmd_coeffs)

    pe = sub.add_parser("eval", help="evaluate zeta by one or both routes")
    pe.add_argument("--sigma", type=str, required=True)
    pe.add_argument("--t", type=str, required=True)
    pe.add_argument("--method", choices=("em", "series", "both"), default="both")
    pe.add_argument("--nmax", type=int, default=120)
    pe.add_argument("--digits", type=int, default=None)
    pe.set_defaults(fn=cmd_eval)

    pp = sub.add_parser("parseval", help="partial square sums vs quadrature")
    pp.add_argument("--nmax", type=int, required=True)
    pp.set_defaults(fn=cmd_parseval)

    pq = sub.add_parser("quad", help="closed-form integral identity checks")
    pq.add_argument("identity", choices=("coffey", "hnorm", "cross", "log-disk", "bsy", "phi-l2"))
    pq.add_argument("--a", type=str, default=None)
    pq.add_argument("--b", type=str, default=None)
    pq.add_argument("--tcut", type=float, default=10000.0)
    pq.add_argument("--zeros", type=str, default=None,
                    help="override the bundled zero-ordinate file")
    pq.set_defaults(fn=cmd_quad)

    pr = sub.add_parser("roots", help="partial-sum polynomial root report")
    pr.add_argument("--nmax", type=int, required=True)
    pr.add_argument("--radii", type=str, default="0.5,0.8,0.9")
    pr.set_defaults(fn=cmd_roots)

    pg = sub.add_parser("ergodic", help="Boole-orbit Birkhoff averages")
    pg.add_argument("--g", type=str, required=True, help="observable, e.g. em:-5")
    pg.add_argument("--iters", type=int, default=200_000)
    pg.add_argument("--seeds", type=int, default=20)
    pg.set_defaults(fn=cmd_ergodic)

    pv = sub.add_parser("verify-all", help="run the acceptance suite")
    pv.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (PrecisionUnachievableError, quad_mod.ToleranceNotMetError,
            coeffs_mod.InsufficientPrecisionError, coeffs_mod.InsufficientTableError) as e:
        sys.stderr.write(f"precision/tolerance unreachable: {e}\n")
        return EXIT_PRECISION
    except (ValueError, KeyError) as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
