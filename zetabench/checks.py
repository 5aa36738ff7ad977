"""Correctness checks for the zetabench operations.

Every check compares a program output with refs.json (mpmath alone, see
refs.py) or with a property the mathematics forces, and returns a list of
failure messages: empty means the operation passed.  Nothing here imports
zetaline, so the checks can be exercised on hand-made values (selftest.py).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from mpmath import mp, mpf, workdps

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
CHECK_DPS = 110


def load_refs(path: Path = REFS_PATH) -> dict:
    """refs.json with every decimal string turned into an mpf."""
    raw = json.loads(Path(path).read_text())
    with workdps(CHECK_DPS):
        refs = dict(raw)
        refs["stieltjes"] = [mpf(v) for v in raw["stieltjes"]]
        refs["ell"] = {raw["ell_n_min"] + i: mpf(v) for i, v in enumerate(raw["ell"])}
        for key in ("log2pi_minus_gamma0", "parseval_sq", "log_1_minus_gamma0", "jensen_ceiling"):
            refs[key] = mpf(raw[key])
    return refs


def advertised_digits(digits: int, n_max: int) -> int:
    """The accuracy CoeffTable documents: digits - ceil(0.15 n_max)."""
    return digits - math.ceil(0.15 * n_max)


def check_critical_table(values: dict, refs: dict, n_max: int, digits: int) -> list:
    """ell_{-1}..ell_{n_max} against mpmath, plus Bessel's inequality.

    ``values`` maps n to the program's ell_n.  Each entry must agree with the
    reference to the advertised relative accuracy; the partial sums of ell_n^2
    (n >= 0) must increase and stay below log(2 pi) - gamma_0 - 1, the squared
    norm of zeta(s) - s/(s-1) on the critical line.
    """
    fails = []
    want = set(range(-1, n_max + 1))
    if set(values) != want:
        return [f"table indices {sorted(values)} != -1..{n_max}"]
    with workdps(CHECK_DPS):
        tol = mpf(10) ** -advertised_digits(digits, n_max)
        for n in sorted(want):
            ref = refs["ell"][n]
            err = abs(mpf(values[n]) - ref)
            if err > tol * abs(ref):
                fails.append(f"ell_{n}: relative error {mp.nstr(err / abs(ref), 3)} > {mp.nstr(tol, 3)}")
        partial = mpf(0)
        for n in range(0, n_max + 1):
            nxt = partial + mpf(values[n]) ** 2
            if not nxt > partial:
                fails.append(f"sum of ell_n^2 does not increase at n = {n}")
            partial = nxt
        if not partial < refs["parseval_sq"]:
            fails.append(f"sum of ell_n^2 = {mp.nstr(partial, 15)} breaks Bessel's bound "
                         f"{mp.nstr(refs['parseval_sq'], 15)}")
    return fails


def _fN_ref(N: int, z, refs: dict):
    acc = mpf(0)
    for n in range(N, -1, -1):
        acc = acc * z + refs["ell"][n]
    return acc * z - 1


def check_roots(N: int, winding_counts, roots_in_disk, all_roots, refs: dict,
                dilation: float = 1.0, residual_tol: float = 1e-30) -> list:
    """Disk-root report of f_N(z / dilation) against the argument principle and mpmath.

    Every winding count must equal the number of reported roots strictly
    inside its radius, and the number of mpmath's roots inside it; there must
    be N+1 roots, each a root of f_N(z / dilation) built from the reference
    coefficients, with ``dilation`` times the moduli mpmath's polyroots found.
    """
    fails = []
    ref_mod = [dilation * m for m in refs["fN_root_moduli"][str(N)]]
    for radius, count in winding_counts:
        inside = sum(1 for z in roots_in_disk if abs(z) < radius)
        want = sum(1 for m in ref_mod if m < radius)
        if not count == inside == want:
            fails.append(f"f_{N}: winding count {count} at radius {radius}, {inside} reported "
                         f"roots inside, {want} by mpmath")
    if len(all_roots) != N + 1:
        return fails + [f"{len(all_roots)} roots reported for a degree-{N + 1} polynomial"]
    with workdps(CHECK_DPS):
        rho = mpf(dilation)
        for z in all_roots:
            res = abs(_fN_ref(N, mp.mpc(z) / rho, refs))
            if res > residual_tol:
                fails.append(f"|f_{N}(z / {dilation})| = {mp.nstr(res, 3)} at reported root "
                             f"{mp.nstr(z, 12)}")
    got_mod = sorted(float(abs(z)) for z in all_roots)
    worst = max(abs(a - b) for a, b in zip(got_mod, ref_mod))
    if worst > 1e-12:
        fails.append(f"f_{N}: root moduli differ from mpmath polyroots by {worst:.3e}")
    return fails


def check_coffey(value, est_error: float, refs: dict, tol: float = 1e-3) -> list:
    """int |zeta(1/2+it)|^2 dmu = log(2 pi) - gamma_0.

    Truncating a positive integrand can only lower the value, so it may not
    exceed the closed form by more than its quadrature estimate.
    """
    target = refs["log2pi_minus_gamma0"]
    with workdps(CHECK_DPS):
        v = mpf(value)
        fails = []
        if abs(v - target) > tol:
            fails.append(f"coffey {mp.nstr(v, 12)} is {mp.nstr(abs(v - target), 3)} from "
                         f"log(2 pi) - gamma_0")
        if v > target + mpf(est_error):
            fails.append(f"coffey {mp.nstr(v, 12)} exceeds the closed form by more than "
                         f"est_error {est_error:.3e}")
    return fails


def check_log_disk(value, refs: dict, widen: float = 1e-3) -> list:
    """Jensen window: log(1 - gamma_0) <= value <= (1/2) log(log(2 pi) - gamma_0 - 1)."""
    with workdps(CHECK_DPS):
        v = mpf(value)
        lo = refs["log_1_minus_gamma0"] - widen
        hi = refs["jensen_ceiling"] + widen
        if lo <= v <= hi:
            return []
        return [f"log-disk {mp.nstr(v, 12)} outside [{mp.nstr(lo, 8)}, {mp.nstr(hi, 8)}]"]


def check_bsy(value, zeros_used: int, uncovered, T_cutoff: float, refs: dict,
              tol: float = 1e-2) -> list:
    """int log|zeta(1/2+it)| dmu ~ 0, with every zero below the cutoff used."""
    fails = []
    if abs(float(value)) > tol:
        fails.append(f"bsy {float(value):.3e} exceeds {tol}")
    if uncovered:
        fails.append(f"uncovered zero intervals: {list(uncovered)[:3]}")
    want = refs["zero_counts"][str(int(T_cutoff))]
    if zeros_used != want:
        fails.append(f"zeros_used {zeros_used} != N({int(T_cutoff)}) = {want}")
    return fails


def check_orbits(index: int, finals_re, predictions_re, refs: dict, tol: float = 0.05) -> list:
    """Birkhoff averages of zeta(1/2 + i x) e_{-index}(x) along Boole orbits.

    The median over starting points must lie within ``tol`` of ell_index, and
    the prediction the program reads from its table must be ell_index itself.
    """
    ref = float(refs["ell"][index])
    fails = []
    med = statistics.median(finals_re)
    if abs(med - ref) > tol:
        fails.append(f"median Birkhoff average {med:.5f} is {abs(med - ref):.3e} from "
                     f"ell_{index} = {ref:.5f}")
    worst = max(abs(p - ref) for p in predictions_re)
    if worst > 1e-12:
        fails.append(f"predicted pairing differs from ell_{index} by {worst:.3e}")
    return fails
