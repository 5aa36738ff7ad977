"""Critical-line zero ordinates: bundled table, scanning, and coverage checks.

The package bundles the first 100 ordinates (data/zeta_zeros_100.txt,
refined by Newton iteration on the package's own evaluator; see the file
header for residuals).  Heights beyond the bundled range are covered on
demand by a sign-change scan of the Hardy Z function at machine precision,
each sign change refined by Illinois steps to a bracket of width 1e-11.
The ordinates on [236.75, 300] are within 1e-10 of mpmath.zetazero, far
below what the quadrature's singular panels can feel.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from . import fastzeta
from .fastzeta import hardy_Z, hardy_theta

__all__ = [
    "bundled_ordinates",
    "load_ordinates",
    "scan_ordinates",
    "ordinates_below",
    "coverage_gaps",
    "expected_zero_count",
]


def bundled_ordinates() -> list[float]:
    text = (
        importlib.resources.files("zetaline")
        .joinpath("data/zeta_zeros_100.txt")
        .read_text()
    )
    return _parse(text)


def load_ordinates(path: str) -> list[float]:
    with open(path) as fh:
        return _parse(fh.read())


def _parse(text: str) -> list[float]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(float(line))
    return out


def expected_zero_count(T: float) -> float:
    """Riemann-von Mangoldt main term theta(T)/pi + 1 (no S(T) fluctuation)."""
    if T < 14:
        return 0.0
    return float(hardy_theta(np.array([T]))[0]) / math.pi + 1.0


def _hardy_Z_blocks(t: np.ndarray) -> np.ndarray:
    """hardy_Z(t) in calls of at most fastzeta._BLOCK points, each value as from one call."""
    out = np.empty(len(t))
    block = fastzeta._BLOCK
    for i in range(0, len(t), block):
        out[i:i + block] = hardy_Z(t[i:i + block])
    return out


def scan_ordinates(a: float, b: float, step: float = 0.025) -> np.ndarray:
    """All Hardy-Z sign changes in [a, b], each refined to a bracket of width
    at most 1e-11, or 4 ulps of t above 16384 (or by 12 sweeps), and its zero
    interpolated linearly.

    step must undercut the closest zero pair in range (0.0377 below 1e4).
    All brackets take Illinois steps together, one sweep at a time
    (Dowell & Jarratt, BIT 11, 1971): regula falsi between the newest point
    b and the other end a, whose value is halved each time a is kept.  A
    step lands at least 0.4 widths inside, so once one end sits on the zero
    the next step closes the bracket: up to 2000, 7 sweeps.  The grid and
    each sweep go through hardy_Z in calls of at most fastzeta._BLOCK
    points, each value as from one call; up to 2000 a sweep is one call.
    """
    a = max(a, 10.0)
    if b <= a:
        return np.array([])
    grid = np.arange(a, b + step, step)
    vals = _hardy_Z_blocks(grid)
    sgn = np.sign(vals)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    a, b, fa, fb = grid[idx], grid[idx + 1], vals[idx], vals[idx + 1]
    width = np.maximum(1e-11, 4 * np.spacing(b))
    half = np.ones(len(idx))  # the weight of fa in the steps
    for _ in range(12):
        live = np.flatnonzero(np.abs(b - a) > width)
        if not len(live):
            break
        al, bl, fal, fbl, w = a[live], b[live], fa[live] * half[live], fb[live], 0.4 * width[live]
        x = np.clip(bl - fbl * (bl - al) / (fbl - fal), np.minimum(al, bl) + w, np.maximum(al, bl) - w)
        fx = _hardy_Z_blocks(x)
        keep = np.sign(fx) == np.sign(fbl)  # a stays the other end
        a[live], fa[live] = np.where(keep, al, bl), np.where(keep, fa[live], fbl)
        half[live] = np.where(keep, half[live] / 2, 1.0)
        b[live], fb[live] = x, fx
    return b - fb * (b - a) / (fb - fa)


def ordinates_below(T_cutoff: float, supplied: list[float] | None = None) -> np.ndarray:
    """A covering ordinate list for (0, T_cutoff].

    Takes the supplied (or bundled) list and extends it by scanning above its
    top entry; the result is sorted and deduplicated.
    """
    base = sorted(supplied if supplied is not None else bundled_ordinates())
    base = [g for g in base if g <= T_cutoff]
    top = base[-1] if base else 10.0
    if T_cutoff > top + 0.5:
        extra = scan_ordinates(top + 0.25, T_cutoff)
        base = base + [g for g in extra if g <= T_cutoff]
    arr = np.array(sorted(base))
    if len(arr) > 1:
        arr = np.concatenate([[arr[0]], arr[1:][np.diff(arr) > 1e-6]])
    return arr


@dataclass(frozen=True)
class CoverageReport:
    missing_intervals: list
    found: int
    expected: float

    @property
    def ok(self) -> bool:
        return not self.missing_intervals


def coverage_gaps(ordinates: np.ndarray, T_cutoff: float, step: float = 0.05) -> CoverageReport:
    """Detect sign changes of Z between listed ordinates (uncovered zeros).

    Scans the gaps between consecutive listed ordinates; any sign change not
    accounted for by the list is reported as a missing interval.  The grids
    of all gaps, each np.linspace(lo + step, hi - step, max(gap/step, 8))
    point for point, are built in one numpy pass and evaluated in hardy_Z
    calls of at most fastzeta._BLOCK points, each value as from one call.
    """
    ords = np.asarray(sorted(o for o in ordinates if o <= T_cutoff))
    edges = np.concatenate([[10.0], ords, [T_cutoff]])
    gap = np.diff(edges)
    wide = gap >= 4 * step
    first, last = edges[:-1][wide] + step, edges[1:][wide] - step
    num = np.maximum((gap[wide] / step).astype(int), 8)
    ends = np.cumsum(num)  # np.linspace(first, last, num) per gap, point for point:
    grid = np.arange(num.sum()) - np.repeat(ends - num, num)  # the index within its gap
    grid = grid * np.repeat((last - first) / (num - 1), num) + np.repeat(first, num)
    grid[ends - 1] = last
    sgn = np.sign(_hardy_Z_blocks(grid))
    flip = sgn[:-1] * sgn[1:] < 0
    flip[ends[:-1] - 1] = False  # no pair across two gaps
    missing = [(float(grid[f]), float(grid[f + 1])) for f in np.flatnonzero(flip)]
    return CoverageReport(
        missing_intervals=missing,
        found=len(ords),
        expected=expected_zero_count(T_cutoff),
    )
