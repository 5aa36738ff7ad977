"""Critical-line zero ordinates: bundled table, scanning, and coverage checks.

The package bundles the first 100 ordinates (data/zeta_zeros_100.txt,
refined by Newton iteration on the package's own evaluator; see the file
header for residuals).  Heights beyond the bundled range are covered on
demand by a sign-change scan of the Hardy Z function at machine precision,
good to ~1e-6 in each ordinate, which is far below what the quadrature's
singular panels can feel.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

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


def scan_ordinates(a: float, b: float, step: float = 0.025) -> np.ndarray:
    """All Hardy-Z sign changes in [a, b], bisected to ~1e-9.

    step must undercut the closest zero pair in range (0.0377 below 1e4).
    """
    a = max(a, 10.0)
    if b <= a:
        return np.array([])
    grid = np.arange(a, b + step, step)
    vals = np.empty(len(grid))
    for i in range(0, len(grid), 50_000):
        vals[i:i + 50_000] = hardy_Z(grid[i:i + 50_000])
    sgn = np.sign(vals)
    idx = np.where(sgn[:-1] * sgn[1:] < 0)[0]
    los, his = grid[idx].copy(), grid[idx + 1].copy()
    flo = vals[idx].copy()
    for _ in range(35):
        mid = 0.5 * (los + his)
        fm = np.empty(len(mid))
        for i in range(0, len(mid), 50_000):
            fm[i:i + 50_000] = hardy_Z(mid[i:i + 50_000])
        left = flo * fm < 0
        his = np.where(left, mid, his)
        los = np.where(left, los, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (los + his)


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
    of all gaps are evaluated in one hardy_Z call.
    """
    ords = np.asarray(sorted(o for o in ordinates if o <= T_cutoff))
    edges = np.concatenate([[10.0], ords, [T_cutoff]])
    grids = [np.linspace(lo + step, hi - step, max(int((hi - lo) / step), 8))
             for lo, hi in zip(edges[:-1], edges[1:]) if hi - lo >= 4 * step]
    missing = []
    if grids:
        grid = np.concatenate(grids)
        sgn = np.sign(hardy_Z(grid))
        flip = sgn[:-1] * sgn[1:] < 0
        ends = np.cumsum([len(g) for g in grids])
        flip[ends[:-1] - 1] = False  # no pair across two gaps
        missing = [(float(grid[f]), float(grid[f + 1])) for f in np.flatnonzero(flip)]
    return CoverageReport(
        missing_intervals=missing,
        found=len(ords),
        expected=expected_zero_count(T_cutoff),
    )
