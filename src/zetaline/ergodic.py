"""Boole-map orbits and Birkhoff averages of zeta-weighted observables.

The map T x = (x - 1/(4x))/2 (T 0 = 0) preserves the Cauchy probability
measure with scale 1/2 and is ergodic for it, so for mu-integrable F the time
averages (1/N) sum F(T^n x) converge to the space average for almost every
starting point.  With F(t) = zeta(1/2 + it) g(t) and g a finite combination
of the basis functions e_m, the space average is the coefficient pairing
-a_1 + sum_{m>=0} ell_m a_{-m}.

This is the one module exempt from the multiprecision contract: orbits are
chaotic and only distributional convergence matters, so everything runs at
machine precision with the fast line evaluators (the exemption is recorded
in every report).  Orbit points above the height cap are skipped and counted;
their measure is tiny and the skip rate is reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fastzeta
from .coefficients import CoeffTable

__all__ = [
    "boole_step",
    "boole_orbit",
    "cauchy_half_sample",
    "invariance_check",
    "birkhoff_average",
    "ErgodicRun",
    "basis_combination_value",
    "prediction_from_table",
    "orbit_vs_cauchy_ks",
]

HEIGHT_CAP = 1.0e8
_ORBIT_CHUNK = 50_000  # orbit points per batched zeta evaluation
PRECISION_NOTE = "machine precision (module-level exemption from the mpf contract)"


def boole_step(x: float) -> float:
    """T x = (x - 1/(4x))/2, with T 0 = 0 by definition."""
    if x == 0.0:
        return 0.0
    return 0.5 * (x - 0.25 / x)


def _boole_step_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    nz = x != 0.0
    xs = x[nz]
    out[nz] = 0.5 * (xs - 0.25 / xs)
    return out


def boole_orbit(x0: float, n_iter: int) -> np.ndarray:
    """The orbit x0, Tx0, ..., T^{n_iter-1} x0."""
    out = np.empty(n_iter)
    x = float(x0)
    for i in range(n_iter):
        out[i] = x
        x = 0.5 * (x - 0.25 / x) if x else 0.0  # boole_step, inlined
    return out


def cauchy_half_sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """Samples of the Cauchy(0, 1/2) law (the invariant measure)."""
    u = rng.random(size)
    return 0.5 * np.tan(np.pi * (u - 0.5))


def basis_combination_value(terms: Sequence[tuple], t: np.ndarray) -> np.ndarray:
    """g(t) = sum a_m e_m(t) for terms = [(m, a_m), ...]."""
    phase = np.arctan(2.0 * t)
    acc = np.zeros(len(t), dtype=complex)
    for m, a in terms:
        acc += a * np.exp(-2j * m * phase)
    return acc


def invariance_check(terms: Sequence[tuple], samples: int = 1_000_000,
                     seed: int = 7) -> dict:
    """Monte-Carlo check that T pushes mu forward to itself.

    Means of g(T x) and g(x) over mu-distributed x agree within 3 standard
    errors for bounded g (finite e_m combinations).
    """
    rng = np.random.default_rng(seed)
    x = cauchy_half_sample(rng, samples)
    tx = _boole_step_vec(x)
    g_direct = basis_combination_value(terms, x)
    g_push = basis_combination_value(terms, tx)
    mean_d = g_direct.mean()
    mean_p = g_push.mean()
    se = float(np.sqrt(
        (np.abs(g_direct - mean_d) ** 2).mean() / samples
        + (np.abs(g_push - mean_p) ** 2).mean() / samples
    ))
    return {
        "direct_mean": complex(mean_d),
        "pushforward_mean": complex(mean_p),
        "standard_error": se,
        "within_3se": bool(abs(mean_d - mean_p) <= max(3 * se, 1e-12)),
        "samples": samples,
        "precision": PRECISION_NOTE,
    }


@dataclass(frozen=True)
class ErgodicRun:
    seed: int
    x0: float
    iterations: int
    observable: tuple                      # ((m, a_m), ...)
    checkpoints: tuple
    estimates: tuple                       # complex running Cesaro means
    prediction: complex
    skipped: int = 0
    precision: str = PRECISION_NOTE

    @property
    def final_estimate(self) -> complex:
        return self.estimates[-1]

    def to_csv(self) -> str:
        lines = ["checkpoint_N,estimate_re,estimate_im,prediction_re,prediction_im"]
        for n, e in zip(self.checkpoints, self.estimates):
            lines.append(
                f"{n},{e.real!r},{e.imag!r},{self.prediction.real!r},{self.prediction.imag!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "schema_version": 1,
            "seed": self.seed,
            "x0": self.x0,
            "iterations": self.iterations,
            "observable": [[m, repr(a)] for m, a in self.observable],
            "prediction": [self.prediction.real, self.prediction.imag],
            "final_estimate": [self.final_estimate.real, self.final_estimate.imag],
            "skip_rate": self.skipped / max(self.iterations, 1),
            "precision": self.precision,
        }, indent=1)


def prediction_from_table(terms: Sequence[tuple], coeffs: CoeffTable) -> complex:
    """The ergodic limit -a_1 + sum_{m>=0} ell_m a_{-m} from the table.

    A g-term a_m e_m pairs with the coefficient at index -m, which vanishes
    for m > 1 and equals -1 at m = 1.
    """
    acc = 0.0 + 0.0j
    for m, a in terms:
        if m <= 1:
            if -m > coeffs.n_max:
                raise ValueError(f"pairing needs coefficient index {-m} > table n_max")
            acc += complex(a) * float(coeffs.value(-m))
    return acc


def _zeta_at_heights(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + i t) for signed heights, conjugate symmetry for t < 0."""
    out = fastzeta.zeta_critical(np.abs(t))
    np.conjugate(out, out=out, where=t < 0)
    return out


def birkhoff_average(
    terms: Sequence[tuple],
    x0: float,
    n_iter: int,
    coeffs: CoeffTable,
    checkpoints: Sequence[int] = (),
    seed: int = 0,
) -> ErgodicRun:
    """Running Cesaro means of zeta(1/2 + i T^n x) g(T^n x) along one orbit.

    Orbit points with |x| > 1e8 are excluded from the mean (and counted);
    the divisor is the number of retained points.
    """
    checkpoints = sorted({int(c) for c in checkpoints if int(c) >= 1} | {n_iter})
    est = []
    total = 0.0 + 0.0j
    kept = 0
    skipped = 0
    x = float(x0)
    produced = 0
    while produced < n_iter:
        m = min(_ORBIT_CHUNK, n_iter - produced)
        orbit = boole_orbit(x, m)
        x = boole_step(orbit[-1])
        ok = np.abs(orbit) <= HEIGHT_CAP
        skipped += int((~ok).sum())
        tt = orbit[ok]
        vals = _zeta_at_heights(tt) * basis_combination_value(terms, tt)
        # fixed-order reduction: cumulative over the chunk, then checkpoints
        csum = np.cumsum(vals)
        kept_prefix = np.cumsum(ok)
        for ck in (c for c in checkpoints if produced < c <= produced + m):
            k_in = int(kept_prefix[ck - produced - 1])
            tot_at = total + (csum[k_in - 1] if k_in > 0 else 0.0 + 0.0j)
            est.append(complex(tot_at / max(kept + k_in, 1)))
        total += csum[-1] if len(csum) else 0.0 + 0.0j
        kept += int(kept_prefix[-1])
        produced += m
    pred = prediction_from_table(terms, coeffs)
    return ErgodicRun(
        seed=seed,
        x0=float(x0),
        iterations=n_iter,
        observable=tuple((int(m), complex(a)) for m, a in terms),
        checkpoints=tuple(checkpoints),
        estimates=tuple(est),
        prediction=pred,
        skipped=skipped,
    )


def orbit_vs_cauchy_ks(x0: float = 0.37, n_iter: int = 1_000_000) -> float:
    """Kolmogorov-Smirnov distance of the orbit's empirical law to Cauchy(0,1/2)."""
    s = np.sort(boole_orbit(x0, n_iter))
    cdf = 0.5 + np.arctan(2.0 * s) / np.pi
    emp_hi = np.arange(1, n_iter + 1) / n_iter
    emp_lo = np.arange(0, n_iter) / n_iter
    return float(max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max()))
