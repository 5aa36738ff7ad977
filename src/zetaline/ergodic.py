"""Boole-map orbits and Birkhoff averages of zeta-weighted observables.

The map T x = (x - 1/(4x))/2 (T 0 = 0) preserves the Cauchy probability
measure with scale 1/2 and is ergodic for it, so for mu-integrable F the time
averages (1/N) sum F(T^n x) converge to the space average for almost every
starting point.  With F(t) = zeta(1/2 + it) g(t) and g a finite combination
of the basis functions e_m = ((1 - 2it)/(1 + 2it))^m, rational in t and
computed as complex powers, the space average is the coefficient pairing
-a_1 + sum_{m>=0} ell_m a_{-m}.

Orbits are exact.  x = cot(pi theta)/2 conjugates T to the doubling map
theta -> 2 theta mod 1 and carries mu to Lebesgue measure (Adler & Weiss,
Israel J. Math. 16, 1973), so T^k x0 = cot(pi theta_k)/2 with theta_k the
binary expansion of theta_0 = arccot(2 x0)/pi read from bit k.  The orbit of
x0 is that of the theta_0 whose leading bits hold 53 significant bits of
theta_0 (and of 1/2 - theta_0 when |x0| <= 1/2) and whose further bits are
drawn from a generator seeded with the bits of |x0|: one fixed real number
per x0, unlike a float iteration of T, which loses about a bit per step and
leaves the true orbit of x0 after some 50 steps.

This is the one module exempt from the multiprecision contract: only
distributional convergence matters, so everything runs at machine precision
with the fast line evaluators (the exemption is recorded in every report).
Orbit points above the height cap are skipped and counted; their measure is
tiny and the skip rate is reported.
"""

from __future__ import annotations

import json
import math
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
    "birkhoff_averages",
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


_BITS = np.arange(64, dtype=np.uint64)
_SIGN = np.int64(-2**63)
# Leading points nearer than 2^-70 to 0 or 1/2, which only a start above
# about 2e20 or below 1e-21 has, take theta_k from d0 (see _orbit_stream):
# a 128-bit window holds fewer than 58 significant bits of that distance.
_LEAD_EXP = -70


def _orbit_stream(a: float, n_iter: int) -> tuple:
    """The bits of theta_0 = arccot(2a)/pi, a > 0, as big-endian uint64 words.

    d0, the distance of theta_0 to 1/2 (a <= 1/2) or to 0 (a > 1/2), is a
    double m 2^-H with 53 significant bits.  The first H bits are theta_0 2^H,
    which carry them.  The rest, enough for a 128-bit window at point
    n_iter - 1, are bytes of numpy.random.default_rng seeded with the float64
    bits of a, so a longer orbit extends a shorter one.
    Returns (words, d0, a <= 1/2).
    """
    near = a <= 0.5
    d0 = math.atan(2.0 * a if near else 0.5 / a) / math.pi
    f, e = math.frexp(d0)
    m = int(math.ldexp(f, 64))                      # d0 = m 2^-(64 - e)
    head = (1 << (63 - e)) - m if near else m
    n_tail = n_iter // 8 + 24
    tail = np.random.default_rng(int(np.float64(a).view(np.uint64))).bytes(n_tail)
    bits = 64 - e + 8 * n_tail
    stream = ((head << (8 * n_tail)) | int.from_bytes(tail, "big")) << (-bits % 64)
    words = np.frombuffer(stream.to_bytes((bits + 63) // 64 * 8, "big"), dtype=">u8")
    return words.astype(np.uint64), d0, near


def _orbit_points(words: np.ndarray, k0: int, m: int) -> np.ndarray:
    """cot(pi theta_k)/2 for k0 <= k < k0 + m, theta_k the 128 bits from bit k.

    Each point takes the exact fixed-point distance of theta_k to 1/2 where
    theta_k is in [1/4, 3/4), else to 0 or 1, so tan of that distance (or its
    reciprocal) is within a few ulp near x = 0 and at large heights alike.
    """
    j0 = k0 >> 6
    w = words[j0:((k0 + m - 1) >> 6) + 3]
    win = w[:-1, None] << _BITS                     # row j, column r: bits 64j + r on
    win |= (w[1:] >> np.uint64(1))[:, None] >> (np.uint64(63) - _BITS)
    s = k0 - 64 * j0
    hi = win[:-1].ravel()[s:s + m].view(np.int64)
    lo = win[1:].ravel()[s:s + m]
    mid = hi ^ (hi << 1)
    mid >>= 63                                      # -1 where theta_k is in [1/4, 3/4)
    t = (mid & _SIGN) ^ hi                          # theta_k - 1/2 there, else theta_k or theta_k - 1
    neg = t >> 63
    t ^= neg                                        # |t|, 2^-128 short where t < 0
    d = t.astype(float)
    low = lo ^ neg.view(np.uint64)
    low >>= np.uint64(1)
    d += low.view(np.int64).astype(float) * 2.0 ** -63
    d *= math.pi * 2.0 ** -64
    half_tan = np.tan(d, out=d)
    half_tan *= 0.5
    with np.errstate(divide="ignore"):
        half_cot = 0.25 / half_tan
    x = half_tan.view(np.int64)
    x ^= half_cot.view(np.int64)
    x &= mid
    x ^= half_cot.view(np.int64)                    # tan(pi d)/2 if mid else cot(pi d)/2
    x ^= hi & _SIGN                                 # negative iff theta_k > 1/2
    return x.view(float)


def _orbit_chunks(x0: float, n_iter: int, chunk: int):
    """boole_orbit(x0, n_iter) in successive pieces of at most `chunk` points."""
    x0 = float(x0)
    if not math.isfinite(x0):
        raise ValueError(f"orbit start must be finite, got {x0}")
    if x0 == 0.0:
        for k0 in range(0, n_iter, chunk):
            yield np.full(min(chunk, n_iter - k0), x0)
        return
    words, d0, near = _orbit_stream(abs(x0), n_iter)
    k = np.arange(max(0, _LEAD_EXP - math.frexp(d0)[1]))
    with np.errstate(over="ignore"):                # T x0 is inf from a subnormal x0
        lead = 0.5 / np.tan(math.pi * np.ldexp(d0, k))   # theta_k = 2^k d0
    if near and len(lead):                          # theta_0 = 1/2 - d0, theta_k = 1 - 2^k d0
        lead = -lead
        lead[0] = 0.5 * math.tan(math.pi * d0)
    for k0 in range(0, n_iter, chunk):
        m = min(chunk, n_iter - k0)
        x = _orbit_points(words, k0, m)
        head = lead[k0:k0 + m]
        x[:len(head)] = head
        if x0 < 0.0:
            np.negative(x, out=x)
        yield x


def boole_orbit(x0: float, n_iter: int) -> np.ndarray:
    """The exact orbit x0, T x0, ..., T^{n_iter-1} x0 of a finite x0.

    Point k is cot(pi theta_k)/2 to a few ulp, theta_k = 2^k theta_0 mod 1
    read to 2^-128 from one bit stream (see the module notes).  Point 0 is x0
    to a few ulp.  The bits of theta_0 past those that fix x0 are drawn from
    x0 alone, so the same x0 gives the same orbit and a longer orbit extends
    a shorter one.  boole_orbit(-x0, n) is -boole_orbit(x0, n) bit for bit,
    and x0 = +-0.0 stays at the fixed point 0.
    """
    return next(_orbit_chunks(x0, n_iter, max(n_iter, 1)), np.empty(0))


def cauchy_half_sample(rng: np.random.Generator, size: int) -> np.ndarray:
    """Samples of the Cauchy(0, 1/2) law (the invariant measure)."""
    u = rng.random(size)
    return 0.5 * np.tan(np.pi * (u - 0.5))


def basis_combination_value(terms: Sequence[tuple], t: np.ndarray) -> np.ndarray:
    """g(t) = sum a_m e_m(t) for terms = [(m, a_m), ...]: e_m = u^m, e_{-m} = conj(u)^m,
    u = r - 1 - 2irt with r = 2/(1 + 4t^2) (u = -1 where 4t^2 overflows); within
    2.7e-15 of exp(-2im arctan 2t) at |m| = 5 and 2.1e-14 at |m| = 40.  u is
    built in place in its real and imaginary rows, and only if some m is not 0;
    where every m <= 0 those rows hold conj(u) instead, so no term copies it."""
    acc = np.zeros(len(t), dtype=complex)
    u = None
    conj = all(m <= 0 for m, _ in terms)
    if any(m for m, _ in terms):
        with np.errstate(over="ignore"):
            r = 4.0 * t
            r *= t
        r += 1.0
        np.divide(2.0, r, out=r)
        u = np.empty(len(t), dtype=complex)
        np.subtract(r, 1.0, out=u.real)
        r *= t
        # +2rt builds conj(u); a zero's sign cannot reach acc, which starts at +0
        np.multiply(r, 2.0 if conj else -2.0, out=u.imag)
    for m, a in terms:
        w = u.conj() if m < 0 and not conj else u
        p = np.full(len(t), complex(a))
        for _ in range(abs(m)):
            p *= w
        acc += p
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


def birkhoff_averages(
    observables: Sequence[Sequence[tuple]],
    x0: float,
    n_iter: int,
    coeffs: CoeffTable,
    checkpoints: Sequence[int] = (),
    seed: int = 0,
) -> list[ErgodicRun]:
    """One ErgodicRun per observable, all from one orbit and one zeta pass.

    Each run holds the running Cesaro means of zeta(1/2 + i T^n x) g(T^n x)
    for its g = [(m, a_m), ...] at the checkpoints and at n_iter.  Orbit
    points with |x| > 1e8 are excluded from the mean (and counted); the
    divisor is the number of retained points.  Each run equals the
    one-observable call bit for bit.
    """
    if n_iter < 1:
        raise ValueError(f"n_iter must be at least 1, got {n_iter}")
    checkpoints = sorted({int(c) for c in checkpoints if int(c) >= 1} | {n_iter})
    if checkpoints[-1] > n_iter:
        raise ValueError(f"checkpoint {checkpoints[-1]} is past n_iter = {n_iter}")
    predictions = [prediction_from_table(terms, coeffs) for terms in observables]
    est = [[] for _ in observables]
    totals = [0.0 + 0.0j for _ in observables]
    kept = 0
    skipped = 0
    produced = 0
    for orbit in _orbit_chunks(x0, n_iter, _ORBIT_CHUNK):
        m = len(orbit)
        k_ins = [ck - produced for ck in checkpoints if produced < ck <= produced + m]
        ok = np.abs(orbit) <= HEIGHT_CAP
        if not ok.all():  # under mu a point is above the cap with probability 3.2e-9
            kept_prefix = np.cumsum(ok)
            k_ins = [int(kept_prefix[k - 1]) for k in k_ins]
            orbit = orbit[ok]
            skipped += m - len(orbit)
        zeta_vals = fastzeta.zeta_critical(orbit)
        for i, terms in enumerate(observables):
            f = basis_combination_value(terms, orbit)
            # zeta * g in this order at any length: complex multiply is not bitwise commutative
            np.multiply(zeta_vals, f, out=f)
            # one sum per checkpoint's prefix: bit for bit the final estimate of a run ending there
            for k_in in k_ins:
                est[i].append(complex((totals[i] + f[:k_in].sum()) / max(kept + k_in, 1)))
            totals[i] += f.sum()
        kept += len(orbit)
        produced += m
    return [
        ErgodicRun(
            seed=seed,
            x0=float(x0),
            iterations=n_iter,
            observable=tuple((int(m), complex(a)) for m, a in terms),
            checkpoints=tuple(checkpoints),
            estimates=tuple(run_est),
            prediction=pred,
            skipped=skipped,
        )
        for terms, run_est, pred in zip(observables, est, predictions)
    ]


def birkhoff_average(
    terms: Sequence[tuple],
    x0: float,
    n_iter: int,
    coeffs: CoeffTable,
    checkpoints: Sequence[int] = (),
    seed: int = 0,
) -> ErgodicRun:
    """birkhoff_averages for the one observable g = [(m, a_m), ...]."""
    return birkhoff_averages([terms], x0, n_iter, coeffs, checkpoints, seed)[0]


def orbit_vs_cauchy_ks(x0: float = 0.37, n_iter: int = 1_000_000) -> float:
    """Kolmogorov-Smirnov distance of the orbit's empirical law to Cauchy(0,1/2)."""
    s = np.sort(boole_orbit(x0, n_iter))
    cdf = 0.5 + np.arctan(2.0 * s) / np.pi
    emp_hi = np.arange(1, n_iter + 1) / n_iter
    emp_lo = np.arange(0, n_iter) / n_iter
    return float(max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max()))
