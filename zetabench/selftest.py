"""Tests of the benchmark itself: each check rejects a perturbed value, the
seeded inputs are reproducible, and every workload runs in smoke mode.

    python3 zetabench/selftest.py        # from the repository root, ~30 s
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from mpmath import mp, mpf, workdps

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402

REFS = checks.load_refs()
N, DIGITS = child.TABLE_N, child.TABLE_DIGITS


def reference_table() -> dict:
    return {n: REFS["ell"][n] for n in range(-1, N + 1)}


def reference_roots() -> list:
    with workdps(checks.CHECK_DPS):
        desc = [REFS["ell"][n] for n in range(N, -1, -1)] + [mpf(-1)]
        return list(mp.polyroots(desc, maxsteps=400, extraprec=400))


class CriticalTableCheck(unittest.TestCase):
    def test_reference_passes(self):
        self.assertEqual(checks.check_critical_table(reference_table(), REFS, N, DIGITS), [])

    def test_rejects_small_perturbations(self):
        for n, delta in ((N, "1e-40"), (5, "1e-40"), (0, "1e-58")):
            with workdps(checks.CHECK_DPS):
                table = reference_table()
                table[n] += mpf(delta)
            self.assertTrue(checks.check_critical_table(table, REFS, N, DIGITS), (n, delta))

    def test_rejects_missing_index(self):
        table = reference_table()
        del table[N]
        self.assertTrue(checks.check_critical_table(table, REFS, N, DIGITS))

    def test_bessel_bound(self):
        with workdps(checks.CHECK_DPS):
            refs = dict(REFS, parseval_sq=sum(REFS["ell"][n] ** 2 for n in range(N + 1)) - mpf("1e-30"))
        fails = checks.check_critical_table(reference_table(), refs, N, DIGITS)
        self.assertTrue(any("Bessel" in f for f in fails))


class RootsCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.roots = reference_roots()
        cls.inside = [z for z in cls.roots if abs(z) < 1]

    def test_reference_passes(self):
        counts = [(0.5, 0), (0.9, 0)]
        self.assertEqual(checks.check_roots(N, counts, self.inside, self.roots, REFS), [])

    def test_rejects_wrong_winding_count(self):
        self.assertTrue(checks.check_roots(N, [(0.5, 1)], self.inside, self.roots, REFS))
        self.assertTrue(checks.check_roots(N, [(0.5, -1)], self.inside, self.roots, REFS))

    def test_rejects_moved_root(self):
        moved = list(self.roots)
        moved[3] += mpf("1e-20")
        self.assertTrue(checks.check_roots(N, [], self.inside, moved, REFS))

    def test_rejects_missing_root(self):
        self.assertTrue(checks.check_roots(N, [], self.inside, self.roots[:-1], REFS))


class DilatedRootsCheck(unittest.TestCase):
    """f_N(z / DILATION) has every root inside the disk, so its counts are not all 0."""

    @classmethod
    def setUpClass(cls):
        with workdps(checks.CHECK_DPS):
            cls.roots = [z * mpf(child.DILATION) for z in reference_roots()]
        cls.inside = [z for z in cls.roots if abs(z) < 1]
        cls.counts = [(r, sum(1 for z in cls.inside if abs(z) < r)) for r in (0.5, 0.75, 0.99)]

    def check(self, counts=None, inside=None, roots=None):
        return checks.check_roots(N, self.counts if counts is None else counts,
                                  self.inside if inside is None else inside,
                                  self.roots if roots is None else roots, REFS,
                                  dilation=child.DILATION)

    def test_reference_passes(self):
        self.assertEqual(len(self.inside), N + 1)
        self.assertEqual(self.check(), [])

    def test_rejects_wrong_winding_count(self):
        radius, count = self.counts[1]
        self.assertGreater(count, 0)
        self.assertTrue(self.check(counts=[(radius, count - 1)]))
        self.assertTrue(self.check(counts=[(radius, 0)]))

    def test_rejects_lost_disk_roots(self):
        # a report that lost its disk roots and counted nothing is still caught
        self.assertTrue(self.check(counts=[(r, 0) for r, _ in self.counts], inside=[]))

    def test_rejects_undilated_roots(self):
        self.assertTrue(self.check(counts=[], roots=reference_roots()))


class IdentityChecks(unittest.TestCase):
    def test_coffey(self):
        c = REFS["log2pi_minus_gamma0"]
        self.assertEqual(checks.check_coffey(c - mpf("5e-4"), 1e-9, REFS), [])
        self.assertTrue(checks.check_coffey(c - mpf("2e-3"), 1e-9, REFS))
        self.assertTrue(checks.check_coffey(c + mpf("1e-6"), 1e-8, REFS))   # above the closed form

    def test_log_disk(self):
        lo, hi = REFS["log_1_minus_gamma0"], REFS["jensen_ceiling"]
        self.assertEqual(checks.check_log_disk((lo + hi) / 2, REFS), [])
        self.assertTrue(checks.check_log_disk(lo - mpf("2e-3"), REFS))
        self.assertTrue(checks.check_log_disk(hi + mpf("2e-3"), REFS))

    def test_bsy(self):
        n = REFS["zero_counts"]["2000"]
        self.assertEqual(checks.check_bsy(1e-3, n, [], 2000.0, REFS), [])
        self.assertTrue(checks.check_bsy(2e-2, n, [], 2000.0, REFS))
        self.assertTrue(checks.check_bsy(1e-3, n, [(100.0, 100.05)], 2000.0, REFS))
        self.assertTrue(checks.check_bsy(1e-3, n - 1, [], 2000.0, REFS))


class OrbitCheck(unittest.TestCase):
    def test_median(self):
        for index in (0, 1, 5):
            ref = float(REFS["ell"][index])
            finals = [ref - 0.3, ref + 0.01, ref + 0.02, ref - 0.01, ref + 0.4]
            self.assertEqual(checks.check_orbits(index, finals, [ref], REFS), [])
            self.assertTrue(checks.check_orbits(index, [f + 0.1 for f in finals], [ref], REFS))
            self.assertTrue(checks.check_orbits(index, finals, [ref + 1e-9], REFS))


class SeededInputs(unittest.TestCase):
    def test_reproducible(self):
        self.assertEqual(child.probe_radii(7, REFS, N), child.probe_radii(7, REFS, N))
        self.assertNotEqual(child.probe_radii(7, REFS, N), child.probe_radii(8, REFS, N))
        self.assertEqual(child.orbit_starts(7, 20), child.orbit_starts(7, 20))
        self.assertNotEqual(child.orbit_starts(7, 20), child.orbit_starts(8, 20))

    def test_radii_avoid_roots(self):
        for n in child.ROOT_DEGREES:
            moduli = [child.DILATION * m for m in REFS["fN_root_moduli"][str(n)]]
            for seed in range(50):
                for r in child.probe_radii(seed, REFS, n):
                    self.assertTrue(0.3 <= r <= 0.99)
                    self.assertTrue(all(abs(r - m) > child.RADIUS_MARGIN for m in moduli))


def run_bench(*args, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, "zetabench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


class Smoke(unittest.TestCase):
    def test_every_workload(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"] for m in bench["end_to_end"]}
        per_layer = {m["name"] for m in bench["per_layer"]}
        for workload in ("tables", "identities", "orbits"):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", trace, "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreater(out["attempted"], 0)
                    names = set(out["metrics"])
                    if trace == "0":
                        self.assertEqual(names, e2e)
                        self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))
                    else:
                        self.assertEqual(names, per_layer)

    def test_refuses_without_sources(self):
        bare = HERE / "_runs" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "zetabench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = run_bench("--workload", "orbits", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
