"""zetabench: the zetaline benchmark.

    python3 zetabench/run.py --workload tables|identities|orbits --seed N
                             --seconds S --trace 0|1 [--smoke]

Run from a checkout of the repository; the program is imported from its
src/.  A run repeats whole rounds of its workload until S seconds have
passed (at least one round).  Every round runs in fresh child processes
(zetabench/child.py) with an empty table cache, so every round pays the same
cold costs; a `tables` or `identities` round outlasts S and a run of either
is one round.  SETUP_PROBES set-up-only children, half before the rounds and
half after, measure setup_s: the least set-up CPU time among them.

Untraced runs report the end-to-end metrics, traced runs (--trace 1) the
per-layer ones; the last stdout line is the JSON result.  --smoke runs every
operation on tiny inputs with the tables seeded warm from refs.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROLES = {"tables": ("table", "roots"), "identities": ("identities",), "orbits": ("orbits",)}
OPS_PER_ROLE = {"table": 1, "roots": 1, "identities": 3, "orbits": 3}
SETUP_PROBES = 20
RUN_BUDGET_S = 170.0
E2E_UNITS = {"setup_s": "s", "ops_cpu_s": "s", "slowest_op_cpu_s": "s", "peak_rss_mb": "MB"}


def child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    tmp = cache_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONNOUSERSITE="1",
        ZETALINE_CACHE_DIR=str(cache_dir / "zetaline"),
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def spawn(role: str, args, cache_dir: Path, deadline: float, trace_out: Path | None = None):
    """Run one child to completion; its JSON result with setup_wall, or None."""
    cmd = [sys.executable, str(HERE / "child.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = child_env(cache_dir)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"zetabench: {role} child timed out\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"zetabench: {role} child exited {proc.returncode}\n")
        return None
    result = json.loads(lines[-1])
    result["setup_wall"] = result["ready"] - t_spawn
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zetaline" / "__init__.py").is_file():
        sys.stderr.write(f"zetabench: no zetaline sources under {ROOT / 'src'}\n")
        return 2
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    run_dir = HERE / "_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_dir = HERE / "_runs" / "traces"
    setups, rounds, probes, info = [], [], None, {}

    def probe_setup(count: int) -> bool:
        for _ in range(count):
            r = spawn("setup", args, run_dir / f"setup{len(setups)}", deadline)
            if r is None:
                return False
            setups.append(r)
        return True

    try:
        # half the set-up children before the rounds and half after, so that
        # setup_s samples the machine over the whole run
        if not probe_setup(SETUP_PROBES // 2):
            return 1
        info = setups[0]["info"]
        t0 = time.monotonic()
        while True:
            cache = run_dir / f"round{len(rounds)}"
            rnd = []
            for role in ROLES[args.workload]:
                out = None
                if args.trace:
                    out = trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}-r{len(rounds)}-{role}.json"
                rnd.append((role, spawn(role, args, cache, deadline, out)))
            rounds.append(rnd)
            if time.monotonic() - t0 >= args.seconds:
                break
        if not probe_setup(SETUP_PROBES - len(setups)):
            return 1
        if args.trace:
            probes = spawn("probes", args, run_dir / "probes", deadline)
            if probes is None:
                return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    correct = True
    children = list(setups) + ([probes] if probes else [])
    round_ops = []
    for rnd in rounds:
        ops = []
        for role, res in rnd:
            attempted += OPS_PER_ROLE[role]
            if res is None:
                failed += OPS_PER_ROLE[role]
                continue
            children.append(res)
            good = 0
            for op in res["ops"]:
                if op["failures"]:
                    correct = False
                    for msg in op["failures"]:
                        sys.stderr.write(f"zetabench: {op['name']} FAILED {msg}\n")
                elif op["error"]:
                    sys.stderr.write(f"zetabench: {op['name']} raised {op['error']}\n")
                else:
                    good += 1
                ops.append(op)
            failed += OPS_PER_ROLE[role] - good
        if ops:
            round_ops.append(ops)
    if not round_ops:
        sys.stderr.write("zetabench: no operation completed\n")
        return 1

    if args.trace:
        from spans import LAYER_UNITS

        per_round = {k: [0] * len(rounds) for k in LAYER_UNITS}
        for i, rnd in enumerate(rounds):
            for _, res in rnd:
                for k, v in (res or {}).get("layers", {}).items():
                    per_round[k][i] += v
        values = {k: statistics.median_low(v) for k, v in per_round.items()}
        values.update(probes["probes"])
        units = dict(LAYER_UNITS)
        units.update({k: ("points/s" if k.endswith("per_s") else "ms") for k in probes["probes"]})
    else:
        values = {
            # set-up is ~0.2 s of interpreter start and imports; bursts of the
            # machine only ever add to it, so the least of many samples is steadiest
            "setup_s": min(c["setup_cpu"] for c in setups),
            "ops_cpu_s": statistics.median([sum(op["seconds"] for op in ops) for ops in round_ops]),
            "slowest_op_cpu_s": statistics.median([max(op["seconds"] for op in ops) for ops in round_ops]),
            "peak_rss_mb": max(c["rss_kb"] for c in children) / 1024.0,
        }
        units = E2E_UNITS

    print(f"zetabench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)} rounds={len(rounds)} "
          f"elapsed_s={time.monotonic() - t_start:.3f}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    by_op = {}
    for ops in round_ops:
        for op in ops:
            by_op.setdefault(op["name"], []).append(op)
    for name, ops in by_op.items():
        print(f"op {name}_s = {statistics.median(op['seconds'] for op in ops)!r} s CPU, "
              f"{statistics.median(op['wall'] for op in ops)!r} s wall (median of {len(ops)})")
    print(f"info setup_wall_s = {statistics.median(c['setup_wall'] for c in children)!r} s")
    cpu = [c["setup_cpu"] for c in setups]
    print(f"info setup_cpu_s = {min(cpu)!r} min, {statistics.quantiles(cpu, n=4)[0]!r} q1, "
          f"{statistics.median(cpu)!r} median of {len(cpu)} set-up children")
    points = [res["points_per_op"] * len(res["ops"]) / sum(op["seconds"] for op in res["ops"])
              for rnd in rounds for _, res in rnd if res and res.get("points_per_op") and res["ops"]]
    if points:
        print(f"op orbit_points_per_s = {statistics.median(points)!r} points/s (median of {len(points)})")
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"attempted={attempted} failed={failed} correct={str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
