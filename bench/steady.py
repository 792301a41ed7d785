"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workload reconstruct

Reads the command, run length, workloads and bounds from BENCHMARK.json.
Each of the two sets runs every workload ``--runs`` times with a fresh
seed per run (1, 2, ... across both sets), workloads interleaved so that
a slow spell of the machine touches all of them.  For each end-to-end
metric and workload it prints each set's median and quartiles, the
spread (quartile distance over median), and the relative difference of
the second median from the first, next to the metric's bound.  The sets
are steady when every spread and the size of every difference stay
within the bound, and the share of failed operations is the same in
every run.
Raw lines go to ``bench/out/steady-<time>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETS = 2


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(workload=workload, seed=seed, wall_s=wall)
    return out


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(spec: dict, sets: tuple[list[dict], list[dict]]) -> bool:
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<12} {'metric':<12} " + " ".join(
        f"{'set' + str(s + 1) + ' med [q1, q3] spread':>36}" for s in range(len(sets)))
        + f" {'diff':>8} {'bound':>6}")
    for w in (wl["name"] for wl in spec["workloads"]):
        for name, bound in bounds.items():
            cols, meds = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == w]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                cols.append(f"{med:10.4g} [{q1:8.4g}, {q3:8.4g}] {sp:6.1%}")
                if sp > bound:
                    ok = False
            diff = (meds[1] - meds[0]) / meds[0]
            if abs(diff) > bound:
                ok = False
            print(f"{w:<12} {name:<12} " + " ".join(f"{c:>36}" for c in cols)
                  + f" {diff:8.1%} {bound:6.0%}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs
                          if r["workload"] == w}) for runs in sets]
        walls = [max(r["wall_s"] for r in runs if r["workload"] == w)
                 for runs in sets]
        print(f"{w:<12} failed share per set {shares}; longest run "
              f"{max(walls):.1f} s")
        if any(s != shares[0] or len(s) != 1 for s in shares):
            ok = False
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="limit to this workload (repeatable)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("quartiles need at least two runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload:
        spec["workloads"] = [w for w in spec["workloads"]
                             if w["name"] in args.workload]
    OUT.mkdir(exist_ok=True)
    log = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    sets, seed = [], 1
    with log.open("w") as fh:
        for s in range(SETS):
            runs = []
            for _ in range(args.runs):
                for w in spec["workloads"]:
                    r = one_run(spec, w["name"], seed)
                    r["set"] = s + 1
                    runs.append(r)
                    fh.write(json.dumps(r) + "\n")
                    fh.flush()
                    print(f"set {s + 1} {w['name']} seed {seed}: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                        file=sys.stderr, flush=True)
                seed += 1
            sets.append(runs)
    ok = report(spec, tuple(sets))
    print("steady" if ok else "NOT steady", f"(raw runs in {log.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
