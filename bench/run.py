"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository; the package is imported from its
``src``.  The workload's jobs run in whole rounds, in an order shuffled
by ``--seed``, for about ``--seconds`` (a whole number of rounds).  With
``--trace 0`` the last line of output carries the end-to-end metrics:
``pass_s``, the sum over jobs of each job's median repeat; ``peak_rss_mb``;
and ``setup_s``, the median time for a fresh interpreter to import
``genusforge.cli``.  With ``--trace 1`` it carries the per-layer split
of a traced run instead.  Raw results, stamped with the Python and numpy
versions, ``nproc`` and the commit, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 12
# measuring stops by this, whatever --seconds says, so a run ends within 180 s
HARD_LIMIT_S = 120.0
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
UNITS = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_CODE = ("import time; t = time.perf_counter(); import genusforge.cli; "
              "print(time.perf_counter() - t)")


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repo
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit()}


def setup_once() -> float:
    """Seconds a fresh interpreter takes to import genusforge.cli."""
    env = {k: v for k, v in os.environ.items() if k != "GENUSFORGE_THREADS"}
    env.update(ONE_THREAD, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def run_rounds(jobs, seconds: float, seed: int, tracer=None) -> dict:
    """Whole rounds of every job, shuffled per round, for about seconds.

    Without a tracer, set-up is timed between jobs, about SETUP_RUNS times
    spread over the run, so that its median does not rest on one moment
    of a machine whose speed drifts.
    """
    from jobs import clear_caches
    import spans

    rng = random.Random(seed)
    times = {job.name: [] for job in jobs}
    splits = {job.name: [] for job in jobs}
    problems, errors, attempted, setup = [], [], 0, []
    budget = min(seconds, HARD_LIMIT_S)
    if tracer is None:
        setup_once()  # compiles the bytecode the timed imports then read
    start = last_setup = perf_counter()
    rounds = 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        for job in order:
            clear_caches()
            gc.collect()
            if tracer is not None:
                tracer.start()
            attempted += 1
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception as err:  # a job that raises counts as failed
                if tracer is not None:
                    tracer.stop()
                errors.append(f"{job.name}: {type(err).__name__}: {err}")
                continue
            elapsed = perf_counter() - t0
            if tracer is not None:
                recorded, counts = tracer.stop()
                spans_at = [[n, a - t0, b - t0, parent, attrs]
                            for n, a, b, parent, attrs in recorded]
                splits[job.name].append(
                    (spans.layer_split(recorded, counts, elapsed), spans_at))
            times[job.name].append(elapsed)
            problems += [f"{job.name}: {p}" for p in job.check(out)]
            if tracer is None and (not setup or perf_counter() - last_setup
                                   >= seconds / SETUP_RUNS):
                setup.append(setup_once())
                last_setup = perf_counter()
        rounds += 1
        spent = perf_counter() - start
        # another round only if at least half of it fits: the round count is
        # seconds over round time, rounded, so a round time close to a whole
        # fraction of seconds cannot halve the number of repeats
        if spent + spent / rounds / 2 > budget:
            break
    return {"rounds": rounds, "times": times, "splits": splits, "setup": setup,
            "problems": problems, "errors": errors, "attempted": attempted}


def median_repeat(times: dict) -> dict:
    """Per job, the index of its median repeat (the lower middle one of an
    even count): the statistic pass_s sums."""
    return {name: sorted(range(len(ts)), key=ts.__getitem__)[(len(ts) - 1) // 2]
            for name, ts in times.items() if ts}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "genusforge" / "cli.py").is_file():
        print(f"no genusforge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GENUSFORGE_THREADS", None)
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    import genusforge
    if Path(genusforge.__file__).resolve().parent != SRC / "genusforge":
        print(f"imported genusforge from {genusforge.__file__}", file=sys.stderr)
        return 2
    from jobs import WORKLOADS
    import spans

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    jobs = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    res = run_rounds(jobs, args.seconds, args.seed, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    mid = median_repeat(res["times"])
    job_s = {name: res["times"][name][i] for name, i in mid.items()}
    if args.trace:
        tracer.uninstall()
        values = spans.combine(res["splits"][name][i][0] for name, i in mid.items())
        metrics = {name: {"value": values[name], "unit": spans.LAYER_METRICS[name]}
                   for name in spans.LAYER_METRICS}
    else:
        values = {"pass_s": sum(job_s.values()), "peak_rss_mb": peak_mb,
                  "setup_s": statistics.median(res["setup"])}
        metrics = {name: {"value": v, "unit": UNITS[name]}
                   for name, v in values.items()}
    # correct speaks of the jobs that ran to their end; those that raised
    # count as failed
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": len(res["errors"]), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "env": env,
           "rounds": res["rounds"], "job_times_s": res["times"],
           "setup_times_s": res["setup"], "problems": res["problems"],
           "errors": res["errors"],
           "result": result}
    if args.trace:
        # the median traced repeat of each job: its layer split and its
        # spans, with times in seconds from the job's start
        raw["job_splits"] = {name: res["splits"][name][i][0]
                             for name, i in mid.items()}
        raw["job_spans"] = {name: res["splits"][name][i][1]
                            for name, i in mid.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for p in res["errors"] + res["problems"]:
        print("problem " + p)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
