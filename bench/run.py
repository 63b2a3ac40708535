"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tower --seed 1 --seconds 20 --trace 0

The command starts the workload in fresh interpreters: two that only set
up, then one that sets up and runs the timed closed loop.  ``setup_s`` is
the median, over the three, of the time from starting the interpreter to
the moment it is ready for its first timed task.  The command and every
process it starts run on one CPU.  Task times are speed-corrected: scaled
by the machine speed that a fixed probe kernel measures next to them on
that CPU (see ``probe.py`` and README.md), and so are the set-up times;
wall times are printed and recorded too.  With
``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Run
records and span traces go to ``bench/out/``.
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

import probe  # this file's directory is on the path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUPS = 3  # interpreters that set up; setup_s is their median


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["tower", "target", "bubble", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--role", choices=["main", "setup", "worker"], default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "main":
        return orchestrate(args)
    return worker(args)


# --------------------------------------------------------------------------
# parent: time the set-ups, collect the worker's result
# --------------------------------------------------------------------------


def _start(args, role: str) -> tuple[subprocess.Popen, tuple | None]:
    """Start a child in ``role``; return it and its set-up time as (wall,
    speed-corrected) seconds, or None when it exited before reporting
    ready.  The probes around the set-up are one taken here just before
    the child starts and the one the child takes right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    before = probe.interpreter_probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    wall = None
    for line in proc.stdout:
        if line.strip() == "READY":
            wall = time.perf_counter() - t0
        elif wall is not None and line.startswith("PROBE "):
            return proc, (wall, probe.corrected(wall, before, float(line.split()[1])))
    return proc, None


def orchestrate(args) -> int:
    # one CPU for this process and every process it starts, so the speed
    # probe runs on the CPU whose speed the measured work gets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = []
    # a traced run reports no end-to-end metric, so it sets up only once
    for _ in range(SETUPS - 1 if args.trace == 0 else 0):
        proc, dt = _start(args, "setup")
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or dt is None:
            print(f"error: set-up of {args.workload} failed", file=sys.stderr)
            return 1
        setups.append(dt)
    proc, dt = _start(args, "worker")
    rest = proc.stdout.read().splitlines()
    proc.stdout.close()
    if proc.wait() != 0 or dt is None or not rest:
        print(f"error: workload {args.workload} failed", file=sys.stderr)
        return 1
    setups.append(dt)
    result = json.loads(rest[-1])
    for line in rest[:-1]:
        print(line)
    if args.trace == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(c for _, c in setups), "unit": "s"}
        print(f"setup_s samples: {', '.join(f'{c:.4f}' for _, c in setups)}; "
              f"wall clock {', '.join(f'{w:.4f}' for w, _ in setups)}")
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# worker: set up, run the closed loop, check, report
# --------------------------------------------------------------------------


def worker(args) -> int:
    sys.path.insert(0, str(BENCH))
    import metrics
    import workloads as W

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = W.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        print("READY", flush=True)
        print(f"PROBE {probe.interpreter_probe()!r}", flush=True)
        if args.role == "setup":
            return 0
        if args.trace == 0:
            run = metrics.timed_loop(wl, args.seconds)
        else:
            run = metrics.traced_loop(wl, args.seconds, args.seed, workdir)
        bad = wl.check(run.pop("outputs"), W.EXPECT[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in bad[:20]:
        print(f"CHECK FAILED: {msg}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": metrics.stamp(), "check_failures": bad, **run,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in run["summary"]:
        print(line)
    print(f"machine: {json.dumps(record['machine'])}")
    print(json.dumps({"correct": not bad, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
