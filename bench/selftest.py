"""Short-mode self-test of the benchmark itself.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all four by default) it checks that

1. every correctness check passes on a few real tasks and fails when one
   expected value in ``workloads.EXPECT`` is swapped for a wrong one;
2. the metric names printed by ``run.py`` match BENCHMARK.json, for an
   untraced and a traced run;
3. every per-layer count repeats exactly between two traced runs with the
   same seed, and the share of failed operations is the same for two seeds.

It takes about eight minutes; exit status 0 means every check held.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as W

SEED = 7
# one deliberately wrong expected value per check
WRONG = {
    "tower": {
        "sigma_shift": (4, 0, 0),
        "equal_components": (0, 2),
        "constraint": {"su3": (1.0, 1.0, 1.0), "su4": (1.0, 1.0, 2.0)},
        "su4_coefficient": 12.0,
    },
    "target": {"masses": (16.0, 16.0), "index": (1, -2), "witness_max": -1e3},
    "bubble": {
        "nearest": (16, 0, 8),
        "index": (1, -2),
        "balance_rel_tol": 1e-12,
        "tie_rule": "last",
    },
    "cli": {
        "equiv_extra": 1,
        "check_index": (1, -2),
        "singular_mass": 13.0,
        "target_masses": (16, 16),
        "nearest": (16, 0, 8),
        "index": (1, -2),
    },
}
# per-layer metrics that are counts, so two traced runs must agree exactly
COUNTS = ("systems.rhs.calls", "ode_engine.shoot.calls", "ode_engine.shoot.samples",
          "ode_engine.shoot.useful_rhs_share", "spectrum.enumerate_su3.members",
          "profile_io.bytes_written", "cli.spectrum_check.modules")


def check_rejections(name: str) -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=W.BENCH / "out") as tmp:
        wl = W.WORKLOADS[name](SEED, Path(tmp))
        wl.setup()
        tasks = wl.round
        if name == "tower":  # one shot of each variant is enough
            tasks = [next(t for t in tasks if t[0] == v) for v in ("su3", "su4")]
        outputs = [wl.run(inp)[2] for inp in tasks]
        bad = wl.check(outputs, W.EXPECT[name])
        if bad:
            problems.append(f"{name}: checks fail on real outputs: {bad}")
        for key, wrong in WRONG[name].items():
            if not wl.check(outputs, dict(W.EXPECT[name], **{key: wrong})):
                problems.append(f"{name}: check accepts wrong {key}={wrong!r}")
    return problems


def run(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(W.BENCH / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=W.ROOT,
    )
    return json.loads(out.stdout.splitlines()[-1])


def check_runs(name: str, spec: dict) -> list[str]:
    problems = []
    plain = run(name, SEED, 0)
    want = {m["name"] for m in spec["end_to_end"]}
    if set(plain["metrics"]) != want:
        problems.append(f"{name}: untraced metrics {sorted(plain['metrics'])}")
    if not plain["correct"]:
        problems.append(f"{name}: untraced run not correct")
    other = run(name, SEED + 1, 0)
    if plain["failed"] * other["attempted"] != other["failed"] * plain["attempted"]:
        problems.append(f"{name}: failed share differs between seeds: "
                        f"{plain['failed']}/{plain['attempted']} vs "
                        f"{other['failed']}/{other['attempted']}")
    traced = [run(name, SEED, 1) for _ in range(2)]
    want = {m["name"] for m in spec["per_layer"]}
    if set(traced[0]["metrics"]) != want:
        problems.append(f"{name}: traced metrics {sorted(traced[0]['metrics'])}")
    for key in COUNTS:
        a, b = (t["metrics"][key]["value"] for t in traced)
        if a != b:
            problems.append(f"{name}: {key} differs between traced runs: {a} vs {b}")
    return problems


def main(argv: list[str]) -> int:
    names = argv or list(W.WORKLOADS)
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    (W.BENCH / "out").mkdir(exist_ok=True)
    problems = []
    for name in names:
        found = check_rejections(name) + check_runs(name, spec)
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
