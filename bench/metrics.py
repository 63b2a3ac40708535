"""The timed loop, the traced loop and the metrics drawn from them."""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import time
import traceback

import numpy as np
import scipy

import spans
import workloads as W
import probe
from spans import END, EXTRA, NAME, PARENT, RHS_CALLS, RHS_S, START, TASK

# metrics each workload's traced round yields; a traced run takes the ones
# its own loop lacks from one traced task of the others, in this order
PROVIDES = {
    "target": {"systems.", "ode_engine.shoot.", "ode_engine.find_decaying."},
    "bubble": {"ode_engine.value_at.", "ode_engine.log_deriv_at.",
               "ode_engine.mass_at.", "analysis.", "profile_io.read_profile_json."},
    "cli": {"cli.", "spectrum.", "profile_io.write_profile_json.",
            "profile_io.bytes_written"},
    "tower": {"systems.", "ode_engine.shoot."},
}

LAYER_METRICS = [
    ("systems.rhs.calls", "count"),
    ("systems.rhs.us_per_call", "us"),
    ("ode_engine.shoot.calls", "count"),
    ("ode_engine.shoot.ms", "ms"),
    ("ode_engine.shoot.overhead_us_per_rhs", "us"),
    ("ode_engine.shoot.useful_rhs_share", "ratio"),
    ("ode_engine.shoot.samples", "count"),
    ("ode_engine.find_decaying.ms", "ms"),
    ("ode_engine.value_at.us", "us"),
    ("ode_engine.log_deriv_at.us", "us"),
    ("ode_engine.mass_at.us", "us"),
    ("analysis.pohozaev_check.us", "us"),
    ("analysis.su4_radial_balance.us", "us"),
    ("analysis.bubble_masses.ms", "ms"),
    ("analysis.nearest_member.us", "us"),
    ("spectrum.enumerate_su3.s", "s"),
    ("spectrum.enumerate_su3.members", "count"),
    ("spectrum.enumerate_su3.peak_rss_mb", "MB"),
    ("profile_io.read_profile_json.ms", "ms"),
    ("profile_io.write_profile_json.ms", "ms"),
    ("profile_io.bytes_written", "B"),
    ("cli.import_s", "s"),
    ("cli.spectrum_check.modules", "count"),
    ("cli.spectrum_equiv.s", "s"),
    ("cli.spectrum_check.s", "s"),
    ("cli.shoot.s", "s"),
    ("cli.target.s", "s"),
    ("cli.bubble.s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
UNITS = dict(LAYER_METRICS)


def stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in W.THREAD_ENV},
    }


def _run_rounds(wl, seconds: float, on_round=None):
    """Whole rounds, starting another while it would end by ``seconds``
    plus half a round, so a run overshoots ``seconds`` by at most that.

    Returns per-task samples as (round, wall seconds, reported seconds)
    and the outputs; a part that raises counts as one failed operation.
    The workload's probe runs between parts, at most every 0.5 s.  A
    part's reported time is its wall time over the mean slowness of the
    probes on either side of it; a task's times are the sums over its
    ``wl.parts`` parts.
    """
    take = probe.interpreter_probe if wl.fresh_interpreters else probe.probe
    samples, outputs, attempted, failed = [], [], 0, 0
    probes = [take()]  # slowness; part k lies after probes[at[k]]
    at = []
    t_start = time.perf_counter()
    last_probe = t_start
    n_round = 0
    while True:
        tracer = on_round(n_round) if on_round else None
        t_round = time.perf_counter()
        for inp in wl.round:
            if time.perf_counter() - last_probe > 0.5:
                probes.append(take())
                last_probe = time.perf_counter()
            if tracer is not None:
                tracer.task = len(samples) // wl.parts
            t0 = time.perf_counter()
            try:
                a, f, out = wl.run(inp, tracer=tracer)
            except Exception:
                traceback.print_exc()
                a, f, out = 1, 1, None
            samples.append((n_round, time.perf_counter() - t0))
            at.append(len(probes) - 1)
            attempted, failed = attempted + a, failed + f
            if out is not None:
                outputs.append(out)
        n_round += 1
        now = time.perf_counter()
        if now - t_start + (now - t_round) / 2 > seconds and (
                on_round is None or n_round >= 2):
            break
    elapsed = time.perf_counter() - t_start
    probes.append(take())
    parts = [(r, s, probe.corrected(s, probes[k], probes[k + 1]))
             for (r, s), k in zip(samples, at)]
    n = wl.parts
    samples = [(parts[i][0], sum(p[1] for p in parts[i:i + n]),
                sum(p[2] for p in parts[i:i + n])) for i in range(0, len(parts), n)]
    return samples, outputs, attempted, failed, elapsed, probes


def timed_loop(wl, seconds: float) -> dict:
    samples, outputs, attempted, failed, elapsed, probes = _run_rounds(wl, seconds)
    wall = [s for _, s, _ in samples]
    times = [c for _, _, c in samples]
    if wl.name == "cli":
        rss = max((res["rss_mb"] for _, res in outputs), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m = {
        "task_s.p50": statistics.median(times),
        "tasks_per_s": len(times) / sum(times),
        "peak_rss_mb": rss,
    }
    units = {"task_s.p50": "s", "tasks_per_s": "1/s", "peak_rss_mb": "MB"}
    summary = [f"{wl.name}: {len(times)} tasks in {elapsed:.2f} s, "
               f"{attempted} operations, {failed} failed",
               f"wall clock: task_s.p50 {statistics.median(wall):.6f} s, "
               f"tasks_per_s {len(wall) / elapsed:.6f}; machine speed "
               f"{1.0 / statistics.median(probes):.3f} of reference "
               f"({1.0 / max(probes):.3f}-{1.0 / min(probes):.3f} in "
               f"{len(probes)} probes)"]
    tail = None
    if len(times) >= 100:  # ten samples beyond the 90th percentile
        tail = statistics.quantiles(times, n=10)[8]
        summary.append(f"task_s.p90 {tail:.6f} s over {len(times)} tasks")
    else:
        summary.append(f"task_s.p90 not reported: {len(times)} tasks < 100")
    return {
        "outputs": outputs, "attempted": attempted, "failed": failed,
        "samples_s": times, "wall_samples_s": wall, "probe_slowness": probes,
        "task_s.p90": tail, "elapsed_s": elapsed,
        "wall_task_s.p50": statistics.median(wall),
        "wall_tasks_per_s": len(wall) / elapsed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in m.items()},
        "summary": summary,
    }


def traced_loop(wl, seconds: float, seed: int, workdir) -> dict:
    """Rounds alternate traced and untraced over the same inputs; the ratio
    of their median task times is the tracing overhead."""
    tracer = spans.Tracer()

    def on_round(n):
        if n % 2 == 0:
            tracer.patch()
            return tracer
        tracer.unpatch()
        return None

    samples, outputs, attempted, failed, _, _ = _run_rounds(wl, seconds, on_round)
    tracer.unpatch()
    traced = [c for r, _, c in samples if r % 2 == 0]
    untraced = [c for r, _, c in samples if r % 2 == 1]
    m = layer_metrics(tracer.spans, len(wl.round) // wl.parts)
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    source = {k: wl.name for k in m}
    trace_files = [_dump(tracer, wl.name, seed, wl.name)]
    for other in PROVIDES:
        missing = [k for k in UNITS if k not in m]
        if other == wl.name or not any(k.startswith(p) for k in missing
                                       for p in PROVIDES[other]):
            continue
        sweep = W.WORKLOADS[other](seed, workdir)
        sweep.setup()
        sweep_tracer = spans.Tracer()
        sweep_tracer.patch()
        sweep_tracer.task = 0
        try:
            for inp in sweep.round[:sweep.parts]:  # its first task
                sweep.run(inp, tracer=sweep_tracer)
        finally:
            sweep_tracer.unpatch()
        for k, v in layer_metrics(sweep_tracer.spans, 1).items():
            if k not in m:
                m[k], source[k] = v, other
        trace_files.append(_dump(sweep_tracer, wl.name, seed, other))
    missing = [k for k in UNITS if k not in m]
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    summary = [f"{wl.name} traced: {len(traced)} traced and {len(untraced)} "
               f"untraced tasks; tracing overhead x{m['trace.overhead_ratio']:.3f}"]
    summary += [f"  {k} = {m[k]:.6g} {UNITS[k]}  [{source[k]}]" for k in UNITS]
    return {
        "outputs": outputs, "attempted": attempted, "failed": failed,
        "traced_s": traced, "untraced_s": untraced, "metric_source": source,
        "trace_files": trace_files,
        "metrics": {k: {"value": m[k], "unit": UNITS[k]} for k in UNITS},
        "summary": summary,
    }


def _dump(tracer, workload: str, seed: int, part: str) -> str:
    path = W.BENCH / "out" / f"trace-{workload}-seed{seed}-{part}.jsonl"
    tracer.dump(path, workload=workload, seed=seed, part=part)
    return path.name


def layer_metrics(recs: list, round_len: int) -> dict:
    """Per-layer metrics from spans.  Counts come from the first round's
    tasks (ids below ``round_len``), so they repeat exactly for a seed;
    times are medians (or rhs-weighted means) over every traced span."""
    by: dict[str, list] = {}
    for rec in recs:
        by.setdefault(rec[NAME], []).append(rec)
    dur = lambda rs: [r[END] - r[START] for r in rs]  # noqa: E731
    first = lambda rs: [r for r in rs if r[TASK] < round_len]  # noqa: E731
    m = {}

    shots = by.get("ode_engine.shoot", [])
    if shots:
        calls = sum(r[RHS_CALLS] for r in shots)
        child_s = {}
        for r in recs:
            if r[PARENT] >= 0:
                child_s[r[PARENT]] = child_s.get(r[PARENT], 0.0) + r[END] - r[START]
        self_s = sum(r[END] - r[START] - r[RHS_S] - child_s.get(i, 0.0)
                     for i, r in enumerate(recs) if r[NAME] == "ode_engine.shoot")
        m["systems.rhs.calls"] = sum(r[RHS_CALLS] for r in first(shots)) / round_len
        m["systems.rhs.us_per_call"] = 1e6 * sum(r[RHS_S] for r in shots) / calls
        m["ode_engine.shoot.calls"] = len(first(shots)) / round_len
        m["ode_engine.shoot.ms"] = 1e3 * statistics.median(dur(shots))
        m["ode_engine.shoot.overhead_us_per_rhs"] = 1e6 * self_s / calls
        m["ode_engine.shoot.useful_rhs_share"] = _useful_share(first(shots))
        m["ode_engine.shoot.samples"] = statistics.mean(
            r[EXTRA]["samples"] for r in first(shots))
    for name, scale, unit in (
        ("ode_engine.find_decaying", 1e3, "ms"),
        ("ode_engine.value_at", 1e6, "us"),
        ("ode_engine.log_deriv_at", 1e6, "us"),
        ("ode_engine.mass_at", 1e6, "us"),
        ("analysis.pohozaev_check", 1e6, "us"),
        ("analysis.su4_radial_balance", 1e6, "us"),
        ("analysis.bubble_masses", 1e3, "ms"),
        ("analysis.nearest_member", 1e6, "us"),
        ("profile_io.read_profile_json", 1e3, "ms"),
        ("profile_io.write_profile_json", 1e3, "ms"),
    ):
        if by.get(name):
            m[f"{name}.{unit}"] = scale * statistics.median(dur(by[name]))
    writes = first(by.get("profile_io.write_profile_json", []))
    if writes:
        m["profile_io.bytes_written"] = statistics.mean(r[EXTRA]["bytes"] for r in writes)

    enum = by.get("spectrum.enumerate_su3", [])
    if enum:
        top = max(r[EXTRA]["bound"] for r in enum)
        enum = [r for r in enum if r[EXTRA]["bound"] == top]
        m["spectrum.enumerate_su3.s"] = statistics.median(dur(enum))
        m["spectrum.enumerate_su3.members"] = enum[0][EXTRA]["members"]
        # peak RSS of the fresh CLI child that ran the largest enumeration
        roots = [recs[r[PARENT]] for r in enum if r[PARENT] >= 0]
        rss = [r[EXTRA]["rss_mb"] for r in roots if r[NAME].startswith("cli.")]
        if rss:
            m["spectrum.enumerate_su3.peak_rss_mb"] = statistics.median(rss)

    cli = [r for r in recs if r[NAME].startswith("cli.")]
    if cli:
        m["cli.import_s"] = statistics.median(r[EXTRA]["import_s"] for r in cli)
        for step in ("spectrum_equiv", "spectrum_check", "shoot", "target", "bubble"):
            rs = [r for r in cli if r[NAME] == f"cli.{step}"]
            if rs:
                m[f"cli.{step}.s"] = statistics.median(dur(rs))
        checks = first([r for r in cli if r[NAME] == "cli.spectrum_check"])
        if checks:
            m["cli.spectrum_check.modules"] = checks[0][EXTRA]["modules"]
    return m


def _useful_share(shots: list) -> float:
    """rhs calls of each shot re-run to its settled radius, over the rhs
    calls it spent.  The re-runs are counted with a fresh tracer."""
    useful = 0
    for r in shots:
        spec = W.ode_engine.ShootSpec.from_json_dict(r[EXTRA]["spec"])
        if r[EXTRA]["r_settled"] <= spec.r_start:
            continue
        counter = spans.Tracer()
        counter.patch()
        try:
            W.ode_engine.shoot(dataclasses.replace(spec, r_max=r[EXTRA]["r_settled"]))
        finally:
            counter.unpatch()
        useful += counter.spans[0][RHS_CALLS]
    return useful / sum(r[RHS_CALLS] for r in shots)
