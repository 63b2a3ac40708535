"""The benchmark's four workloads: seeded inputs, one task, and its checks.

Every workload is a closed loop over one *round*: a fixed list of task
inputs (in ``cli``, of the steps of one task) drawn from the seed and
repeated until the run's time is up, so a run always attempts whole
rounds of the same operations.  Checks compare
the program's outputs with values computed here, apart from the program:
the mass set sigma(m1, m2) comes from this file's own loop over the
paper's formulas and residue rule, never from ``todalab.spectrum``.

``EXPECT`` holds every expected value a check uses.  The self-test swaps
each one for a wrong value and requires the check to fail.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
for _p in (SRC, BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from probe import THREAD_ENV  # noqa: E402  (sets one thread before numpy loads)

import numpy as np  # noqa: E402

import todalab  # noqa: E402
from todalab import analysis, ode_engine, profile_io, spectrum  # noqa: E402
from todalab.systems import SystemKind, Variant  # noqa: E402

import spans  # noqa: E402
from spans import plateaus  # noqa: E402

if Path(todalab.__file__).resolve().parent != SRC / "todalab":
    raise ImportError(f"todalab loaded from {todalab.__file__}, not from {SRC}")

SU3 = SystemKind(Variant.AFFINE_SU3)
SU4 = SystemKind(Variant.AFFINE_SU4)
PAIR = SystemKind(Variant.LIMIT_PAIR)

# the paper's linear constraints, u1+u2+2u3 = 0 (su3) and u1+u2+u3 = 0 (su4)
CONSTRAINT = {"su3": (1.0, 1.0, 2.0), "su4": (1.0, 1.0, 1.0)}
LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
DELTA = 0.1

EXPECT = {
    "tower": {
        "plateau_tol": 0.1,
        "sigma_shift": (0, 0, 0),
        "equal_components": (0, 1),
        "constraint": CONSTRAINT,
        "su4_coefficient": 8.0,
        "su4_rel_tol": 1e-2,
    },
    "target": {
        "masses": (16.0, 12.0),
        "mass_rel_tol": 0.01,
        "index": (1, -3),
        "witness_max": -10.0,
    },
    "bubble": {
        "nearest": (16, 0, 12),
        "index": (1, -3),
        "balance_rel_tol": 1e-4,
        "tie_rule": "first",
    },
    "cli": {
        "equiv_bound": 1000,
        "equiv_extra": 0,
        "check_index": (1, -3),
        "singular_mass": 12.0,
        "singular_rel_tol": 0.005,
        "target_masses": (16, 12),
        "nearest": (16, 0, 12),
        "index": (1, -3),
    },
}


# --------------------------------------------------------------------------
# oracle: the paper's parametrization, computed here
# --------------------------------------------------------------------------


def sigma_members(bound: int) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Every triple sigma(m1, m2) with components in [0, bound], minus the
    origin, under the residue rule (m1, m2 both in {0,1} or both in {2,3}
    mod 4), mapped to its index pair."""
    out = {}
    w = math.isqrt(bound) + 3  # s3 >= m(m-1) for each index bounds |m|
    for m1 in range(-w, w + 1):
        for m2 in range(-w, w + 1):
            if (m1 % 4 < 2) != (m2 % 4 < 2):
                continue
            t = (
                m1 * (m1 + 3) + m2 * (m2 - 1),
                m1 * (m1 - 1) + m2 * (m2 + 3),
                m1 * (m1 - 1) + m2 * (m2 - 1),
            )
            if t != (0, 0, 0) and min(t) >= 0 and max(t) <= bound:
                out[t] = (m1, m2)
    return out


def index_of(triple) -> tuple[int, int] | None:
    """(m1, m2) = ((s1-s3)/4, (s2-s3)/4) when sigma(m1, m2) gives the triple."""
    s1, s2, s3 = (int(x) for x in triple)
    if (s1 - s3) % 4 or (s2 - s3) % 4:
        return None
    m = ((s1 - s3) // 4, (s2 - s3) // 4)
    return m if sigma_members(max(s1, s2, s3, 0)).get((s1, s2, s3)) == m else None


def own_nearest(members: list, query, tie_rule: str = "first"):
    """Exact Euclidean argmin over ``members`` (sorted lexicographically);
    ties go to the first member in that order, or the last for
    ``tie_rule="last"``."""
    q = [Fraction(x) for x in query]
    best, best_d2 = None, None
    for t in members:
        d2 = sum((a - b) ** 2 for a, b in zip(q, t))
        if best is None or d2 < best_d2 or (d2 == best_d2 and tie_rule == "last"):
            best, best_d2 = t, d2
    return best, math.sqrt(best_d2)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One workload: ``setup`` builds the round's inputs and warms up,
    ``run`` performs one part of a task and returns (attempted, failed,
    output), and ``check`` returns the failure messages for a list of
    outputs."""

    name = ""
    # round entries per task: a task is ``parts`` consecutive calls of run
    parts = 1
    # the work runs in fresh interpreters, so probe.interpreter_probe
    # rather than probe.probe measures its speed
    fresh_interpreters = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, inp, tracer=None):
        raise NotImplementedError

    def check(self, outputs: list, expect: dict) -> list[str]:
        raise NotImplementedError


class Tower(Workload):
    """Tall shots to r_max = 1e3: bubbles climb, then the far field grinds
    on until mass_guard stops the shot.

    A round draws one height from each of 8 equal strata of su3 heights in
    [14, 30] and 4 of su4 heights in [9, 14], so every seed gets the same
    spread of shot costs (1.1 to 1.8 s each on the reference machine).
    """

    name = "tower"
    STRATA = {"su3": (14.0, 30.0, 8), "su4": (9.0, 14.0, 4)}

    def setup(self):
        self.round = []
        for variant, (lo, hi, n) in self.STRATA.items():
            for i in range(n):
                h = lo + (hi - lo) * (i + self.rng.random()) / n
                heights = (-h, -h, h) if variant == "su3" else (-h, -h, 2.0 * h)
                self.round.append((variant, heights))
        self.rng.shuffle(self.round)
        self.sigma = sigma_members(400)
        variant, heights = self.round[0]
        ode_engine.shoot(ode_engine.ShootSpec(_system(variant), heights, r_max=1.0))

    def run(self, inp, tracer=None):
        variant, heights = inp
        prof = ode_engine.shoot(
            ode_engine.ShootSpec(_system(variant), heights, r_max=1e3)
        )
        return 1, 0, (variant, prof)

    def check(self, outputs, expect):
        bad = []
        shift = np.array(expect["sigma_shift"])
        members = np.array(list(self.sigma), dtype=float) + shift
        for variant, p in outputs:
            tag = f"{variant} {p.spec.init_heights[2]:.4f}"
            ks = plateaus(p.grid, p.values)
            if not ks:
                bad.append(f"{tag}: no settled plateau")
            for k in ks:
                d = np.min(np.linalg.norm(members - p.masses[k], axis=1))
                if d > expect["plateau_tol"]:
                    bad.append(f"{tag}: plateau {np.round(p.masses[k], 4)} is "
                               f"{d:.3g} from sigma")
            scale = 1.0 + np.max(np.abs(p.values))
            i, j = expect["equal_components"]  # the data has u1(0) = u2(0)
            asym = np.max(np.abs(p.values[:, i] - p.values[:, j]))
            if asym > 1e-9 * scale:
                bad.append(f"{tag}: u{i + 1} - u{j + 1} reaches {asym:.3g}")
            drift = np.max(np.abs(p.values @ np.array(expect["constraint"][variant])))
            if drift > 1e-8 * scale:
                bad.append(f"{tag}: constraint violated by {drift:.3g}")
            if variant == "su4" and ks:
                k = min(ks, key=lambda j: np.max(p.values[j] + 2 * math.log(p.grid[j])))
                m, r = p.masses[k], p.grid[k]
                quad = (m[0] - m[1]) ** 2 + (m[1] - m[2]) ** 2 + (m[2] - m[0]) ** 2
                c = expect["su4_coefficient"]
                defect = r * r * np.sum(np.exp(p.values[k]))
                rel = abs(quad - (c * m.sum() - 4 * defect)) / (c * m.sum())
                if rel > expect["su4_rel_tol"]:
                    bad.append(f"{tag}: su4 balance off by {rel:.3g} at r={r:.3g}")
        return bad


class Target(Workload):
    """find_decaying searches on the limit pair; each shot decays to 1e6."""

    name = "target"
    ROUND = 12

    def setup(self):
        self.round = [
            (self.rng.uniform(1.8, 2.4), (-self.rng.uniform(3.0, 6.0),
                                          self.rng.uniform(3.0, 6.0)))
            for _ in range(self.ROUND)
        ]
        self.run(self.round[0])

    def run(self, inp, tracer=None):
        anchor, bracket = inp
        _, prof = ode_engine.find_decaying(PAIR, 0, anchor, bracket)
        totals, _ = ode_engine.total_masses(prof)
        witness = prof.values[-1] + 2.0 * math.log(prof.r_end)
        return 1, 0, (tuple(totals), tuple(witness))

    def check(self, outputs, expect):
        bad = []
        m_exp = np.array(expect["masses"])
        for totals, witness in outputs:
            if np.any(np.abs(np.array(totals) - m_exp) > expect["mass_rel_tol"] * m_exp):
                bad.append(f"masses {totals} not within 1% of {tuple(m_exp)}")
            if max(witness) > expect["witness_max"]:
                bad.append(f"final witness {max(witness):.3g} above "
                           f"{expect['witness_max']}")
            slots = (4 * round(totals[0] / 4), 0, 4 * round(totals[1] / 4))
            if index_of(slots) != tuple(expect["index"]):
                bad.append(f"{slots} has index {index_of(slots)}")
        got = spectrum.membership_su3(spectrum.MassTriple(16, 0, 12))
        if got is None or (got.m1, got.m2) != tuple(expect["index"]):
            bad.append(f"membership_su3(16, 0, 12) gave {got}")
        return bad


class Bubble(Workload):
    """Full reports over stored profiles; the timed part integrates nothing.

    Balance queries between grid nodes use fixed radii, not seeded ones:
    ``value_at``/``log_deriv_at`` interpolate linearly while ``mass_at`` is
    cubic, so some of them miss the tolerance every grid-node query meets.
    Those misses are the workload's counted failures, and fixed radii keep
    their count the same for every seed.
    """

    name = "bubble"
    N_NODES = 16  # seeded grid-node queries per profile
    MID_STRIDE = 4  # every 4th interval midpoint past the first decade
    N_QUERIES = 8  # seeded nearest_member queries

    def setup(self):
        _, pair = ode_engine.find_decaying(PAIR, 0, math.log(8.0), (-5.0, 5.0))
        su3 = ode_engine.shoot(ode_engine.ShootSpec(SU3, (-28.0, -28.0, 28.0), r_max=1e3))
        su4 = ode_engine.shoot(ode_engine.ShootSpec(SU4, (-12.0, -12.0, 24.0), r_max=1e3))
        self.paths = {}
        for key, prof in (("pair", pair), ("su3", su3), ("su4", su4)):
            self.paths[key] = self.workdir / f"bubble_{key}.json"
            profile_io.write_profile_json(prof, self.paths[key])
        self.spectrum = spectrum.enumerate_su3(400)
        self.members = sorted(sigma_members(400))
        self.radii = {}
        for key, prof in (("su3", su3), ("su4", su4)):
            g = prof.grid[prof.spec.samples_per_decade:]
            nodes = sorted(self.rng.sample(range(len(g)), self.N_NODES))
            mids = np.sqrt(g[:-1] * g[1:])[:: self.MID_STRIDE]
            self.radii[key] = ([float(g[k]) for k in nodes], [float(r) for r in mids])
        self.queries = []
        for i in range(self.N_QUERIES):
            a = self.rng.choice(self.members)
            if i % 2 == 0:
                q = tuple(x + self.rng.uniform(-1.5, 1.5) for x in a)
            else:  # midpoint to a nearest neighbour: an exact tie
                b, _ = own_nearest([t for t in self.members if t != a], a)
                q = tuple((x + y) / 2 for x, y in zip(a, b))
            self.queries.append(q)
        self.round = [None]
        self.run(None)

    def run(self, inp, tracer=None):
        profs = {k: profile_io.read_profile_json(p) for k, p in self.paths.items()}
        report = analysis.bubble_masses(profs["pair"], LADDER, DELTA, self.spectrum)
        tol = EXPECT["bubble"]["balance_rel_tol"]
        node_rel, mid_fail = [], 0
        for key, fn in (("su3", _poho_rel), ("su4", _su4_rel)):
            nodes, mids = self.radii[key]
            node_rel += [fn(profs[key], r) for r in nodes]
            mid_fail += sum(fn(profs[key], r) > tol for r in mids)
        near = [analysis.nearest_member(self.spectrum, q) for q in self.queries]
        attempted = (len(profs) + 1 + len(node_rel)
                     + sum(len(m) for _, m in self.radii.values()) + len(near))
        out = {
            "nearest": report.nearest.as_tuple(),
            "index": (report.nearest_index.m1, report.nearest_index.m2),
            "node_rel": node_rel,
            "near": [(t.as_tuple(), (i.m1, i.m2), d) for t, i, d in near],
        }
        return attempted, int(mid_fail), out

    def check(self, outputs, expect):
        bad = []
        own = [own_nearest(self.members, q, expect["tie_rule"]) for q in self.queries]
        own = [(t, index_of(t), d) for t, d in own]
        for out in outputs:
            if tuple(out["nearest"]) != tuple(expect["nearest"]):
                bad.append(f"nearest member {out['nearest']}")
            if tuple(out["index"]) != tuple(expect["index"]) or \
                    index_of(out["nearest"]) != tuple(out["index"]):
                bad.append(f"nearest index {out['index']}")
            worst = max(out["node_rel"])
            if worst > expect["balance_rel_tol"]:
                bad.append(f"grid-node balance misses by {worst:.3g}")
            for q, (t, idx, d), (t_own, idx_own, d_own) in zip(self.queries, out["near"], own):
                if tuple(t) != t_own or tuple(idx) != idx_own \
                        or abs(d - d_own) > 1e-9 * (1 + d_own):
                    bad.append(f"nearest_member{q} gave {t}, own argmin {t_own}")
        return bad


class Cli(Workload):
    """The README's command-line session, one fresh interpreter per step.

    A round is the session's steps and a task is the whole session.  Each
    step is a part of its own, so the speed probe runs between steps and
    every step's time is corrected by the speed measured right around it.
    """

    name = "cli"
    fresh_interpreters = True

    def setup(self):
        h = self.rng.uniform(-2.0, 2.0)
        anchor = self.rng.uniform(1.8, 2.4)
        lo, hi = -self.rng.uniform(3.0, 6.0), self.rng.uniform(3.0, 6.0)
        w = self.workdir
        bound = EXPECT["cli"]["equiv_bound"]
        self.round = [
            ("spectrum_equiv", ["spectrum", "equiv", "--bound", str(bound)]),
            ("spectrum_check", ["spectrum", "check", "--triple", "16,0,12"]),
            ("shoot", ["shoot", "--system", "liouville", "--weights", "2",
                       f"--height={h!r}", "--out", str(w / "singular.csv")]),
            ("target", ["target", "--system", "limitpair", f"--anchor={anchor!r}",
                        f"--bracket={lo!r},{hi!r}", "--out", str(w / "pair.json")]),
            ("bubble", ["bubble", "--base", str(w / "pair.json"), "--ladder",
                        ",".join(map(str, LADDER)), "--delta", str(DELTA),
                        "--out", str(w / "report.json"),
                        "--series-prefix", str(w / "bubble")]),
        ]
        self.parts = len(self.round)
        self.own_count = len(sigma_members(bound))
        subprocess.run([sys.executable, "-c", "import todalab.cli"], env=child_env(),
                       check=True, cwd=self.workdir)

    def run(self, inp, tracer=None):
        step, args = inp
        cmd = [sys.executable, "-m", "todalab", *args, "--json"]
        span_file = None
        if tracer is not None:
            span_file = self.workdir / f"spans_{step}.jsonl"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(span_file),
                   *args, "--json"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                cwd=self.workdir)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        res = {
            "rc": proc.returncode,
            "s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "payload": json.loads(stdout) if proc.returncode == 0 else None,
        }
        if span_file is not None:
            spans.merge_child(tracer, step, t0, t0 + wall, res, span_file)
        return 1, 0, (step, res)

    def check(self, outputs, expect):
        bad = []
        steps = [step for step, _ in self.round]
        sessions = []
        for step, res in outputs:
            if step == steps[0] or not sessions:
                sessions.append({})
            sessions[-1][step] = res
        for out in sessions:
            missing = [step for step in steps if step not in out]
            if missing:
                bad.append(f"session without output of {missing}")
                continue
            for step, res in out.items():
                if res["rc"] != 0:
                    bad.append(f"{step} exited {res['rc']}")
            if any(res["rc"] != 0 for res in out.values()):
                continue
            count = out["spectrum_equiv"]["payload"]["count"]
            if count != self.own_count + expect["equiv_extra"]:
                bad.append(f"equiv counted {count}, parametrization gives "
                           f"{self.own_count}")
            chk = out["spectrum_check"]["payload"]
            if not chk["member"] or tuple(chk["index"]) != tuple(expect["check_index"]):
                bad.append(f"check 16,0,12 gave {chk['member']} {chk['index']}")
            mass = out["shoot"]["payload"]["final_masses"][0]
            if abs(mass - expect["singular_mass"]) > \
                    expect["singular_rel_tol"] * expect["singular_mass"]:
                bad.append(f"singular mass {mass:.6g}, want 4(1+b) = 12")
            got = tuple(round(x) for x in out["target"]["payload"]["masses"])
            if got != tuple(expect["target_masses"]):
                bad.append(f"target masses {got}")
            rep = out["bubble"]["payload"]
            if tuple(rep["nearest"]) != tuple(expect["nearest"]) or \
                    tuple(rep["nearest_index"]) != tuple(expect["index"]):
                bad.append(f"bubble report {rep['nearest']} {rep['nearest_index']}")
        return bad


WORKLOADS = {w.name: w for w in (Tower, Target, Bubble, Cli)}


def child_env() -> dict:
    """Environment of every CLI child: one thread, the checkout's sources."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _system(variant: str) -> SystemKind:
    return SU3 if variant == "su3" else SU4


def _poho_rel(p, r: float) -> float:
    """|Pohozaev balance| over the sum of its terms' sizes, su3 profile."""
    c = analysis.pohozaev_check(p, r)
    s1, s2, s3 = c.triple
    scale = (s1 - s3) ** 2 + (s2 - s3) ** 2 + 4 * (s1 + s2 + 2 * s3) + c.boundary_defect
    return abs(c.balance_residual) / scale


def _su4_rel(p, r: float) -> float:
    """|quad - (8 sum - 4 defect)| over the sum of its terms' sizes."""
    b = analysis.su4_radial_balance(p, r)
    scale = b.quad_mass + 8 * b.mass_sum + 4 * b.boundary_defect
    return abs(b.defect_corrected_residual) / scale
