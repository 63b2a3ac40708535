"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each todalab layer where their
callers look them up: module attributes (``todalab.ode_engine.shoot`` is
what ``find_decaying`` calls), names other modules imported with
``from ... import`` (``todalab.cli.shoot``), and class attributes
(``SystemKind.rhs``, ``RadialProfile.value_at``).  Nothing inside the
program is edited; every span is recorded from this file.

A span is ``[name, start, end, parent, task, rhs_calls, rhs_s, extra]``.
The right-hand side is called tens of thousands of times per shot, so it
gets no span of its own: each call adds one count and its duration to the
innermost open span, which is how a shot's self time outside the rhs is
measured.  At import this module loads only the standard library, so
loading it in a CLI child does not change which program modules that
child loads.
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import json
import math
import os
import sys
from time import perf_counter

# (module, class or None, attribute) -> span name; the span name is the layer
TARGETS = {
    ("todalab.systems", "SystemKind", "rhs"): "systems.rhs",
    ("todalab.ode_engine", None, "shoot"): "ode_engine.shoot",
    ("todalab.ode_engine", None, "find_decaying"): "ode_engine.find_decaying",
    ("todalab.ode_engine", "RadialProfile", "value_at"): "ode_engine.value_at",
    ("todalab.ode_engine", "RadialProfile", "log_deriv_at"): "ode_engine.log_deriv_at",
    ("todalab.ode_engine", "RadialProfile", "mass_at"): "ode_engine.mass_at",
    ("todalab.analysis", None, "pohozaev_check"): "analysis.pohozaev_check",
    ("todalab.analysis", None, "su4_radial_balance"): "analysis.su4_radial_balance",
    ("todalab.analysis", None, "bubble_masses"): "analysis.bubble_masses",
    ("todalab.analysis", None, "nearest_member"): "analysis.nearest_member",
    ("todalab.spectrum", None, "enumerate_su3"): "spectrum.enumerate_su3",
    ("todalab.profile_io", None, "read_profile_json"): "profile_io.read_profile_json",
    ("todalab.profile_io", None, "write_profile_json"): "profile_io.write_profile_json",
}

NAME, START, END, PARENT, TASK, RHS_CALLS, RHS_S, EXTRA = range(8)


class Tracer:
    """Records spans while patched; ``unpatch`` restores every original."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._stack: list[int] = []
        # keyed by id(): a module may hold callables that are not hashable
        self._wrappers: dict = {}  # id(original) -> wrapper
        self._originals: dict = {}  # id(wrapper) -> original

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "systems.rhs":
            return self._wrap_rhs(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, 0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if name in _EXTRAS:
                rec[EXTRA] = _EXTRAS[name](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_rhs(self, fn):
        spans, stack = self.spans, self._stack
        orphan = [None] * 8
        orphan[RHS_CALLS], orphan[RHS_S] = 0, 0.0

        def traced_rhs(obj, u):
            t0 = perf_counter()
            out = fn(obj, u)
            dt = perf_counter() - t0
            rec = spans[stack[-1]] if stack else orphan
            rec[RHS_CALLS] += 1
            rec[RHS_S] += dt
            return out

        traced_rhs.__wrapped__ = fn
        return traced_rhs

    # -- patching ----------------------------------------------------------

    def patch_module(self, mod) -> None:
        """Wrap the targets that live in ``mod``, then rebind every loaded
        todalab name that still points at an original."""
        for (modname, cls, attr), name in TARGETS.items():
            if modname != mod.__name__:
                continue
            owner = getattr(mod, cls) if cls else mod
            fn = owner.__dict__[attr]
            if id(fn) in self._originals:
                continue
            wrapper = self._wrappers.get(id(fn)) or self._wrap(name, fn)
            self._wrappers[id(fn)] = wrapper
            self._originals[id(wrapper)] = fn
            setattr(owner, attr, wrapper)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("todalab"):
                for key, val in list(vars(m).items()):
                    if id(val) in self._wrappers:
                        setattr(m, key, self._wrappers[id(val)])

    def patch(self) -> None:
        for modname in sorted({m for m, _, _ in TARGETS}):
            if modname in sys.modules:
                self.patch_module(sys.modules[modname])

    def unpatch(self) -> None:
        for (modname, cls, attr) in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            owner = getattr(mod, cls) if cls else mod
            val = owner.__dict__.get(attr)
            if id(val) in self._originals:
                setattr(owner, attr, self._originals[id(val)])
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("todalab"):
                for key, val in list(vars(m).items()):
                    if id(val) in self._originals:
                        setattr(m, key, self._originals[id(val)])

    def patch_on_import(self) -> None:
        """Patch each todalab module as it is first imported, so that a CLI
        child loads exactly the modules it would load untraced."""
        sys.meta_path.insert(0, _PatchingFinder(self))

    # -- output ------------------------------------------------------------

    def dump(self, path, **header) -> None:
        """Write the header and every span, one JSON object per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def plateaus(grid, values, level: float = -3.0) -> list[int]:
    """Grid nodes where the decay witness max_i(u_i + 2 log r) has a local
    minimum at or below ``level``: the quiet annuli between bubbles, where
    the cumulative masses have settled."""
    import numpy as np

    wit = np.max(values + 2.0 * np.log(grid)[:, None], axis=1)
    k = np.nonzero(
        (wit[1:-1] <= wit[:-2]) & (wit[1:-1] < wit[2:]) & (wit[1:-1] <= level)
    )[0]
    return [int(j) + 1 for j in k]


def settled_radius(grid, values) -> float:
    """Outermost radius by which a shot's masses have settled: the end of
    the grid when the shot ends in fast decay (witness <= -10), else the
    last plateau; 0.0 when there is neither."""
    if max(values[-1]) + 2.0 * math.log(grid[-1]) <= -10.0:
        return float(grid[-1])
    ks = plateaus(grid, values)
    return float(grid[ks[-1]]) if ks else 0.0


def _shoot_extra(args, prof):
    return {
        "samples": len(prof.grid),
        "r_settled": settled_radius(prof.grid, prof.values),
        "spec": prof.spec.to_json_dict(),
    }


def _written_bytes(args, _):
    return {"bytes": os.path.getsize(args[1])}


_EXTRAS = {
    "ode_engine.shoot": _shoot_extra,
    "spectrum.enumerate_su3": lambda args, sset: {
        "bound": int(args[0]), "members": len(sset)
    },
    "profile_io.write_profile_json": _written_bytes,
}


def load(path) -> tuple[dict, list[list]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[0]), [json.loads(x) for x in lines[1:]]


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("todalab"):
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(fullname)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        loader, tracer = spec.loader, self.tracer

        class _Loader(importlib.abc.Loader):
            def create_module(self, s):
                return loader.create_module(s)

            def exec_module(self, module):
                loader.exec_module(module)
                tracer.patch_module(module)

        spec.loader = _Loader()
        return spec


def merge_child(tracer: Tracer, step: str, start: float, end: float, res: dict,
                path) -> None:
    """Add one CLI child's spans under a ``cli.<step>`` span of ``tracer``.

    The child's clock is the same monotonic clock, so its span times line
    up with the parent's.
    """
    header, child = load(path)
    root = len(tracer.spans)
    tracer.spans.append([f"cli.{step}", start, end, -1, tracer.task, 0, 0.0,
                         dict(header, rss_mb=res["rss_mb"])])
    for rec in child:
        rec[PARENT] = root if rec[PARENT] < 0 else rec[PARENT] + root + 1
        rec[TASK] = tracer.task
        tracer.spans.append(rec)
