"""Flat-file formats for radial profiles.

CSV rows carry the full grid at 17 significant digits under the header
``r,u1[,u2,...],du1[,...],sigma1[,...]``; the JSON form additionally
carries the originating shot parameters so a profile can be reloaded or
re-run exactly.  Leading ``#`` comment lines in the CSV hold the resolved
run configuration for reproducibility.  Reading a JSON profile is the
boundary for outside files: malformed content (a missing key, a null or
mistyped value, a grid with no nodes, a document that is not an object)
raises ``ValueError``, and a missing key reads as its quoted name, e.g.
``'grid'``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ode_engine import RadialProfile, ShootSpec, TerminationReason
from .systems import SystemKind

FORMAT_VERSION = 1


def _header(n: int) -> list[str]:
    cols = ["r"]
    cols += [f"u{i + 1}" for i in range(n)]
    cols += [f"du{i + 1}" for i in range(n)]
    cols += [f"sigma{i + 1}" for i in range(n)]
    return cols


def write_profile_csv(p: RadialProfile, path, config: dict | None = None) -> None:
    n = p.n_components
    lines = []
    if config is not None:
        blob = json.dumps(config, sort_keys=True)
        lines.append(f"# config {blob}")
    lines.append(f"# reason {p.reason.value}")
    lines.append(",".join(_header(n)))
    table = np.column_stack([p.grid, p.values, p.derivs, p.masses])
    for row in table:
        lines.append(",".join(f"{x:.17g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def profile_to_json_dict(p: RadialProfile, config: dict | None = None) -> dict:
    d = {
        "format_version": FORMAT_VERSION,
        **p.system.to_json_dict(),
        "reason": p.reason.value,
        "provenance": p.provenance,
        "shoot_spec": None if p.spec is None else p.spec.to_json_dict(),
        "grid": p.grid.tolist(),
        "values": p.values.tolist(),
        "derivs": p.derivs.tolist(),
        "masses": p.masses.tolist(),
    }
    if config is not None:
        d["config"] = config
    return d


def write_profile_json(p: RadialProfile, path, config: dict | None = None) -> None:
    Path(path).write_text(json.dumps(profile_to_json_dict(p, config)) + "\n")


def profile_from_json_dict(d: dict) -> RadialProfile:
    try:
        spec = d.get("shoot_spec")
        grid = np.asarray(d["grid"], dtype=float)
        if grid.size == 0:
            raise ValueError("profile grid has no nodes")
        # the file keeps du/dr; the profile stores w = r du/dr
        w = np.asarray(d["derivs"], dtype=float) * grid[:, None]
        state = np.column_stack([np.asarray(d["values"], dtype=float), w,
                                 np.asarray(d["masses"], dtype=float)])
        return RadialProfile(
            system=SystemKind.from_json_dict(d),
            grid=grid,
            state=state,
            reason=TerminationReason(d["reason"]),
            spec=None if spec is None else ShootSpec.from_json_dict(spec),
            provenance=d.get("provenance", "loaded"),
        )
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(str(exc)) from exc


def read_profile_json(path) -> RadialProfile:
    return profile_from_json_dict(json.loads(Path(path).read_text()))


def write_series(path, xs, ys, x_label: str, y_labels: list[str]) -> None:
    """Two-or-more column whitespace-separated series file for plotting."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[0] != len(xs):
        ys = ys.T
    lines = ["# " + " ".join([x_label] + y_labels)]
    for x, row in zip(xs, ys):
        lines.append(" ".join(f"{v:.17g}" for v in [x, *np.atleast_1d(row)]))
    Path(path).write_text("\n".join(lines) + "\n")
