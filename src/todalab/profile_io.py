"""Flat-file formats for radial profiles.

A profile file holds a ``RadialProfile``'s own ``grid`` and (m, 3n) ``state``
of (u, w = r du/dr, sigma), as they are.  The CSV writes their columns at 17
significant digits under the header ``r,u1[,...],w1[,...],sigma1[,...]``,
after ``#`` lines with the run configuration and the termination reason.  The
JSON form (format 2) adds the system, reason, provenance and shot parameters,
and reads back ``==`` to the profile written.  Reading it is the boundary for
outside files: it refuses a missing key, a null or mistyped value, a grid
with no nodes, another format version or a document that is not an object
with ``ValueError``, a missing key read as its quoted name, e.g. ``'grid'``;
the grid, state and spec that a ``RadialProfile`` refuses raise it too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ode_engine import RadialProfile, ShootSpec, TerminationReason
from .systems import SystemKind

FORMAT_VERSION = 2


def _header(n: int) -> list[str]:
    return ["r", *(f"{block}{i + 1}" for block in ("u", "w", "sigma") for i in range(n))]


def write_profile_csv(p: RadialProfile, path, config: dict | None = None) -> None:
    n = p.n_components
    lines = []
    if config is not None:
        blob = json.dumps(config, sort_keys=True)
        lines.append(f"# config {blob}")
    lines.append(f"# reason {p.reason.value}")
    lines.append(",".join(_header(n)))
    for row in np.column_stack([p.grid, p.state]):
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
        "state": p.state.tolist(),
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
        version = d.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"profile format_version {version!r}: this reader "
                             f"reads format {FORMAT_VERSION} only")
        return RadialProfile(
            system=SystemKind.from_json_dict(d),
            grid=grid,
            state=np.asarray(d["state"], dtype=float),
            reason=TerminationReason(d["reason"]),
            spec=None if spec is None else ShootSpec.from_json_dict(spec),
            provenance=d.get("provenance", "loaded"),
        )
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(str(exc)) from exc


def read_profile_json(path) -> RadialProfile:
    return profile_from_json_dict(json.loads(Path(path).read_text()))


def write_series(path, xs, ys, x_label: str, y_labels: list[str]) -> None:
    """Two-or-more column whitespace-separated series file for plotting;
    ``ys`` holds one row of y values per x."""
    lines = ["# " + " ".join([x_label] + y_labels)]
    for x, row in zip(xs, np.asarray(ys, dtype=float)):
        lines.append(" ".join(f"{v:.17g}" for v in [x, *row]))
    Path(path).write_text("\n".join(lines) + "\n")
