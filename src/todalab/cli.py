"""Command-line front end.

Subcommands: ``spectrum`` (enumerate / check / equiv), ``shoot``,
``target`` and ``bubble``.  Each option is declared once (``_opt``): its
config key, default, flag spellings and argparse keywords.  The parser
and the defaults are both built from these declarations.  ``main``
resolves one configuration per run from defaults, an optional
``--config`` JSON file, and explicit flags (in that order of
precedence); a config-file value must satisfy the same ``choices`` as
its flag.  Runs embed the resolved configuration in their output files
and follow the exit contract 0 = success, 1 = domain failure, 2 = usage
error.  ``--json`` switches stdout to a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, profile_io, spectrum as spec_mod
from .ode_engine import (
    BracketError,
    ShootSpec,
    TargetSearchError,
    find_decaying,
    mean_value_residuals,
    shoot,
    total_masses,
)
from .spectrum import MassTriple
from .systems import SystemKind, Variant

SCHEMA_VERSION = 1

_ENUMERATE = {"su3": spec_mod.enumerate_su3, "su4": spec_mod.enumerate_su4}


class DomainError(RuntimeError):
    """Failure of the requested computation (exit status 1)."""


class UsageError(RuntimeError):
    """Missing or malformed arguments (exit status 2)."""


def _outdir() -> Path:
    return Path(os.environ.get("TODALAB_OUTDIR", "."))


def _as_floats(value) -> tuple[float, ...]:
    """Coerce a flag string or a config-file list into a float tuple."""
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise UsageError(f"malformed number list {value!r}") from exc


def _parse_triple(text: str) -> MassTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"triple must have three components, got {text!r}")
    try:
        vals = [Fraction(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"malformed triple {text!r}") from exc
    vals = [int(v) if v.denominator == 1 else v for v in vals]
    return MassTriple(*vals)


class _Option(NamedTuple):
    """One config key: its default, its flag spellings and the argparse
    keywords (``type``, ``choices``, ``help``) of those flags."""

    key: str
    default: object
    flags: tuple[str, ...]
    kwargs: dict


def _opt(key: str, default=None, *flags: str, **kwargs) -> _Option:
    """Declare an option; its flag is ``--key-name`` unless ``flags`` say
    otherwise."""
    return _Option(key, default, flags or ("--" + key.replace("_", "-"),), kwargs)


def _resolve_config(args: argparse.Namespace, options: tuple[_Option, ...]) -> dict:
    """defaults < config file < explicit flags; returns the resolved dict."""
    cfg = {o.key: o.default for o in options}
    path = args.config
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {path}: {exc}") from exc
        version = loaded.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise DomainError(f"unsupported config schema_version {version}")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for o in options:
            choices = o.kwargs.get("choices")
            if choices and o.key in loaded and loaded[o.key] not in choices:
                raise DomainError(
                    f"config key {o.key!r} must be one of {choices}, "
                    f"got {loaded[o.key]!r}"
                )
        cfg.update(loaded)
    for o in options:
        val = getattr(args, o.key, None)
        if val is not None:
            cfg[o.key] = val
    cfg["schema_version"] = SCHEMA_VERSION
    return cfg


def _embed_cfg(cfg: dict) -> dict:
    """Config as embedded in output files: everything but the output paths,
    so re-running a config byte-reproduces the numeric payload."""
    return {k: v for k, v in cfg.items() if k not in ("out", "series_prefix")}


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

_SPECTRUM = (
    _opt("variant", "su3", choices=sorted(_ENUMERATE)),
    _opt("bound", 400, type=int),
    # a config key of every spectrum subcommand, a flag of ``check`` only
    _opt("triple", help="s1,s2,s3"),
)


def cmd_spectrum(args, cfg: dict) -> int:
    variant = cfg["variant"]

    if args.spectrum_cmd == "enumerate":
        bound = int(cfg["bound"])
        if bound < 0:
            raise DomainError("bound must be non-negative")
        sset = _ENUMERATE[variant](bound)
        out = cfg["out"] or str(_outdir() / f"spectrum_{variant}_{bound}.txt")
        Path(out).write_text(
            "\n".join([f"# config {json.dumps(_embed_cfg(cfg), sort_keys=True)}"] + sset.to_lines())
            + "\n"
        )
        _emit(
            args,
            [f"{len(sset)} members with max component <= {bound}", f"wrote {out}"],
            {"config": cfg, "count": len(sset), "out": out, "set": sset.to_json_dict()},
        )
        return 0

    if args.spectrum_cmd == "check":
        if cfg["triple"] is None:
            raise UsageError("check needs --triple s1,s2,s3")
        t = _parse_triple(cfg["triple"])
        if variant == "su3":
            residual = spec_mod.pohozaev_residual_su3(t)
            index = spec_mod.membership_su3(t)
            member = index is not None
        else:
            residual = spec_mod.pohozaev_residual_su4(t)
            index = None
            member = spec_mod.is_candidate_su4(t)
        lines = [
            f"triple ({t.s1}, {t.s2}, {t.s3}): "
            + ("member" if member else "not a member"),
            f"residual {residual}",
        ]
        if index is not None:
            lines.append(f"indices (m1, m2) = ({index.m1}, {index.m2})")
        _emit(
            args,
            lines,
            {
                "config": cfg,
                "member": member,
                "residual": str(residual),
                "index": None if index is None else [index.m1, index.m2],
            },
        )
        return 0 if member else 1

    # equiv
    bound = int(cfg["bound"])
    if variant != "su3":
        raise DomainError("equiv applies to the su3 spectrum")
    # enumerate_su3 raises internally on any brute-force/parametrized
    # mismatch, so reaching the report line is the equivalence proof
    sset = spec_mod.enumerate_su3(bound)
    _emit(
        args,
        [f"equivalence holds up to bound {bound} ({len(sset)} members)"],
        {"config": cfg, "equal": True, "count": len(sset)},
    )
    return 0


# --------------------------------------------------------------------------
# shoot
# --------------------------------------------------------------------------

_SYSTEM = _opt("system", "liouville", choices=sorted(v.value for v in Variant))
# the integrator settings that ``shoot`` and ``target`` share
_TOLERANCES = (
    _opt("r_max", 1e6, type=float),
    _opt("rel_tol", 1e-10, type=float),
    _opt("abs_tol", 1e-12, type=float),
    _opt("samples_per_decade", 40, type=int),
)

_SHOOT = (
    _SYSTEM,
    _opt("heights", None, "--height", "--heights",
         help="h1,h2,... initial heights (one height for scalar systems)"),
    _opt("weights", help="b1,b2,... singular weights at the origin"),
    _opt("r_start", type=float),
    *_TOLERANCES,
    _opt("mass_guard", 1e6, type=float),
    _opt("format", "csv", choices=["csv", "json"]),
    _opt("sweep", help="comma list of first-component heights"),
    _opt("workers", 1, type=int),
)


def _build_spec(cfg: dict, heights: tuple[float, ...]) -> ShootSpec:
    weights = _as_floats(cfg["weights"]) if cfg["weights"] else ()
    try:
        system = SystemKind(Variant(cfg["system"]), weights)
        return ShootSpec(
            system=system,
            init_heights=heights,
            r_start=cfg["r_start"],
            r_max=float(cfg["r_max"]),
            rel_tol=float(cfg["rel_tol"]),
            abs_tol=float(cfg["abs_tol"]),
            samples_per_decade=int(cfg["samples_per_decade"]),
            mass_guard=float(cfg["mass_guard"]),
        )
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


def _shoot_payload(cfg: dict, heights: tuple[float, ...], out_path: str):
    prof = shoot(_build_spec(cfg, heights))
    totals, converged = total_masses(prof)
    try:
        mv = float(np.max(np.abs(mean_value_residuals(prof))))
    except ValueError:
        mv = None
    info = {
        "final_masses": totals.tolist(),
        "mass_converged": converged.tolist(),
        "reason": prof.reason.value,
        "max_constraint_violation": prof.max_constraint_violation(),
        "max_mean_value_residual": mv,
        "r_end": prof.r_end,
    }
    write = (profile_io.write_profile_json if cfg["format"] == "json"
             else profile_io.write_profile_csv)
    write(prof, out_path, config=_embed_cfg(cfg))
    info["out"] = out_path
    return prof, info


def cmd_shoot(args, cfg: dict) -> int:
    if cfg["heights"] is None:
        raise UsageError("shoot needs --height/--heights")
    heights = _as_floats(cfg["heights"])
    cfg["heights"] = list(heights)

    if cfg["sweep"]:
        sweep_vals = _as_floats(cfg["sweep"])
        cfg["sweep"] = list(sweep_vals)
        stem = cfg["out"] or str(_outdir() / "profile")
        jobs = [(cfg, (h,) + heights[1:], f"{stem}_{i:03d}.{cfg['format']}")
                for i, h in enumerate(sweep_vals)]
        workers = int(cfg["workers"])
        if workers < 1:
            raise UsageError(f"--workers must be at least 1, got {workers}")
        # the pool forks all its workers at once: never more than there are
        # jobs or CPUs
        workers = min(workers, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = list(pool.map(_run_sweep_job, jobs))
        else:
            done = [_run_sweep_job(j) for j in jobs]
        results = [info for info, _ in done]
        lines = [
            f"height {h:g}: masses {np.round(info['final_masses'], 6).tolist()} "
            f"({info['reason']})"
            for h, info in zip(sweep_vals, results)
        ]
        _emit(
            args,
            lines,
            {"config": cfg, "sweep": results, "stats": [st for _, st in done]},
        )
        return 0

    out = cfg["out"] or str(_outdir() / f"profile_{cfg['system']}.{cfg['format']}")
    prof, info = _shoot_payload(cfg, heights, out)
    decaying = all(info["mass_converged"])
    lines = [
        f"terminated: {info['reason']} at r = {info['r_end']:g}",
        "final masses: "
        + ", ".join(f"{x:.8g}" for x in info["final_masses"])
        + ("" if decaying else "  (non-decaying: tail not converged)"),
        f"max constraint violation: {info['max_constraint_violation']:.3e}",
    ]
    if info["max_mean_value_residual"] is not None:
        lines.append(
            f"max mean-value identity residual: {info['max_mean_value_residual']:.3e}"
        )
    if info["reason"] == "step_underflow":
        lines.append(f"solver: {prof.stats.message}")
    lines.append(f"wrote {out}")
    # solver counts sit apart from the byte-reproducible numeric payload
    _emit(args, lines, {"config": cfg, **info, "stats": prof.stats.to_json_dict()})
    return 0


def _run_sweep_job(job):
    prof, info = _shoot_payload(*job)
    return info, prof.stats.to_json_dict()


# --------------------------------------------------------------------------
# target
# --------------------------------------------------------------------------

_TARGET = (
    _SYSTEM._replace(default="limitpair"),
    _opt("anchor", type=float, help="anchored initial height"),
    _opt("anchor_component", 0, type=int),
    _opt("bracket", help="lo,hi for the free height"),
    _opt("tol", 1e-3, type=float),
    *_TOLERANCES,
)


def cmd_target(args, cfg: dict) -> int:
    if cfg["anchor"] is None or cfg["bracket"] is None:
        raise UsageError("target needs --anchor and --bracket lo,hi")
    bracket = _as_floats(cfg["bracket"])
    if len(bracket) != 2:
        raise DomainError("bracket must be lo,hi")
    cfg["bracket"] = list(bracket)
    system = SystemKind(Variant(cfg["system"]))
    try:
        heights, prof = find_decaying(
            system,
            int(cfg["anchor_component"]),
            float(cfg["anchor"]),
            (bracket[0], bracket[1]),
            tol=float(cfg["tol"]),
            r_max=float(cfg["r_max"]),
            rel_tol=float(cfg["rel_tol"]),
            abs_tol=float(cfg["abs_tol"]),
            samples_per_decade=int(cfg["samples_per_decade"]),
        )
    except (BracketError, TargetSearchError) as exc:
        trace = [c.summary() for c in exc.trace]
        if args.json:
            print(json.dumps({"config": cfg, "error": str(exc), "trace": trace}))
        else:
            print(f"error: {exc}", file=sys.stderr)
            for line in trace:
                print(f"  {line}", file=sys.stderr)
        return 1

    totals, _ = total_masses(prof)
    residual = analysis.pohozaev_check(prof, prof.r_end).residual
    out = cfg["out"] or str(_outdir() / f"target_{cfg['system']}.json")
    profile_io.write_profile_json(prof, out, config=_embed_cfg(cfg))
    lines = [
        "initial heights: " + ", ".join(f"{h:.12g}" for h in heights),
        "masses: " + ", ".join(f"{x:.8g}" for x in totals),
        f"pohozaev residual at r_end: {residual:.6e}",
        f"wrote {out}",
    ]
    _emit(
        args,
        lines,
        {
            "config": cfg,
            "init_heights": list(heights),
            "masses": totals.tolist(),
            "pohozaev_residual": residual,
            "out": out,
        },
    )
    return 0


# --------------------------------------------------------------------------
# bubble
# --------------------------------------------------------------------------

_BUBBLE = (
    _opt("base", help="stored profile JSON"),
    _opt("ladder", help="strictly decreasing eps values"),
    _opt("delta", 0.1, type=float),
    _opt("spectrum_variant", "su3", choices=sorted(_ENUMERATE)),
    _opt("spectrum_bound", 400, type=int),
    _opt("series_prefix"),
)


def cmd_bubble(args, cfg: dict) -> int:
    if cfg["base"] is None or cfg["ladder"] is None:
        raise UsageError("bubble needs --base profile.json and --ladder e1,e2,...")
    try:
        base = profile_io.read_profile_json(cfg["base"])
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DomainError(f"cannot read base profile {cfg['base']}: {exc}") from exc
    ladder = _as_floats(cfg["ladder"])
    cfg["ladder"] = list(ladder)
    sset = _ENUMERATE[cfg["spectrum_variant"]](int(cfg["spectrum_bound"]))
    try:
        report = analysis.bubble_masses(base, ladder, float(cfg["delta"]), sset)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc

    out = cfg["out"] or str(_outdir() / "bubble_report.json")
    doc = {"config": _embed_cfg(cfg), **report.to_json_dict()}
    Path(out).write_text(json.dumps(doc, sort_keys=True) + "\n")

    prefix = cfg["series_prefix"] or str(_outdir() / "bubble")
    deltas = [d for d, _ in report.delta_ladder]
    triples = [t for _, t in report.delta_ladder]
    profile_io.write_series(
        f"{prefix}_delta_sigma.dat",
        deltas,
        triples,
        "delta",
        [f"sigma{i + 1}" for i in range(3)],
    )
    witness = base.values + 2.0 * np.log(base.grid)[:, None]
    profile_io.write_series(
        f"{prefix}_witness.dat",
        base.grid,
        witness,
        "r",
        [f"w{i + 1}" for i in range(base.n_components)],
    )

    near = report.nearest
    lines = [
        "measured triple: "
        + ", ".join(f"{float(x):.6g}" for x in (report.measured.s1,
                                                report.measured.s2,
                                                report.measured.s3)),
        f"nearest member: ({near.s1}, {near.s2}, {near.s3})"
        + (
            ""
            if report.nearest_index is None
            else f" with indices ({report.nearest_index.m1}, {report.nearest_index.m2})"
        ),
        f"distance: {report.distance:.6g}",
        f"pohozaev residual of measured triple: {report.pohozaev_residual:.6g}",
        f"wrote {out}, {prefix}_delta_sigma.dat, {prefix}_witness.dat",
    ]
    _emit(args, lines, doc)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

# every subcommand's output path; its key comes last in the resolved config,
# whose key order shows where it is dumped unsorted (target's error payload)
_OUT = _opt("out", help="output path")


def _add_options(p, func, options: tuple[_Option, ...], flagless=()) -> None:
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--json", action="store_true", help="JSON on stdout")
    p.add_argument(
        "--print-config", action="store_true", help="print resolved config and exit"
    )
    for o in (_OUT, *options):
        if o.key not in flagless:
            p.add_argument(*o.flags, dest=o.key, **o.kwargs)
    p.set_defaults(func=func, options=(*options, _OUT))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="todalab",
        description="radial mass-quantization laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="enumerate or check mass triples")
    spsub = sp.add_subparsers(dest="spectrum_cmd", required=True)
    for name in ("enumerate", "check", "equiv"):
        _add_options(spsub.add_parser(name), cmd_spectrum, _SPECTRUM,
                     flagless=() if name == "check" else ("triple",))
    _add_options(sub.add_parser("shoot", help="integrate one radial shot"),
                 cmd_shoot, _SHOOT)
    _add_options(
        sub.add_parser("target", help="bisect initial data to a decaying solution"),
        cmd_target, _TARGET)
    _add_options(sub.add_parser("bubble", help="double-limit bubble mass report"),
                 cmd_bubble, _BUBBLE)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args, args.options)
        if args.print_config:
            print(json.dumps(cfg, sort_keys=True, indent=2))
            return 0
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
