"""Command-line front end.

Subcommands: ``spectrum`` (enumerate / check / equiv), ``shoot``,
``target`` and ``bubble``.  Every run resolves a configuration from
defaults, an optional ``--config`` JSON file, and explicit flags (in that
order of precedence), embeds the resolved configuration in its output
files, and follows the exit contract 0 = success, 1 = domain failure,
2 = usage error.  ``--json`` switches stdout to a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

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

_VARIANTS = {v.value: v for v in Variant}


class DomainError(RuntimeError):
    """Failure of the requested computation (exit status 1)."""


class UsageError(RuntimeError):
    """Missing or malformed arguments (exit status 2)."""


def _outdir() -> Path:
    return Path(os.environ.get("TODALAB_OUTDIR", "."))


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed number list {text!r}") from exc


def _as_floats(value) -> tuple[float, ...]:
    """Coerce a flag string or a config-file list into a float tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(float(x) for x in value)
    return _parse_floats(str(value))


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


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags; returns the resolved dict."""
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {path}: {exc}") from exc
        version = loaded.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise DomainError(f"unsupported config schema_version {version}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["schema_version"] = SCHEMA_VERSION
    return cfg


def _embed_cfg(cfg: dict) -> dict:
    """Config as embedded in output files: everything but the output paths,
    so re-running a config byte-reproduces the numeric payload."""
    return {k: v for k, v in cfg.items() if k not in ("out", "series_prefix")}


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _maybe_print_config(args, cfg: dict) -> bool:
    if getattr(args, "print_config", False):
        print(json.dumps(cfg, sort_keys=True, indent=2))
        return True
    return False


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

_SPECTRUM_DEFAULTS = {"variant": "su3", "bound": 400, "triple": None, "out": None}


def cmd_spectrum(args) -> int:
    cfg = _resolve_config(args, _SPECTRUM_DEFAULTS)
    if _maybe_print_config(args, cfg):
        return 0
    variant = cfg["variant"]
    if variant not in ("su3", "su4"):
        raise DomainError(f"unknown spectrum variant {variant!r}")
    enumerate_fn = (
        spec_mod.enumerate_su3 if variant == "su3" else spec_mod.enumerate_su4
    )

    if args.spectrum_cmd == "enumerate":
        bound = int(cfg["bound"])
        if bound < 0:
            raise DomainError("bound must be non-negative")
        sset = enumerate_fn(bound)
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

    if args.spectrum_cmd == "equiv":
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

    raise DomainError(f"unknown spectrum subcommand {args.spectrum_cmd!r}")


# --------------------------------------------------------------------------
# shoot
# --------------------------------------------------------------------------

_SHOOT_DEFAULTS = {
    "system": "liouville",
    "heights": None,
    "weights": None,
    "r_start": None,
    "r_max": 1e6,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "samples_per_decade": 40,
    "mass_guard": 1e6,
    "format": "csv",
    "out": None,
    "sweep": None,
    "workers": 1,
}


def _build_spec(cfg: dict, heights: tuple[float, ...]) -> ShootSpec:
    variant = _VARIANTS.get(cfg["system"])
    if variant is None:
        raise DomainError(f"unknown system {cfg['system']!r}")
    weights = _as_floats(cfg["weights"]) if cfg["weights"] else ()
    try:
        system = SystemKind(variant, weights)
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


def _shoot_payload(spec: ShootSpec, cfg: dict, out_path: str | None):
    prof = shoot(spec)
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
    if out_path:
        if cfg["format"] == "json":
            profile_io.write_profile_json(prof, out_path, config=_embed_cfg(cfg))
        else:
            profile_io.write_profile_csv(prof, out_path, config=_embed_cfg(cfg))
        info["out"] = out_path
    return prof, info


def cmd_shoot(args) -> int:
    cfg = _resolve_config(args, _SHOOT_DEFAULTS)
    if _maybe_print_config(args, cfg):
        return 0
    if cfg["heights"] is None:
        raise UsageError("shoot needs --height/--heights")
    heights = _as_floats(cfg["heights"])
    cfg["heights"] = list(heights)

    if cfg["sweep"]:
        sweep_vals = _as_floats(cfg["sweep"])
        cfg["sweep"] = list(sweep_vals)
        jobs = []
        for i, h in enumerate(sweep_vals):
            job_cfg = dict(cfg)
            job_heights = (h,) + tuple(heights[1:])
            stem = cfg["out"] or str(_outdir() / "profile")
            ext = "json" if cfg["format"] == "json" else "csv"
            jobs.append((job_cfg, job_heights, f"{stem}_{i:03d}.{ext}"))
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

    out = cfg["out"] or str(
        _outdir() / f"profile_{cfg['system']}.{ 'json' if cfg['format']=='json' else 'csv'}"
    )
    spec = _build_spec(cfg, heights)
    prof, info = _shoot_payload(spec, cfg, out)
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
    cfg, heights, out = job
    spec = _build_spec(cfg, heights)
    prof, info = _shoot_payload(spec, cfg, out)
    return info, prof.stats.to_json_dict()


# --------------------------------------------------------------------------
# target
# --------------------------------------------------------------------------

_TARGET_DEFAULTS = {
    "system": "limitpair",
    "anchor": None,
    "anchor_component": 0,
    "bracket": None,
    "tol": 1e-3,
    "r_max": 1e6,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "samples_per_decade": 40,
    "out": None,
}


def cmd_target(args) -> int:
    cfg = _resolve_config(args, _TARGET_DEFAULTS)
    if _maybe_print_config(args, cfg):
        return 0
    if cfg["anchor"] is None or cfg["bracket"] is None:
        raise UsageError("target needs --anchor and --bracket lo,hi")
    variant = _VARIANTS.get(cfg["system"])
    if variant is None:
        raise DomainError(f"unknown system {cfg['system']!r}")
    bracket = _as_floats(cfg["bracket"])
    if len(bracket) != 2:
        raise DomainError("bracket must be lo,hi")
    cfg["bracket"] = list(bracket)
    system = SystemKind(variant)
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
        if getattr(args, "json", False):
            print(json.dumps({"config": cfg, "error": str(exc), "trace": trace}))
        else:
            print(f"error: {exc}", file=sys.stderr)
            for line in trace:
                print(f"  {line}", file=sys.stderr)
        return 1

    totals, _ = total_masses(prof)
    residual = analysis.pohozaev_profile_residual(prof, prof.r_end)
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

_BUBBLE_DEFAULTS = {
    "base": None,
    "ladder": None,
    "delta": 0.1,
    "spectrum_variant": "su3",
    "spectrum_bound": 400,
    "out": None,
    "series_prefix": None,
}


def cmd_bubble(args) -> int:
    cfg = _resolve_config(args, _BUBBLE_DEFAULTS)
    if _maybe_print_config(args, cfg):
        return 0
    if cfg["base"] is None or cfg["ladder"] is None:
        raise UsageError("bubble needs --base profile.json and --ladder e1,e2,...")
    try:
        base = profile_io.read_profile_json(cfg["base"])
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise DomainError(f"cannot read base profile {cfg['base']}: {exc}") from exc
    ladder = _as_floats(cfg["ladder"])
    cfg["ladder"] = list(ladder)
    enumerate_fn = (
        spec_mod.enumerate_su3
        if cfg["spectrum_variant"] == "su3"
        else spec_mod.enumerate_su4
    )
    sset = enumerate_fn(int(cfg["spectrum_bound"]))
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="todalab",
        description="radial mass-quantization laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--json", action="store_true", help="JSON on stdout")
        p.add_argument(
            "--print-config", action="store_true", help="print resolved config and exit"
        )
        p.add_argument("--out", help="output path")

    sp = sub.add_parser("spectrum", help="enumerate or check mass triples")
    spsub = sp.add_subparsers(dest="spectrum_cmd", required=True)
    for name in ("enumerate", "check", "equiv"):
        q = spsub.add_parser(name)
        common(q)
        q.add_argument("--variant", choices=["su3", "su4"])
        q.add_argument("--bound", type=int)
        if name == "check":
            q.add_argument("--triple", help="s1,s2,s3")
        q.set_defaults(func=cmd_spectrum)

    sh = sub.add_parser("shoot", help="integrate one radial shot")
    common(sh)
    sh.add_argument("--system", choices=sorted(_VARIANTS))
    sh.add_argument("--height", dest="heights", help="height for scalar systems")
    sh.add_argument("--heights", dest="heights", help="h1,h2,... initial heights")
    sh.add_argument("--weights", help="b1,b2,... singular weights at the origin")
    sh.add_argument("--r-start", dest="r_start", type=float)
    sh.add_argument("--r-max", dest="r_max", type=float)
    sh.add_argument("--rel-tol", dest="rel_tol", type=float)
    sh.add_argument("--abs-tol", dest="abs_tol", type=float)
    sh.add_argument("--samples-per-decade", dest="samples_per_decade", type=int)
    sh.add_argument("--mass-guard", dest="mass_guard", type=float)
    sh.add_argument("--format", choices=["csv", "json"])
    sh.add_argument("--sweep", help="comma list of first-component heights")
    sh.add_argument("--workers", type=int)
    sh.set_defaults(func=cmd_shoot)

    tg = sub.add_parser("target", help="bisect initial data to a decaying solution")
    common(tg)
    tg.add_argument("--system", choices=sorted(_VARIANTS))
    tg.add_argument("--anchor", type=float, help="anchored initial height")
    tg.add_argument("--anchor-component", dest="anchor_component", type=int)
    tg.add_argument("--bracket", help="lo,hi for the free height")
    tg.add_argument("--tol", type=float)
    tg.add_argument("--r-max", dest="r_max", type=float)
    tg.add_argument("--rel-tol", dest="rel_tol", type=float)
    tg.add_argument("--abs-tol", dest="abs_tol", type=float)
    tg.add_argument("--samples-per-decade", dest="samples_per_decade", type=int)
    tg.set_defaults(func=cmd_target)

    bb = sub.add_parser("bubble", help="double-limit bubble mass report")
    common(bb)
    bb.add_argument("--base", help="stored profile JSON")
    bb.add_argument("--ladder", help="strictly decreasing eps values")
    bb.add_argument("--delta", type=float)
    bb.add_argument("--spectrum-variant", dest="spectrum_variant", choices=["su3", "su4"])
    bb.add_argument("--spectrum-bound", dest="spectrum_bound", type=int)
    bb.add_argument("--series-prefix", dest="series_prefix")
    bb.set_defaults(func=cmd_bubble)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
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
