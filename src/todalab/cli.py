"""Command-line front end.

Subcommands: ``spectrum`` (enumerate / check / equiv), ``shoot``,
``target`` and ``bubble``.  Each option is declared once (``_opt``): its
config key, default, flag spellings and argparse keywords.  The parser
and the defaults are both built from these declarations.  ``main``
resolves one configuration per run from defaults, an optional
``--config`` JSON file, and explicit flags (in that order of
precedence); a config-file value must satisfy the same ``choices`` and
``type`` as its flag.  The resolved configuration has two views: values
as given, which ``--print-config`` prints and runs embed in their output
files and ``"config"`` payloads, and values converted once by their
flag's ``type``, from which the commands compute.  Runs follow the exit
contract 0 = success, 1 = domain failure, 2 = usage error, which ``main``
enforces in one place: a ``ValueError`` (the library's one type for a
domain failure) or an ``OSError`` prints ``error: <text>`` and exits 1, a
``UsageError`` prints ``usage error: <text>`` and exits 2, and argparse
exits 2 on a malformed command line.  Any other error is a programming
error and keeps its traceback.  ``--json`` switches stdout to a single
JSON document.

Each command loads only the layers it runs.  Importing this module loads
``spectrum`` alone, which needs no numpy, so the ``spectrum`` commands
run on exact integer arithmetic without numpy.  ``main`` builds only
the named command's options: those of ``shoot`` and ``target`` read
``Variant`` and ``ShootSpec``, which loads ``systems``, ``ode_engine``,
``dop853`` and numpy.  ``shoot`` adds ``profile_io``; ``target`` adds
``analysis`` and ``profile_io``; ``bubble`` loads ``analysis`` and
``profile_io`` (and through them the same numeric layers) when it runs.
``build_parser()`` with no argument builds every command's options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import spectrum as spec_mod
from .spectrum import RULES, MassTriple, SpectrumVariant

SCHEMA_VERSION = 1

_SPECTRUM_VARIANTS = [v.value for v in SpectrumVariant]


class UsageError(RuntimeError):
    """Missing or malformed arguments (exit status 2)."""


def _outdir() -> Path:
    return Path(os.environ.get("TODALAB_OUTDIR", "."))


def _as_floats(value) -> tuple[float, ...]:
    """Coerce a flag string or a config-file list into a float tuple."""
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        return tuple(float(x) for x in parts)
    except (TypeError, ValueError) as exc:
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


def _typed_config_value(o: _Option, value):
    """A config-file value converted by its flag's ``type``: it must pass the
    flag's ``choices``, and its text the ``type`` as on the command line;
    null stands for a null default and stays null."""
    choices = o.kwargs.get("choices")
    if choices and value not in choices:
        raise ValueError(
            f"config key {o.key!r} must be one of {choices}, got {value!r}"
        )
    kind = o.kwargs.get("type")
    if kind is None or (value is None and o.default is None):
        return value
    try:
        return kind(str(value))
    except ValueError as exc:
        raise ValueError(
            f"config key {o.key!r} must be {kind.__name__}, got {value!r}"
        ) from exc


def _resolve_config(args: argparse.Namespace,
                    options: tuple[_Option, ...]) -> tuple[dict, dict]:
    """defaults < config file < explicit flags.  Returns the resolved config
    twice: as given, to print and embed, and typed, to compute from (flags
    and defaults are typed already; config-file values are converted)."""
    given = {o.key: o.default for o in options}
    typed = dict(given)
    path = args.config
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(
                f"cannot read config {path}: top level must be a JSON object")
        version = loaded.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema_version {version}")
        unknown = set(loaded) - set(given)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for o in options:
            if o.key in loaded:
                typed[o.key] = _typed_config_value(o, loaded[o.key])
        given.update(loaded)
    for o in options:
        val = getattr(args, o.key, None)
        if val is not None:
            given[o.key] = typed[o.key] = val
    given["schema_version"] = typed["schema_version"] = SCHEMA_VERSION
    return given, typed


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

_SPECTRUM_BOUND = 400  # the default of ``bound`` and of bubble's ``spectrum_bound``
_SPECTRUM = (
    _opt("variant", "su3", choices=_SPECTRUM_VARIANTS),
    _opt("bound", _SPECTRUM_BOUND, type=int),
    # a config key of every spectrum subcommand, a flag of ``check`` only
    _opt("triple", type=str, help="s1,s2,s3"),
)


def cmd_spectrum(args, cfg: dict, given: dict) -> int:
    variant = cfg["variant"]
    rules = RULES[SpectrumVariant(variant)]

    if args.spectrum_cmd == "enumerate":
        bound = cfg["bound"]
        sset = rules.enumerate(bound)
        out = cfg["out"] or str(_outdir() / f"spectrum_{variant}_{bound}.txt")
        Path(out).write_text(
            "\n".join([f"# config {json.dumps(_embed_cfg(given), sort_keys=True)}"] + sset.to_lines())
            + "\n"
        )
        _emit(
            args,
            [f"{len(sset)} members with max component <= {bound}", f"wrote {out}"],
            {"config": given, "count": len(sset), "out": out, "set": sset.to_json_dict()},
        )
        return 0

    if args.spectrum_cmd == "check":
        if cfg["triple"] is None:
            raise UsageError("check needs --triple s1,s2,s3")
        t = _parse_triple(cfg["triple"])
        residual = rules.residual(t)
        member, index = rules.membership(t)
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
                "config": given,
                "member": member,
                "residual": str(residual),
                "index": None if index is None else [index.m1, index.m2],
            },
        )
        return 0 if member else 1

    # equiv
    bound = cfg["bound"]
    if variant != "su3":
        raise ValueError("equiv applies to the su3 spectrum")
    # the one comparison of the su3 quadric's closed-form solve, (c, k) =
    # (4, 1), with enumerate_su3's (m1, m2) sweep
    solved = spec_mod._on_quadric(4, 1, bound)
    sset = spec_mod.enumerate_su3(bound)
    param = set(sset.members)
    if solved != param:
        raise ValueError(
            "enumeration mismatch: quadric solve and parametrization disagree "
            f"(bound={bound}, only-quadric={sorted(solved - param)}, "
            f"only-param={sorted(param - solved)})")
    _emit(
        args,
        [f"equivalence holds up to bound {bound} ({len(sset)} members)"],
        {"config": given, "equal": True, "count": len(sset)},
    )
    return 0


# --------------------------------------------------------------------------
# shoot
# --------------------------------------------------------------------------

# the integrator settings that ``shoot`` and ``target`` share, with their
# flags' types
_TOLERANCES = (("r_max", float), ("rel_tol", float), ("abs_tol", float),
               ("samples_per_decade", int))


def _run_options(command: str) -> tuple[_Option, ...]:
    """The options of ``shoot`` or ``target``.  Their choices and defaults
    come from ``Variant`` and ``ShootSpec``, so this loads the numeric
    layers and runs only when one of the two commands is parsed."""
    from .ode_engine import SETTLE_TOL, ShootSpec
    from .systems import Variant

    system = _opt("system", "liouville", choices=sorted(v.value for v in Variant))
    tolerances = tuple(_opt(k, getattr(ShootSpec, k), type=kind)
                       for k, kind in _TOLERANCES)
    if command == "target":
        return (
            system._replace(default="limitpair"),
            _opt("anchor", type=float, help="anchored initial height"),
            _opt("anchor_component", 0, type=int),
            _opt("bracket", help="lo,hi for the free height"),
            _opt("tol", SETTLE_TOL, type=float),
            *tolerances,
        )
    return (
        system,
        _opt("heights", None, "--height", "--heights",
             help="h1,h2,... initial heights (one height for scalar systems)"),
        _opt("weights", help="b1,b2,... singular weights at the origin"),
        _opt("r_start", ShootSpec.r_start, type=float),
        *tolerances,
        _opt("mass_guard", ShootSpec.mass_guard, type=float),
        _opt("format", "csv", choices=["csv", "json"]),
        _opt("sweep", help="comma list of first-component heights"),
    )


def _build_spec(cfg: dict, heights: tuple[float, ...]):
    from .ode_engine import ShootSpec
    from .systems import SystemKind, Variant

    weights = _as_floats(cfg["weights"]) if cfg["weights"] else ()
    system = SystemKind(Variant(cfg["system"]), weights)
    # every ShootSpec field after system and init_heights is a shoot option
    return ShootSpec(system, heights,
                     **{f.name: cfg[f.name] for f in fields(ShootSpec)[2:]})


def _shoot_payload(cfg: dict, given: dict, heights: tuple[float, ...], out_path: str):
    import numpy as np

    from . import profile_io
    from .ode_engine import mean_value_residuals, shoot, total_masses

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
    write(prof, out_path, config=_embed_cfg(given))
    info["out"] = out_path
    return prof, info


def cmd_shoot(args, cfg: dict, given: dict) -> int:
    import numpy as np

    from .ode_engine import TerminationReason

    if cfg["heights"] is None:
        raise UsageError("shoot needs --height/--heights")
    heights = _as_floats(cfg["heights"])
    given["heights"] = list(heights)

    if cfg["sweep"]:
        sweep_vals = _as_floats(cfg["sweep"])
        given["sweep"] = list(sweep_vals)
        stem = cfg["out"] or str(_outdir() / "profile")
        results, stats = [], []
        for i, h in enumerate(sweep_vals):
            prof, info = _shoot_payload(cfg, given, (h,) + heights[1:],
                                        f"{stem}_{i:03d}.{cfg['format']}")
            results.append(info)
            stats.append(prof.stats.to_json_dict())
        lines = [
            f"height {h:g}: masses {np.round(info['final_masses'], 6).tolist()} "
            f"({info['reason']})"
            for h, info in zip(sweep_vals, results)
        ]
        _emit(
            args,
            lines,
            {"config": given, "sweep": results, "stats": stats},
        )
        return 0

    out = cfg["out"] or str(_outdir() / f"profile_{cfg['system']}.{cfg['format']}")
    prof, info = _shoot_payload(cfg, given, heights, out)
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
    if prof.reason is TerminationReason.STEP_UNDERFLOW:
        lines.append(f"solver: {prof.stats.message}")
    lines.append(f"wrote {out}")
    # solver counts sit apart from the byte-reproducible numeric payload
    _emit(args, lines, {"config": given, **info, "stats": prof.stats.to_json_dict()})
    return 0


# --------------------------------------------------------------------------
# target
# --------------------------------------------------------------------------


def cmd_target(args, cfg: dict, given: dict) -> int:
    from . import analysis, profile_io
    from .ode_engine import TargetSearchError, find_decaying, total_masses
    from .systems import SystemKind, Variant

    if cfg["anchor"] is None or cfg["bracket"] is None:
        raise UsageError("target needs --anchor and --bracket lo,hi")
    bracket = _as_floats(cfg["bracket"])
    if len(bracket) != 2:
        raise ValueError("bracket must be lo,hi")
    given["bracket"] = list(bracket)
    system = SystemKind(Variant(cfg["system"]))
    shots = []
    try:
        heights, prof = find_decaying(
            system, cfg["anchor_component"], cfg["anchor"], bracket, tol=cfg["tol"],
            trace=shots, **{k: cfg[k] for k, _ in _TOLERANCES},
        )
    except TargetSearchError as exc:
        trace = [c.summary() for c in exc.trace]
        if args.json:
            print(json.dumps({"config": given, "error": str(exc), "trace": trace,
                              "search": _search_counts(shots)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
            for line in trace:
                print(f"  {line}", file=sys.stderr)
        return 1

    totals, _ = total_masses(prof)
    residual = analysis.pohozaev_check(prof, prof.r_end).residual
    out = cfg["out"] or str(_outdir() / f"target_{cfg['system']}.json")
    profile_io.write_profile_json(prof, out, config=_embed_cfg(given))
    search = _search_counts(shots)
    lines = [
        "initial heights: " + ", ".join(f"{h:.12g}" for h in heights),
        "masses: " + ", ".join(f"{x:.8g}" for x in totals),
        f"pohozaev residual at r_end: {residual:.6e}",
        f"search: {search['shots']} shots, {search['nfev']} rhs calls",
        f"wrote {out}",
    ]
    _emit(
        args,
        lines,
        {
            "config": given,
            "init_heights": list(heights),
            "masses": totals.tolist(),
            "pohozaev_residual": residual,
            "search": search,
            "trace": [c.summary() for c in shots],
            "out": out,
        },
    )
    return 0


def _search_counts(shots) -> dict:
    """The search's shots and their summed rhs calls: counts only, so the
    payload stays reproducible."""
    return {"shots": len(shots), "nfev": sum(c.stats.nfev for c in shots)}


# --------------------------------------------------------------------------
# bubble
# --------------------------------------------------------------------------

_BUBBLE = (
    _opt("base", type=str, help="stored profile JSON"),
    _opt("ladder", help="strictly decreasing eps values"),
    _opt("delta", 0.1, type=float),
    _opt("spectrum_variant", "su3", choices=_SPECTRUM_VARIANTS),
    _opt("spectrum_bound", _SPECTRUM_BOUND, type=int),
    _opt("series_prefix", type=str),
)


def cmd_bubble(args, cfg: dict, given: dict) -> int:
    from . import analysis, profile_io

    if cfg["base"] is None or cfg["ladder"] is None:
        raise UsageError("bubble needs --base profile.json and --ladder e1,e2,...")
    try:
        base = profile_io.read_profile_json(cfg["base"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read base profile {cfg['base']}: {exc}") from exc
    ladder = _as_floats(cfg["ladder"])
    given["ladder"] = list(ladder)
    sset = RULES[SpectrumVariant(cfg["spectrum_variant"])].enumerate(cfg["spectrum_bound"])
    report = analysis.bubble_masses(base, ladder, cfg["delta"], sset)

    out = cfg["out"] or str(_outdir() / "bubble_report.json")
    doc = {"config": _embed_cfg(given), **report.to_json_dict()}
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
    profile_io.write_series(
        f"{prefix}_witness.dat",
        base.grid,
        base.witnesses,
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

# every subcommand's output path (a flag of those that write a file); its key
# comes last in the resolved config, whose key order shows where it is dumped
# unsorted (target's error payload)
_OUT = _opt("out", type=str, help="output path")


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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser; with ``command``, only the subcommand of that name
    gets its options, so only its option table is built and only the
    layers that table needs are loaded."""
    ap = argparse.ArgumentParser(
        prog="todalab",
        description="radial mass-quantization laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="enumerate or check mass triples")
    if command in (None, "spectrum"):
        spsub = sp.add_subparsers(dest="spectrum_cmd", required=True)
        # check and equiv write no file, so ``out`` is not a flag of theirs
        for name, flagless in (("enumerate", ("triple",)), ("check", ("out",)),
                               ("equiv", ("triple", "out"))):
            _add_options(spsub.add_parser(name), cmd_spectrum, _SPECTRUM, flagless)
    for name, help_text, func in (
        ("shoot", "integrate one radial shot", cmd_shoot),
        ("target", "shoot a bracket's midpoint, then its ends, until one decays",
         cmd_target),
        ("bubble", "double-limit bubble mass report", cmd_bubble),
    ):
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_options(p, func, _BUBBLE if name == "bubble" else _run_options(name))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first argument: build and load only what it runs
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        given, cfg = _resolve_config(args, args.options)
        if args.print_config:
            print(json.dumps(given, sort_keys=True, indent=2))
            return 0
        return args.func(args, cfg, given)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
