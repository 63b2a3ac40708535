"""Radial numerical laboratory for Liouville-type and affine Toda systems.

Exact enumeration of quantized blow-up mass triples, closed-form bubbles,
adaptive radial shooting with cumulative mass quadrature, mass targeting,
and Pohozaev/decay verifiers, with a CLI front end (``todalab``).

The package namespace is lazy: ``import todalab`` loads no submodule, and
each exported name loads its module on first access, so a command that
needs only exact arithmetic never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the names it exports
_MODULES = {
    "closed_forms": (
        "BubbleSpec", "VarsThetaPhi", "VarsWEta", "bubble_mass",
        "bubble_total_mass", "from_theta_phi", "from_w_eta",
        "liouville_bubble", "singular_bubble", "to_theta_phi", "to_w_eta",
    ),
    "ode_engine": (
        "BracketError", "RadialProfile", "ShootSpec", "TargetSearchError",
        "TerminationReason", "find_decaying", "mean_value_residuals",
        "rescale", "shoot", "total_masses",
    ),
    "analysis": (
        "BubbleReport", "DecayKind", "DecayVerdict", "IdentityBalance",
        "Su4Balance", "bubble_masses", "decay_classify",
        "fast_decay_radius_scan", "nearest_member", "pohozaev_check",
        "su4_radial_balance",
    ),
    "spectrum": (
        "MassTriple", "ParamIndex", "SpectrumSet", "SpectrumVariant",
        "enumerate_su3", "enumerate_su4", "is_candidate_su4",
        "membership_su3", "pohozaev_residual_su3", "pohozaev_residual_su4",
        "sinh_gordon_slice", "triple_from_params",
    ),
    "systems": ("SystemKind", "Variant"),
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
