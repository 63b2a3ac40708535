"""Radial numerical laboratory for Liouville-type and affine Toda systems.

Exact enumeration of quantized blow-up mass triples, closed-form bubbles,
adaptive radial shooting with cumulative mass quadrature, mass targeting,
and Pohozaev/decay verifiers, with a CLI front end (``todalab``).
"""

import types

from .closed_forms import (
    BubbleSpec,
    VarsThetaPhi,
    VarsWEta,
    bubble_mass,
    bubble_total_mass,
    from_theta_phi,
    from_w_eta,
    liouville_bubble,
    singular_bubble,
    to_theta_phi,
    to_w_eta,
)
from .ode_engine import (
    BracketError,
    RadialProfile,
    ShootSpec,
    TargetSearchError,
    TerminationReason,
    find_decaying,
    mean_value_residuals,
    rescale,
    shoot,
    total_masses,
)
from .analysis import (
    BubbleReport,
    DecayKind,
    DecayVerdict,
    IdentityBalance,
    PohozaevCheck,
    Su4Balance,
    annulus_mass,
    bubble_masses,
    decay_classify,
    fast_decay_radius_scan,
    identity_balance,
    nearest_member,
    pohozaev_check,
    su4_radial_balance,
)
from .spectrum import (
    MassTriple,
    ParamIndex,
    SpectrumSet,
    SpectrumVariant,
    enumerate_su3,
    enumerate_su4,
    is_candidate_su4,
    membership_su3,
    pohozaev_residual_su3,
    pohozaev_residual_su4,
    sinh_gordon_slice,
    triple_from_params,
)
from .systems import SystemKind, Variant

__version__ = "0.1.0"

__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, types.ModuleType))
