"""Adaptive radial integration of the system variants in log-radius.

The radial reduction of -Lap(u) = F(u) is u'' + u'/r = -F(u); in
t = log r the state (u, w = du/dt, m = cumulative mass) obeys

    du/dt = w,   dw/dt = -exp(2t) F(u),   dm_i/dt = exp(u_i + 2t),

which makes the far field linear in t and cheap to follow out to large
radii.  Integration starts at a small radius from the series head
c + 2 b log r (b = 0 for regular data) plus one correction per series
term, runs the in-house Dormand-Prince 8(5,3) stepper of ``dop853`` (the
method and controller of scipy's ``solve_ivp(DOP853)``, without scipy),
and guards against component blow-up at +50.  Each profile carries the
stepper's counts and message in ``stats``.

Masses ride along in the state as the stepper's quadrature block: their
slopes read only t and u and feed nothing back, so ``dop853`` evaluates
them for all stages of a step in one call.  The (u, w) block is the
stepper's second-order block: it copies each stage's du/dt from the
stage's w, and the right-hand side reads only u and writes only
dw/dt = -r^2 F(u), in place.  The steps and their bits are those of the
whole system evaluated stage by stage.  The divergence-theorem identity
r u_i'(r) = -(signed mass combination) is a linear invariant of the
system, which every Runge-Kutta step preserves exactly:
``mean_value_residuals`` checks the stored-state bookkeeping, not the
integration accuracy.  The Pohozaev balances of ``analysis`` are the
accuracy checks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from . import dop853
from .dop853 import SolverStats
from .systems import SystemKind

BLOWUP_GUARD = 50.0
# exp() cap of the mass slopes r^2 e^u.  shoot's rhs caps u, as
# r^2 e^{min(u, cap)}, and mass_at caps u + 2 log r, as e^{min(u + 2t, cap)}.
# Under the +50 guard the shot's cap never binds and mass_at's binds only
# past r = e^{(cap - 50)/2} = e^{275}, so the two agree only below that radius
_MASS_EXP_CAP = 600.0
DEFAULT_REGULAR_R_START = 1e-4
DEFAULT_SINGULAR_R_START = 1e-6

# tail fit u ~ -alpha log r + beta: slopes below this are treated as
# non-convergent (the tail integral needs alpha > 2)
TAIL_ALPHA_MIN = 2.1
_TAIL_DECADES = 1.0  # the tail fit's window: the grid's last decade

# a circle decays fast when max_i(u_i + 2 log r) <= -DECAY_LEVEL
DECAY_LEVEL = 10.0
# a shot's masses settle when each tail mass is at most SETTLE_TOL * max(total, 1)
SETTLE_TOL = 1e-3

# a component re-ignites once w = r u' rises this far above max(w(r_start), 0)
_UP_JUMP = 0.5


class TerminationReason(Enum):
    REACHED_R_MAX = "reached_r_max"
    COMPONENT_BLOW_UP = "component_blow_up"
    STEP_UNDERFLOW = "step_underflow"
    # the summed mass crossed ``mass_guard``; the crossing is bisected in
    # log r to 4 machine epsilons, so the last row sits below the guard,
    # well below where the mass grows steeply
    MASS_OVERFLOW = "mass_overflow"


class TargetSearchError(RuntimeError):
    """Mass targeting failed to converge; ``trace`` holds the classified shots."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class BracketError(TargetSearchError):
    """The search interval is not finite, or its lo is not below its hi."""


@dataclass(frozen=True)
class ShootSpec:
    """Initial data, tolerances and stopping rules for one radial shot.

    ``init_heights`` are the u_i(0) for regular starts, or the additive
    constants c_i of u_i ~ 2 b_i log r + c_i for singular starts; they must
    be finite.  ``r_start`` defaults to 1e-4 (regular) or 1e-6 (singular),
    shrunk by decades for tall data until the series head is small, at the
    latest at 1e-41; heights whose small-radius expansion breaks down even
    there, or gives a NaN head, are refused.  ``r_max``
    must keep r_max^2 finite (about 1.3e154 at most), because the
    right-hand side in log-radius carries the factor r^2.  ``mass_guard``
    ends the shot where the summed masses cross it (``MASS_OVERFLOW``).
    That crossing is bisected in log r to 4 machine epsilons on the side
    the guard has not reached, so where the mass grows steeply (like
    r^(2b + 2) near r = 1 for a singular weight b = 1e15) the last row can
    sit well below the guard.  A start state at or beyond either guard is
    the whole shot, one row.  The field defaults are the only copy of the
    shot defaults: ``find_decaying``, ``from_json_dict`` and the CLI
    options read them from here.
    """

    system: SystemKind
    init_heights: tuple[float, ...]
    r_start: Optional[float] = None
    r_max: float = 1e6
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    samples_per_decade: int = 40
    mass_guard: float = 1e6

    def __post_init__(self):
        n = self.system.n_components
        if len(self.init_heights) != n:
            raise ValueError(f"expected {n} initial heights")
        if not all(map(math.isfinite, self.init_heights)):
            raise ValueError("initial heights must be finite")
        if not self.mass_guard > 0:
            raise ValueError("mass_guard must be positive")
        terms = self.system.series_terms(self.init_heights)
        for _, p_exp in terms:
            if p_exp <= -2.0:
                raise ValueError(
                    "singular weights give a non-integrable or resonant "
                    f"correction term (exponent {p_exp:g}) for "
                    f"{self.system.variant.value}"
                )
            # the series head divides by (p + 2)^2, which must stay finite
            if not (p_exp + 2.0) * (p_exp + 2.0) < math.inf:
                raise ValueError(
                    "singular weights too large: the small-radius expansion "
                    f"of {self.system.variant.value} has exponent {p_exp:g}, "
                    "whose (p + 2)^2 overflows"
                )
        # the series head's value corrections rho r0^(p+2) / (p+2)^2 (see
        # _series_state), each by its largest |rho|
        heads = [(float(np.max(np.abs(rho))), p + 2.0) for rho, p in terms]

        def head_exceeds(r0: float, bound: float) -> bool:
            # a NaN correction (0 * inf where e^{e . c} overflows, or inf * 0
            # once r0^(p+2) underflows) counts as too large, as does an
            # r0^(p+2) that overflows
            try:
                return not all(a * r0 ** q / q ** 2 <= bound for a, q in heads)
            except OverflowError:
                return True

        defaulted = self.r_start is None
        if defaulted:
            r0 = (
                DEFAULT_SINGULAR_R_START
                if self.system.is_singular
                else DEFAULT_REGULAR_R_START
            )
            # shrink the start radius until the series head is a genuine
            # perturbation (large heights concentrate at scale e^{-h/2})
            while r0 > 1e-40 and head_exceeds(r0, 0.05):
                r0 /= 10.0
            object.__setattr__(self, "r_start", r0)
        # before the head bound, which needs a positive r_start
        if not (0 < self.r_start < self.r_max):
            raise ValueError("need 0 < r_start < r_max")
        if head_exceeds(self.r_start, 0.5):
            raise ValueError(
                "initial heights too large: the small-radius expansion breaks "
                f"down even at the smallest default r_start, {self.r_start:g}"
                if defaulted else
                "r_start too large: the small-radius expansion breaks down "
                "for these initial heights; decrease r_start or omit it"
            )
        if not self.r_max * self.r_max < math.inf:
            raise ValueError(
                f"r_max = {self.r_max:g} too large: the shot's right-hand side "
                "carries r^2, which overflows above about 1.3e154"
            )
        for tol in (self.rel_tol, self.abs_tol):
            if not (0 < tol <= 1e-2):
                raise ValueError("tolerances must lie in (0, 1e-2]")
        if self.samples_per_decade < 1:
            raise ValueError("samples_per_decade must be positive")

    def to_json_dict(self) -> dict:
        d = self.system.to_json_dict()
        for f in fields(self)[1:]:
            d[f.name] = getattr(self, f.name)
        d["init_heights"] = list(self.init_heights)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ShootSpec":
        """The spec of ``to_json_dict``'s keys; an absent key takes its default."""
        return ShootSpec(
            SystemKind.from_json_dict(d),
            tuple(d["init_heights"]),
            **{f.name: d[f.name] for f in fields(ShootSpec)[2:] if f.name in d},
        )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass(eq=False)
class RadialProfile:
    """The integrator's state (u, w = r du/dr, sigma) at every grid node.

    ``grid`` and ``state`` are the arrays that a profile file stores as is.
    Every profile, however built (``shoot``, ``rescale``, a file or
    ``dataclasses.replace``), refuses with ``ValueError`` a grid that is
    not positive, finite and strictly increasing, a state that is not
    finite or not of shape (len(grid), 3n), which every query would misread,
    and a ``spec`` for another system, which no shot would reproduce.
    ``values``, ``log_derivs`` and ``masses`` are views of the column blocks
    of ``state``; sigma_i is int_0^r e^{u_i} s ds (analytic head included).
    ``witnesses`` holds the decay witnesses u_i + 2 log r at the nodes, and
    ``fast_decay_onset`` is where they stay in fast decay up to ``r_end``.
    Between nodes every query is the cubic Hermite in t = log r with the
    ODE's own slopes, which does not resolve the far field past the last
    bubble: it oscillates in t faster than the grid samples it.  One
    bracket per radius (the node interval and the Hermite weights in it)
    serves the three blocks: a profile keeps the bracket of its last query
    radius, so ``value_at``, ``log_deriv_at`` and ``mass_at`` at one radius
    bracket once.  That bracket is not a field: it is neither compared,
    shown nor stored.  The slopes are evaluated once per profile, on its
    first query between nodes, so a profile is an immutable value: its
    ``grid`` and ``state`` are read-only, and ``dataclasses.replace`` or
    ``rescale`` derive new profiles.  ``stats`` records what the shot cost
    and why it stopped; it is neither serialized nor compared.  A shot that
    an event ends (blow-up, mass overflow) has the event state as its last
    row, so ``r_end`` is the event radius.
    """

    system: SystemKind
    grid: np.ndarray
    state: np.ndarray
    reason: TerminationReason
    spec: Optional[ShootSpec] = None
    provenance: str = "shoot"
    stats: Optional[SolverStats] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        g = self.grid
        if not (g.ndim == 1 and g.size and np.isfinite(g).all() and g[0] > 0
                and (np.diff(g) > 0).all()):
            raise ValueError("profile grid must be positive, finite and "
                             "strictly increasing")
        shape = (len(g), 3 * self.n_components)
        if self.state.shape != shape:
            raise ValueError(f"profile state has shape {self.state.shape}, "
                             f"expected {shape}")
        if not np.isfinite(self.state).all():
            raise ValueError("profile state must be finite")
        if self.spec is not None and self.spec.system != self.system:
            raise ValueError("profile spec is for another system")
        # the nodal slopes are cached on the first query, so the rows they
        # were read from must not change
        g.setflags(write=False)
        self.state.setflags(write=False)
        # not a field: NaN equals no radius, so the first query brackets
        self._last_bracket = (math.nan, None)

    def __eq__(self, other) -> bool:
        """Value equality: the same system, reason, spec and provenance, and
        bit-equal ``grid`` and ``state``."""
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return (
            (self.system, self.reason, self.spec, self.provenance)
            == (other.system, other.reason, other.spec, other.provenance)
            and _same_bits(self.grid, other.grid)
            and _same_bits(self.state, other.state)
        )

    @property
    def n_components(self) -> int:
        return self.system.n_components

    values = property(lambda self: self.state[:, : self.n_components])
    log_derivs = property(
        lambda self: self.state[:, self.n_components : 2 * self.n_components])
    masses = property(lambda self: self.state[:, 2 * self.n_components :])
    witnesses = property(lambda self: self.values + 2.0 * np.log(self.grid)[:, None])

    @property
    def r_end(self) -> float:
        return float(self.grid[-1])

    @cached_property
    def fast_decay_onset(self) -> Optional[float]:
        """The smallest grid radius from which every node out to ``r_end``
        decays fast, max_i(u_i + 2 log r) <= -DECAY_LEVEL; None when the
        last node does not."""
        slow = np.flatnonzero(~(self.witnesses.max(axis=1) <= -DECAY_LEVEL))
        k = int(slow[-1]) + 1 if slow.size else 0
        return float(self.grid[k]) if k < len(self.grid) else None

    def covers(self, a: float, b: float) -> bool:
        """Whether the radii a <= b lie in the grid's range, to the relative
        slack of 1e-12 that every profile query allows."""
        g = self.grid
        return g[0] * (1 - 1e-12) <= a and b <= g[-1] * (1 + 1e-12)

    @cached_property
    def _nodes(self) -> tuple[list, list, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """The grid and its log radii as float lists, and for each of the
        three column blocks its view of ``state`` and its t-slopes at every
        node: w, -r^2 F(u) and r^2 e^u (capped)."""
        grid = self.grid.tolist()
        t = [math.log(r) for r in grid]
        tc, u = np.array(t)[:, None], self.values
        return grid, t, ((u, self.log_derivs),
                         (self.log_derivs, -np.exp(2.0 * tc) * self.system.rhs(u.T).T),
                         (self.masses, np.exp(np.minimum(u + 2.0 * tc, _MASS_EXP_CAP))))

    def _bracket(
        self, r: float
    ) -> tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        """The row j of the node interval that holds radius r, and the cubic
        Hermite weights there of the two node values and of the two nodal
        slopes (None for a one-row profile).  The bracket of the last radius
        is kept, so the three blocks at one radius share one."""
        r = float(r)
        last_r, bracket = self._last_bracket
        if r == last_r:
            return bracket
        g = self.grid
        if not self.covers(r, r):
            raise ValueError(f"radius {r:g} outside profile range [{g[0]:g}, {g[-1]:g}]")
        if len(g) < 2:
            bracket = (0, None, None)
        else:
            grid, t, _ = self._nodes
            rc = min(max(r, grid[0]), grid[-1])
            j = min(max(bisect_right(grid, rc) - 1, 0), len(grid) - 2)
            t0, t1 = t[j], t[j + 1]
            dt = t1 - t0
            x = (math.log(rc) - t0) / dt
            s = (1.0 - x) ** 2
            bracket = (j, np.array(((1.0 + 2.0 * x) * s, x * x * (3.0 - 2.0 * x))),
                       np.array((x * s * dt, x * x * (x - 1.0) * dt)))
        # one tuple, so a reader never pairs a radius with another's bracket
        self._last_bracket = (r, bracket)
        return bracket

    def _hermite(self, r: float, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Column block ``block`` (0 = u, 1 = w, 2 = sigma) at radius r, and
        the block's rows at the nodes bracketing r."""
        j, wy, wd = self._bracket(r)
        if wy is None:
            n = self.n_components
            rows = self.state[:1, block * n : (block + 1) * n]
            return rows[0].copy(), rows
        y, dy = self._nodes[2][block]
        rows = y[j : j + 2]
        return wy @ rows + wd @ dy[j : j + 2], rows

    def value_at(self, r: float) -> np.ndarray:
        """u_i(r), with slopes du/dt = w."""
        return self._hermite(r, 0)[0]

    def log_deriv_at(self, r: float) -> np.ndarray:
        """w_i(r) = r du_i/dr, with slopes dw/dt = -r^2 F(u)."""
        return self._hermite(r, 1)[0]

    def mass_at(self, r: float) -> np.ndarray:
        """sigma_i(r), with slopes dsigma/dt = r^2 e^u.

        Clamped into the bracketing node values, so monotonicity of the
        running integral is preserved exactly.
        """
        out, rows = self._hermite(r, 2)
        np.maximum(out, rows[0], out=out)
        return np.minimum(out, rows[-1], out=out)

    def witness_at(self, r: float) -> np.ndarray:
        """The decay witnesses u_i(r) + 2 log r."""
        return self.value_at(r) + 2.0 * math.log(r)

    def max_constraint_violation(self) -> float:
        """Largest |constraint| over the grid, 0 for unconstrained variants."""
        w = self.system.constraint_weights()
        if w is None:
            return 0.0
        return float(np.max(np.abs(self.values @ np.asarray(w))))


def _series_state(spec: ShootSpec) -> np.ndarray:
    """State (u, w, m) at r_start from the small-radius expansion."""
    sk = spec.system
    n = sk.n_components
    b = np.asarray(sk.singular_weights, dtype=float)
    c = np.asarray(spec.init_heights, dtype=float)
    r0 = spec.r_start

    u = c + 2.0 * b * math.log(r0)
    w = 2.0 * b.copy()
    # ShootSpec has rejected exponents p <= -2
    for rho, p in sk.series_terms(c):
        # particular solution of h'' + h'/r = -rho r^p
        u -= rho * r0 ** (p + 2.0) / (p + 2.0) ** 2
        w -= rho * r0 ** (p + 2.0) / (p + 2.0)
    m = np.exp(c) * r0 ** (2.0 * b + 2.0) / (2.0 * b + 2.0)
    return np.concatenate([u, w, m])


# a shot's reason by the stepper's (status, event index in (blow_up, mass_overflow))
_REASONS = {
    (dop853.FINISHED, None): TerminationReason.REACHED_R_MAX,
    (dop853.EVENT, 0): TerminationReason.COMPONENT_BLOW_UP,
    (dop853.EVENT, 1): TerminationReason.MASS_OVERFLOW,
    (dop853.STEP_UNDERFLOW, None): TerminationReason.STEP_UNDERFLOW,
}


def shoot(spec: ShootSpec) -> RadialProfile:
    """Integrate one radial shot and return the sampled profile."""
    sk = spec.system
    n = sk.n_components
    t0 = math.log(spec.r_start)
    t1 = math.log(spec.r_max)

    y0 = _series_state(spec)

    dt = math.log(10.0) / spec.samples_per_decade
    t_eval = np.arange(t0, t1, dt)
    if t1 - t_eval[-1] > 1e-12:
        t_eval = np.append(t_eval, t1)

    n2 = 2 * n

    def blow_up(t, y):
        return BLOWUP_GUARD - y[:n].max()

    def mass_overflow(t, y):
        # caps runaway oscillatory regimes whose cumulative mass grows
        # without bound (desk-scale runs never approach the default)
        return spec.mass_guard - y[n2:].sum()

    # bound per shot, not per module: a wrapper put on the class attribute
    # SystemKind.rhs (as bench/spans.py does) sees every call
    F = sk.rhs

    def rhs(t, u, out):
        # dw/dt = -r^2 F(u); the stepper writes du/dt = w itself
        np.multiply(F(u), -math.exp(2.0 * t), out=out)

    def masses(ts, ys, out):
        # dsigma/dt = r^2 e^{min(u, cap)} at every stage of a step at once
        r2 = np.array([math.exp(2.0 * t) for t in ts])
        e = np.minimum(ys[:, :n], _MASS_EXP_CAP)
        np.exp(e, out=e)
        np.multiply(r2[:, None], e, out=out)

    # overflow in rejected trial steps is handled by the error controller
    with np.errstate(over="ignore", invalid="ignore"):
        sol = dop853.integrate(
            rhs, t0, t1, y0, spec.rel_tol, spec.abs_tol, t_eval,
            events=(blow_up, mass_overflow), quad=masses, n_quad=n, n_pos=n,
        )
    ts, ys = (sol.t, sol.y) if sol.t.size else (np.array([t0]), y0[:, None])

    state = ys.T.copy()
    # running integrals are non-decreasing; wash out interpolation-level
    # dips far below solver tolerance
    np.maximum.accumulate(state[:, n2:], axis=0, out=state[:, n2:])
    return RadialProfile(sk, np.exp(ts), state, _REASONS[sol.status, sol.event],
                         spec=spec, stats=sol.stats)


def rescale(p: RadialProfile, eps: float) -> RadialProfile:
    """The profile v_i(r) = u_i(eps r) + 2 log eps.

    Pure reindexing of the stored samples (w and sigma are scale-invariant),
    so the mass law sigma_i(r; v) = sigma_i(eps r; u) holds exactly on the
    grid.  No shot reproduces the new grid, so ``spec`` is dropped.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    with np.errstate(over="ignore"):
        grid = p.grid / eps
    if not (grid[0] > 0 and grid[-1] < math.inf):
        raise ValueError(
            f"eps = {eps!r} takes the grid [{p.grid[0]:g}, {p.grid[-1]:g}] "
            "outside (0, inf)")
    state = p.state.copy()
    state[:, : p.n_components] += 2.0 * math.log(eps)
    return replace(p, grid=grid, state=state, spec=None,
                   provenance=f"{p.provenance};rescale(eps={eps!r})")


def mean_value_residuals(p: RadialProfile) -> np.ndarray:
    """Residual of r u_i'(r) + sum_j A_ij (sigma_j(r) - sigma_j(r0)) - r0 u_i'(r0).

    The divergence theorem makes this vanish identically for exact
    solutions.  It is a linear invariant of the radial system, which every
    Runge-Kutta step preserves exactly, so the returned array (grid x
    components) checks the stored-state bookkeeping, not the integration
    accuracy; the Pohozaev balances of ``analysis`` measure that.
    """
    identity = p.system.identity_floats
    if identity is None:
        raise ValueError(
            f"mean-value identity needs an exponential-linear variant, "
            f"got {p.system.variant.value}"
        )
    w = p.log_derivs
    dm = p.masses - p.masses[0]
    return w - w[0] + dm @ np.array(identity.A).T


def total_masses(p: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """Tail-corrected total masses and per-component convergence flags.

    Each component is fit as u ~ -alpha log r + beta over a suffix of the
    increasing grid: its last decade, or its last 4 rows when the decade
    holds fewer (a shorter grid converges nothing).  A component whose
    alpha exceeds TAIL_ALPHA_MIN converges, and its total gains the
    analytic remainder int_R^inf e^beta s^(1-alpha) ds, R = r_end.
    """
    n = p.n_components
    totals = p.masses[-1].copy()
    ok = np.zeros(n, dtype=bool)
    if len(p.grid) < 4:
        return totals, ok
    t = np.log(p.grid)
    k = min(np.searchsorted(t, t[-1] - _TAIL_DECADES * math.log(10.0)), len(t) - 4)
    for i in range(n):
        # one fit per component: a 2-D fit takes another LAPACK path
        slope, beta = np.polyfit(t[k:], p.values[k:, i], 1)
        alpha = -slope
        if alpha > TAIL_ALPHA_MIN:
            totals[i] += math.exp(beta) * p.r_end ** (2.0 - alpha) / (alpha - 2.0)
            ok[i] = True
    return totals, ok


# what a shot that does not decay ended in, by its termination reason
_FATES = {
    TerminationReason.COMPONENT_BLOW_UP: "blow-up",
    TerminationReason.MASS_OVERFLOW: "overflow",
    TerminationReason.REACHED_R_MAX: "unsettled at r_max",
    TerminationReason.STEP_UNDERFLOW: "step underflow",
}


@dataclass(frozen=True)
class ShotClassification:
    """What one shot of the targeting search showed, as a value.

    ``totals`` are the tail-corrected masses of a shot that decays, and
    None for one that does not; ``kind`` is read off them: "under" when
    the shot decays, "over" when it does not, and ``fate`` names it
    (decays, blow-up, overflow, unsettled at r_max or step underflow).
    ``first_up`` and ``r_up`` are the walk order: the first component
    whose w = r u' rises _UP_JUMP above max(its start, 0), and the radius
    where it does, or None when no component re-ignites.
    ``witness_final`` is the largest decay witness at the shot's last row,
    and ``reason`` and ``stats`` are the shot's termination reason and
    solver counts.  Two classifications are equal when every field is;
    ``SolverStats`` equality leaves out wall time.
    """

    first_up: Optional[int]
    r_up: Optional[float]
    totals: Optional[tuple[float, ...]]
    witness_final: float
    free_value: float
    reason: TerminationReason
    stats: Optional[SolverStats]

    @property
    def kind(self) -> str:
        return "over" if self.totals is None else "under"

    @property
    def fate(self) -> str:
        return "decays" if self.kind == "under" else _FATES[self.reason]

    def summary(self) -> str:
        """One line: the height, the class and its fate, and the walk order."""
        walk = ("no re-ignition" if self.first_up is None else
                f"component {self.first_up} re-ignites at r={self.r_up:.4g}")
        if self.kind == "under":
            masses = ", ".join(f"{x:.6g}" for x in self.totals)
            return (f"height={self.free_value:.10g} under ({self.fate}) "
                    f"masses=({masses}); walk: {walk}")
        return (f"height={self.free_value:.10g} over ({self.fate}) "
                f"witness={self.witness_final:.3g}; walk: {walk}")


def classify_shot(p: RadialProfile, mass_tol: float = SETTLE_TOL, *,
                  free_value: float = math.nan) -> ShotClassification:
    """Classify a shot by its fate, whatever order its walk takes.

    UNDER when the shot decays: ``p.fast_decay_onset`` is not None and
    every tail mass converges to at most mass_tol * max(total, 1).  OVER
    otherwise: after a blow-up, a mass overflow, or no settling by r_max.
    The walk order is ``_reignites`` of the whole profile.  ``free_value``
    is the search's free height.
    """
    totals = None
    if p.reason is not TerminationReason.COMPONENT_BLOW_UP:
        masses, conv = total_masses(p)
        tails = masses - p.masses[-1]
        if (np.all(conv) and np.all(tails <= mass_tol * np.maximum(masses, 1.0))
                and p.fast_decay_onset is not None):
            totals = tuple(masses.tolist())
    first_up, r_up = _reignites(p)
    return ShotClassification(first_up, r_up, totals, float(np.max(p.witnesses[-1])),
                              free_value, p.reason, p.stats)


def _reignites(p: RadialProfile) -> tuple[Optional[int], Optional[float]]:
    """The walk order of a profile: at the first row where some w_i exceeds
    max(w_i at the first row, 0) + _UP_JUMP, the lowest such component and
    the row's radius; (None, None) when no row does."""
    w = p.log_derivs
    up = w > np.maximum(w[0], 0.0) + _UP_JUMP
    if not up.any():
        return None, None
    row = int(up.any(axis=1).argmax())
    return int(up[row].argmax()), float(p.grid[row])


def find_decaying(
    system: SystemKind,
    anchor_component: int,
    anchor_height: float,
    search_interval: tuple[float, float],
    tol: float = SETTLE_TOL,
    *,
    r_max: float = ShootSpec.r_max,
    rel_tol: float = ShootSpec.rel_tol,
    abs_tol: float = ShootSpec.abs_tol,
    samples_per_decade: int = ShootSpec.samples_per_decade,
    trace: Optional[list] = None,
) -> tuple[tuple[float, ...], RadialProfile]:
    """Shoot the search interval's midpoint, then its ends, for a shot that
    decays.

    The anchor component's height is held fixed; the free component, the
    first one that is not the anchor, takes the height 0.5 * (lo + hi),
    then lo, then hi.  Each shot runs in full and is classified by its fate
    (``classify_shot``): UNDER when it decays, with a fast-decay onset and
    each tail mass at most tol * max(total, 1), whatever order its walk
    takes; OVER after a blow-up, a mass overflow or no settling by r_max.
    tol must be finite and positive.  Returns (initial heights, profile) of
    the first shot that decays; that profile is ``shoot`` of its spec.

    A one-component variant has no free height: its one shot is the
    anchor's, with the anchor height as the trace entry's free value, and
    it is returned only if it decays (Tzitzeica shots at heights 0 and
    log 8 end in mass overflow).

    An interval whose ends or midpoint are not finite, or whose lo is not
    below hi, raises ``BracketError`` before any shot, for every variant.
    When no shot decays, ``TargetSearchError`` is raised; it counts the
    shots that ran to r_max without settling, a sign that r_max is too
    small.  Each shot's ``ShotClassification`` is appended to ``trace``
    when it is given, and to the trace of any ``TargetSearchError`` raised.

    A variant whose identity has weights d > 0 with d^T A = 0 (su3, su4)
    keeps sum_i d_i u_i = 2 (d . b) log r + d . h on every shot, for
    singular weights b >= 0.  So some w_i stays at or above
    2 (d . b) / sum_i d_i >= 0, and no tail converges; and with d . h = 0
    the decay witness is at least (2 + 2 (d . b) / sum_i d_i) log r, above
    -DECAY_LEVEL past r = exp(-DECAY_LEVEL / (2 + 2 (d . b) / sum_i d_i)).
    No shot of such a search can decay, so it raises ``TargetSearchError``
    before any shot.
    """
    n = system.n_components
    if not 0 <= anchor_component < n:
        raise ValueError("anchor component out of range")
    # a converged tail is positive, so no shot settles under tol <= 0 or NaN
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    d = system.constraint_weights()
    if d is not None:
        b = tuple(map(float, system.singular_weights))
        db = sum(x * y for x, y in zip(d, b))
        slope = 2.0 + 2.0 * db / sum(d)
        raise TargetSearchError(
            f"no {system.variant.value} shot can decay: the constraint "
            f"d . u = 2 (d . b) log r + d . h, with d = {d} and weights "
            f"b = {b}, keeps some w_i at or above {2.0 * db / sum(d):g}, while "
            f"a converging tail needs every w_i below -{TAIL_ALPHA_MIN:g}, and "
            f"for d . h = 0 keeps the decay witness max_i u_i + 2 log r at "
            f"least {slope:g} log r, above the decay level {-DECAY_LEVEL:g} "
            f"for r > e^({-DECAY_LEVEL:g}/{slope:g}) = "
            f"{math.exp(-DECAY_LEVEL / slope):.3g}, and r_max = {r_max:g}"
        )
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if math.isfinite(lo) and math.isfinite(hi) and not lo < hi:
        raise BracketError("search interval is empty or inverted")
    mid = 0.5 * (lo + hi)
    # a NaN or infinite end, or a sum of ends that overflows, leaves no
    # finite midpoint to shoot
    if not math.isfinite(mid):
        raise BracketError(
            f"search interval must be finite, with a finite midpoint; got "
            f"({lo!r}, {hi!r})"
        )
    if trace is None:
        trace = []

    for x in ((anchor_height,) if n == 1 else (mid, lo, hi)):
        heights = tuple(anchor_height if i == anchor_component else x for i in range(n))
        prof = shoot(ShootSpec(system, heights, r_max=r_max, rel_tol=rel_tol,
                               abs_tol=abs_tol, samples_per_decade=samples_per_decade))
        cls = classify_shot(prof, mass_tol=tol, free_value=x)
        trace.append(cls)
        if cls.kind == "under":
            return heights, prof
    # an OVER shot that ran to r_max did not decay there: the search may
    # have run out of radius
    undecided = sum(c.kind == "over" and c.reason is TerminationReason.REACHED_R_MAX
                    for c in trace)
    raise TargetSearchError(
        f"no decaying solution found after {len(trace)} "
        f"shot{'' if len(trace) == 1 else 's'}"
        + (f"; {undecided} of them reached r_max = {r_max:g} without decaying, "
           "so a larger r_max may let a shot decay" if undecided else ""),
        trace,
    )
