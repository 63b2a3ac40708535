"""Adaptive radial integration of the system variants in log-radius.

The radial reduction of -Lap(u) = F(u) is u'' + u'/r = -F(u); in
t = log r the state (u, w = du/dt, m = cumulative mass) obeys

    du/dt = w,   dw/dt = -exp(2t) F(u),   dm_i/dt = exp(u_i + 2t),

which makes the far field linear in t and cheap to follow out to large
radii.  Integration starts from a second-order series head at a small
radius (regular data) or from the power-law asymptote 2 b log r + c
(singular data), runs the in-house Dormand-Prince 8(5,3) stepper of
``dop853`` (the method and controller of scipy's ``solve_ivp(DOP853)``,
without scipy), and guards against component blow-up at +50.  Each
profile carries the stepper's counts and message in ``stats``.

Masses ride along in the state, so the divergence-theorem identity
r u_i'(r) = -(signed mass combination) is a linear invariant of the
system, which every Runge-Kutta step preserves exactly:
``mean_value_residuals`` checks the stored-state bookkeeping, not the
integration accuracy.  The Pohozaev balances of ``analysis`` are the
accuracy checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import dop853
from .dop853 import SolverStats
from .systems import SystemKind

BLOWUP_GUARD = 50.0
# exp() cap of the mass slopes r^2 e^u: shoot's rhs and mass_at must agree
_MASS_EXP_CAP = 600.0
DEFAULT_REGULAR_R_START = 1e-4
DEFAULT_SINGULAR_R_START = 1e-6

# tail fit u ~ -alpha log r + beta: slopes below this are treated as
# non-convergent (the tail integral needs alpha > 2)
TAIL_ALPHA_MIN = 2.1
_TAIL_DECADES = 1.0  # the tail fit's window: the grid's last decade

# a circle decays fast when max_i(u_i + 2 log r) <= -DECAY_LEVEL
DECAY_LEVEL = 10.0

# a component re-ignites once w = r u' rises this far above max(w(r_start), 0)
_UP_JUMP = 0.5
# bisection steps after which find_decaying gives up
_MAX_BISECTIONS = 200


class TerminationReason(Enum):
    REACHED_R_MAX = "reached_r_max"
    COMPONENT_BLOW_UP = "component_blow_up"
    STEP_UNDERFLOW = "step_underflow"
    MASS_OVERFLOW = "mass_overflow"


class TargetSearchError(RuntimeError):
    """Mass targeting failed to converge; ``trace`` holds the classified shots."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class BracketError(TargetSearchError):
    """The search interval does not bracket a decaying solution."""


@dataclass(frozen=True)
class ShootSpec:
    """Initial data, tolerances and stopping rules for one radial shot.

    ``init_heights`` are the u_i(0) for regular starts, or the additive
    constants c_i of u_i ~ 2 b_i log r + c_i for singular starts; they must
    be finite.  ``r_start`` defaults to 1e-4 (regular) or 1e-6 (singular),
    shrunk by decades down to 1e-40 for tall data; heights whose
    small-radius expansion breaks down even there are refused.  ``r_max``
    must keep r_max^2 finite (about 1.3e154 at most), because the
    right-hand side in log-radius carries the factor r^2.  The field
    defaults are the only copy of the shot defaults: ``find_decaying``,
    ``from_json_dict`` and the CLI options read them from here.
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
        for _, p_exp in self.system.series_terms(self.init_heights):
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
        defaulted = self.r_start is None
        if defaulted:
            r0 = (
                DEFAULT_SINGULAR_R_START
                if self.system.is_singular
                else DEFAULT_REGULAR_R_START
            )
            # shrink the start radius until the series head is a genuine
            # perturbation (large heights concentrate at scale e^{-h/2})
            while r0 > 1e-40 and _series_head_size(self.system,
                                                   self.init_heights, r0) > 0.05:
                r0 /= 10.0
            object.__setattr__(self, "r_start", r0)
        if _series_head_size(self.system, self.init_heights, self.r_start) > 0.5:
            raise ValueError(
                "initial heights too large: the small-radius expansion breaks "
                f"down even at the smallest default r_start, {self.r_start:g}"
                if defaulted else
                "r_start too large: the small-radius expansion breaks down "
                "for these initial heights; decrease r_start or omit it"
            )
        if not (0 < self.r_start < self.r_max):
            raise ValueError("need 0 < r_start < r_max")
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

    ``values``, ``log_derivs`` and ``masses`` are views of the column blocks
    of ``state``; sigma_i is int_0^r e^{u_i} s ds (analytic head included).
    ``witnesses`` holds the decay witnesses u_i + 2 log r at the nodes.
    Between nodes every query is the cubic Hermite in t = log r with the
    ODE's own slopes, which does not resolve the far field past the last
    bubble: it oscillates in t faster than the grid samples it.  ``stats``
    records what the shot cost and why it stopped; it is neither
    serialized nor compared.
    """

    system: SystemKind
    grid: np.ndarray
    state: np.ndarray
    reason: TerminationReason
    spec: Optional[ShootSpec] = None
    provenance: str = "shoot"
    stats: Optional[SolverStats] = field(default=None, repr=False, compare=False)

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
    derivs = property(lambda self: self.log_derivs / self.grid[:, None])  # du/dr

    @property
    def r_end(self) -> float:
        return float(self.grid[-1])

    def _hermite(self, r: float, block: int, slopes) -> tuple[np.ndarray, np.ndarray]:
        """Column block ``block`` (0 = u, 1 = w, 2 = sigma) at radius r, and
        the two state rows ``node`` bracketing r, whose d(block)/dt at log
        radii ``t`` (a column) is ``slopes(node, t)``."""
        g, r = self.grid, float(r)
        if not (g[0] * (1 - 1e-12) <= r <= g[-1] * (1 + 1e-12)):
            raise ValueError(f"radius {r:g} outside profile range [{g[0]:g}, {g[-1]:g}]")
        r = min(max(r, g[0]), g[-1])
        n = self.n_components
        cols = slice(block * n, (block + 1) * n)
        if len(g) < 2:
            return self.state[0, cols].copy(), self.state[:1]
        j = min(max(int(g.searchsorted(r, side="right")) - 1, 0), len(g) - 2)
        node = self.state[j : j + 2]
        t0, t1 = math.log(g[j]), math.log(g[j + 1])
        dt = t1 - t0
        x = (math.log(r) - t0) / dt
        # Hermite basis weights of the node values and of the nodal slopes
        wy = ((1.0 + 2.0 * x) * (1.0 - x) ** 2, x * x * (3.0 - 2.0 * x))
        wd = (x * (1.0 - x) ** 2 * dt, x * x * (x - 1.0) * dt)
        d = slopes(node, np.array(((t0,), (t1,))))
        return wy @ node[:, cols] + wd @ d, node

    def value_at(self, r: float) -> np.ndarray:
        """u_i(r), with slopes du/dt = w."""
        n = self.n_components
        return self._hermite(r, 0, lambda node, t: node[:, n : 2 * n])[0]

    def log_deriv_at(self, r: float) -> np.ndarray:
        """w_i(r) = r du_i/dr, with slopes dw/dt = -r^2 F(u)."""
        n, rhs = self.n_components, self.system.rhs
        return self._hermite(
            r, 1, lambda node, t: -np.exp(2.0 * t) * rhs(node[:, :n].T).T
        )[0]

    def mass_at(self, r: float) -> np.ndarray:
        """sigma_i(r), with slopes dsigma/dt = r^2 e^u.

        Clamped into the bracketing node values, so monotonicity of the
        running integral is preserved exactly.
        """
        n = self.n_components
        out, node = self._hermite(r, 2, lambda node, t: np.exp(
            np.minimum(node[:, :n] + 2.0 * t, _MASS_EXP_CAP)))
        return out.clip(node[0, 2 * n :], node[-1, 2 * n :])

    def witness_at(self, r: float) -> np.ndarray:
        """The decay witnesses u_i(r) + 2 log r."""
        return self.value_at(r) + 2.0 * math.log(r)

    def max_constraint_violation(self) -> float:
        """Largest |constraint| over the grid, 0 for unconstrained variants."""
        w = self.system.constraint_weights()
        if w is None:
            return 0.0
        return float(np.max(np.abs(self.values @ np.asarray(w))))


def _series_head_size(system: SystemKind, heights, r0: float) -> float:
    """Largest value-correction magnitude of the small-radius expansion."""
    c = np.asarray(heights, dtype=float)
    size = 0.0
    for rho, p in system.series_terms(c):
        size = max(size, float(np.max(np.abs(rho))) * r0 ** (p + 2.0) / (p + 2.0) ** 2)
    return size


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

    if np.max(y0[:n]) >= BLOWUP_GUARD:
        stats = SolverStats(0, 0, 0, "initial state at or above the blow-up guard",
                            r_event=spec.r_start)
        return _assemble(spec, np.array([t0]), y0[:, None],
                         TerminationReason.COMPONENT_BLOW_UP, stats)

    # bound per shot, not per module: a wrapper put on the class attribute
    # SystemKind.rhs (as bench/spans.py does) sees every call
    F = sk.rhs
    n2 = 2 * n

    def rhs(t, y):
        u = y[:n]
        r2 = math.exp(2.0 * t)
        return np.concatenate(
            [y[n:n2], -r2 * F(u), r2 * np.exp(np.minimum(u, _MASS_EXP_CAP))])

    def blow_up(t, y):
        return BLOWUP_GUARD - y[:n].max()

    def mass_overflow(t, y):
        # caps runaway oscillatory regimes whose cumulative mass grows
        # without bound (desk-scale runs never approach the default)
        return spec.mass_guard - y[n2:].sum()

    # overflow in rejected trial steps is handled by the error controller
    with np.errstate(over="ignore", invalid="ignore"):
        sol = dop853.integrate(
            rhs, t0, t1, y0, spec.rel_tol, spec.abs_tol, t_eval,
            events=(blow_up, mass_overflow),
        )

    ts = sol.t
    ys = sol.y
    stats = sol.stats
    if sol.status == dop853.EVENT:
        te = sol.t_event
        stats = replace(stats, r_event=float(np.exp(te)))  # np.exp, as for the grid
        if ts.size == 0 or te > ts[-1] + 1e-12:
            ts = np.append(ts, te)
            ys = np.hstack([ys, sol.y_event[:, None]])
        reason = (
            TerminationReason.COMPONENT_BLOW_UP
            if sol.event == 0
            else TerminationReason.MASS_OVERFLOW
        )
    elif sol.status == dop853.FINISHED:
        reason = TerminationReason.REACHED_R_MAX
    else:
        reason = TerminationReason.STEP_UNDERFLOW

    if ts.size == 0:
        ts = np.array([t0])
        ys = y0[:, None]

    return _assemble(spec, ts, ys, reason, stats)


def _assemble(
    spec: ShootSpec,
    ts: np.ndarray,
    ys: np.ndarray,
    reason: TerminationReason,
    stats: SolverStats,
) -> RadialProfile:
    n = spec.system.n_components
    state = ys.T.copy()
    # running integrals are non-decreasing; wash out interpolation-level
    # dips far below solver tolerance
    np.maximum.accumulate(state[:, 2 * n :], axis=0, out=state[:, 2 * n :])
    return RadialProfile(
        system=spec.system,
        grid=np.exp(ts),
        state=state,
        reason=reason,
        spec=spec,
        stats=stats,
    )


def rescale(p: RadialProfile, eps: float) -> RadialProfile:
    """The profile v_i(r) = u_i(eps r) + 2 log eps.

    Pure reindexing of the stored samples (w and sigma are scale-invariant),
    so the mass law sigma_i(r; v) = sigma_i(eps r; u) holds exactly on the
    grid.  No shot reproduces the new grid, so ``spec`` is dropped.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    state = p.state.copy()
    state[:, : p.n_components] += 2.0 * math.log(eps)
    stats = p.stats
    if stats is not None and stats.r_event is not None:
        stats = replace(stats, r_event=stats.r_event / eps)
    return RadialProfile(
        system=p.system,
        grid=p.grid / eps,
        state=state,
        reason=p.reason,
        provenance=f"{p.provenance};rescale(eps={eps!r})",
        stats=stats,
    )


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


def tail_fit(p: RadialProfile, component: int):
    """Fit u ~ -alpha log r + beta over the last decade of the grid.

    Returns (alpha, beta, tail_mass, converged): tail_mass is the analytic
    remainder int_R^inf e^beta s^(1-alpha) ds when alpha exceeds the
    convergence threshold, else 0 with converged = False.
    """
    if len(p.grid) < 4:
        return 0.0, float(p.values[-1, component]), 0.0, False
    t = np.log(p.grid)
    mask = t >= t[-1] - _TAIL_DECADES * math.log(10.0)
    if mask.sum() < 4:
        mask = np.zeros_like(mask)
        mask[-4:] = True
    coef = np.polyfit(t[mask], p.values[mask, component], 1)
    alpha, beta = -coef[0], coef[1]
    if alpha > TAIL_ALPHA_MIN:
        R = p.r_end
        tail = math.exp(beta) * R ** (2.0 - alpha) / (alpha - 2.0)
        return alpha, beta, tail, True
    return alpha, beta, 0.0, False


def total_masses(p: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """Tail-corrected total masses and per-component convergence flags."""
    n = p.n_components
    totals = p.masses[-1].copy()
    ok = np.zeros(n, dtype=bool)
    for i in range(n):
        _, _, tail, conv = tail_fit(p, i)
        totals[i] += tail
        ok[i] = conv
    return totals, ok


@dataclass
class ShotClassification:
    """Outcome of one classification shot inside the targeting search."""

    kind: str  # "over" | "under"
    first_up: Optional[int]
    r_up: Optional[float]
    totals: Optional[np.ndarray]
    witness_final: float
    free_value: float = math.nan

    def summary(self) -> str:
        if self.kind == "under":
            masses = ", ".join(f"{x:.6g}" for x in self.totals)
            return f"height={self.free_value:.10g} under masses=({masses})"
        return (
            f"height={self.free_value:.10g} over component={self.first_up}"
            f" at r={self.r_up:.4g} witness={self.witness_final:.3g}"
        )


def classify_shot(
    p: RadialProfile,
    n_detect: float = DECAY_LEVEL,
    mass_tol: float = 1e-3,
) -> ShotClassification:
    """OVER when some component turns upward (or blows up) before r_max,
    UNDER when every component ends in fast decay with converged mass."""
    n = p.n_components
    w = p.log_derivs
    thresholds = np.maximum(w[0], 0.0) + _UP_JUMP

    first_idx, first_comp = None, None
    for i in range(n):
        hits = np.nonzero(w[:, i] > thresholds[i])[0]
        if hits.size and (first_idx is None or hits[0] < first_idx):
            first_idx, first_comp = int(hits[0]), i

    witness = p.witnesses[-1]
    witness_max = float(np.max(witness))

    if first_comp is not None:
        return ShotClassification(
            "over", first_comp, float(p.grid[first_idx]), None, witness_max
        )
    if p.reason is TerminationReason.COMPONENT_BLOW_UP:
        comp = int(np.argmax(p.values[-1]))
        return ShotClassification("over", comp, p.r_end, None, witness_max)

    totals, conv = total_masses(p)
    tails = totals - p.masses[-1]
    settled = bool(
        np.all(conv) and np.all(tails <= mass_tol * np.maximum(totals, 1.0))
    )
    if witness_max <= -n_detect and settled:
        return ShotClassification("under", None, None, totals, witness_max)
    # marginal shot: the slowest-decaying component is the one about to
    # re-ignite, so classify on its side
    comp = int(np.argmax(witness))
    return ShotClassification("over", comp, p.r_end, None, witness_max)


def _fill_heights(
    system: SystemKind, anchor: int, anchor_height: float, x: float
) -> tuple[float, ...]:
    n = system.n_components
    h = [0.0] * n
    h[anchor] = anchor_height
    if n == 1:
        return tuple(h)
    free = 1 if anchor == 0 else 0  # the first component that is not the anchor
    h[free] = x
    if n == 2:
        return tuple(h)
    wts = system.constraint_weights()
    if wts is None:
        raise ValueError(
            "three-component targeting needs a constrained variant"
        )
    rest = [i for i in range(n) if i not in (anchor, free)]
    (k,) = rest
    h[k] = -(wts[anchor] * anchor_height + wts[free] * x) / wts[k]
    return tuple(h)


def find_decaying(
    system: SystemKind,
    anchor_component: int,
    anchor_height: float,
    search_interval: tuple[float, float],
    tol: float = 1e-3,
    *,
    r_max: float = ShootSpec.r_max,
    rel_tol: float = ShootSpec.rel_tol,
    abs_tol: float = ShootSpec.abs_tol,
    samples_per_decade: int = ShootSpec.samples_per_decade,
    n_detect: float = DECAY_LEVEL,
) -> tuple[tuple[float, ...], RadialProfile]:
    """Bisect the free initial height until the shot decays everywhere.

    The anchor component's height is held fixed; the height of the free
    component, the first one that is not the anchor, is bisected over
    ``search_interval``, classifying each shot by which component
    re-ignites first.  Returns (initial heights, profile) of the first
    fully decaying shot whose masses converge within ``tol``.

    One-component variants are degenerate (every height decays): the
    anchor shot itself is classified and returned.

    Regular data of a variant whose constraint sum_i w_i u_i = 0 has
    positive weights (su3, su4) keeps max_i u_i >= 0, so the decay witness
    is at least 2 log r and no shot reaching r > e^{-n_detect/2} can be
    UNDER; such a search raises ``TargetSearchError`` before any shot.
    """
    n = system.n_components
    if not 0 <= anchor_component < n:
        raise ValueError("anchor component out of range")
    wts = system.constraint_weights()
    r_witness = math.exp(-n_detect / 2.0)
    if wts is not None and min(wts) > 0 and not system.is_singular \
            and r_max > r_witness:
        raise TargetSearchError(
            f"no {system.variant.value} shot can decay: the constraint "
            f"{wts} . u = 0 keeps max_i u_i >= 0, so the decay witness "
            "max_i u_i + 2 log r is at least 2 log r, above "
            f"-n_detect = {-n_detect:g} for r > e^(-n_detect/2) = "
            f"{r_witness:.3g}, and r_max = {r_max:g}"
        )
    trace: list[ShotClassification] = []

    def run(x: float) -> tuple[ShotClassification, RadialProfile]:
        heights = _fill_heights(system, anchor_component, anchor_height, x)
        prof = shoot(
            ShootSpec(
                system=system,
                init_heights=heights,
                r_max=r_max,
                rel_tol=rel_tol,
                abs_tol=abs_tol,
                samples_per_decade=samples_per_decade,
            )
        )
        cls = classify_shot(prof, n_detect=n_detect, mass_tol=tol)
        cls.free_value = x
        trace.append(cls)
        return cls, prof

    if n == 1:
        cls, prof = run(anchor_height)
        if cls.kind == "under":
            return tuple(prof.spec.init_heights), prof
        raise TargetSearchError(
            "single-component shot did not decay", trace
        )

    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi:
        raise BracketError("search interval is empty or inverted", trace)

    cls_lo, prof_lo = run(lo)
    if cls_lo.kind == "under":
        return tuple(prof_lo.spec.init_heights), prof_lo
    cls_hi, prof_hi = run(hi)
    if cls_hi.kind == "under":
        return tuple(prof_hi.spec.init_heights), prof_hi

    if cls_lo.first_up == cls_hi.first_up:
        raise BracketError(
            "interval endpoints re-ignite the same component "
            f"({cls_lo.first_up}); no sign change to bisect",
            trace,
        )

    side_lo = cls_lo.first_up
    side_hi = cls_hi.first_up
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        cls, prof = run(mid)
        if cls.kind == "under":
            return tuple(prof.spec.init_heights), prof
        if cls.first_up == side_lo:
            lo = mid
        elif cls.first_up == side_hi:
            hi = mid
        else:
            raise TargetSearchError(
                f"ambiguous classification at height {mid!r} "
                f"(component {cls.first_up})",
                trace,
            )
        if hi - lo < 1e-14 * max(1.0, abs(lo) + abs(hi)):
            break
    raise TargetSearchError(
        f"no decaying solution found after {len(trace)} shots", trace
    )
